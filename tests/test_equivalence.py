import functools
import random

import pytest

from conftest import AB, A, INF, StepBudgetExceeded
from regmon import axioms, equivalence, semantics, terms
from regmon.axioms import instantiate, prefix_seq, soundness_fuzz
from regmon.equivalence import (
    OMEGA,
    VERDICT,
    Counterexample,
    closed_counterexample,
    decide,
    omega_closed_counterexample,
    omega_equiv_closed,
    omega_equiv_open,
    oracle_counterexample,
    oracle_equiv_open,
    substitution_family,
    substitution_values,
    verdict_equiv_closed,
    verdict_equiv_open,
)
from regmon.generate import random_closed_monitor, random_open_monitor
from test_semantics import covered_by
from regmon.syntax import parse_monitor
from regmon.terms import (
    END,
    NO,
    YES,
    Alphabet,
    NonClosedInput,
    Prefix,
    Sum,
    Var,
    apply_subst,
    depth,
    vars_of,
)


def t(text, alphabet=AB):
    return parse_monitor(text, alphabet)


def test_end_is_a_unit():
    m = t("a.yes + b.(no + a.yes)")
    assert verdict_equiv_closed(Sum(m, END), m, AB)


def test_absorbed_deep_summand():
    assert verdict_equiv_closed(t("yes"), t("yes + a.a.a.yes"), AB)


def test_fan_differs_at_epsilon():
    fan = t("a.yes + b.yes")
    assert not verdict_equiv_closed(YES, fan, AB)
    trace, side = closed_counterexample(YES, fan, AB)
    assert trace == ()
    assert side == "AcceptedOnlyByLeft"


def test_closed_requires_closed():
    with pytest.raises(NonClosedInput):
        verdict_equiv_closed(Var("x"), YES, AB)


def test_omega_fan_equals_yes():
    assert omega_equiv_closed(YES, t("a.yes + b.yes"), AB)


def test_omega_contains_verdict_equivalence():
    rng = random.Random(21)
    for _ in range(100):
        m = random_closed_monitor(rng, AB, 4)
        n = random_closed_monitor(rng, AB, 4)
        if verdict_equiv_closed(m, n, AB):
            assert omega_equiv_closed(m, n, AB)


def test_omega_yes_vs_no():
    assert not omega_equiv_closed(YES, NO, AB)


def test_closed_equiv_matches_antichain_comparison():
    # the product search must agree with the definition: equality of the
    # minimal accepted and rejected trace antichains
    rng = random.Random(41)
    for _ in range(200):
        m = random_closed_monitor(rng, AB, 4)
        n = random_closed_monitor(rng, AB, 4)
        by_lang = semantics.lang_of(m, AB) == semantics.lang_of(n, AB)
        assert verdict_equiv_closed(m, n, AB) == by_lang


def antichain_omega_counterexample(m, n, alphabet):
    """The omega decision by folded trace antichains, kept as the reference:
    the minimal accepted / rejected traces of each side, folded to their
    omega-cone generators, and the least generator the other side lacks."""
    if verdict_equiv_closed(m, n, alphabet):
        return None
    lm, ln = semantics.lang_of(m, alphabet), semantics.lang_of(n, alphabet)
    acc_m = semantics.omega_canon(lm.accept_min, alphabet)
    acc_n = semantics.omega_canon(ln.accept_min, alphabet)
    rej_m = semantics.omega_canon(lm.reject_min, alphabet)
    rej_n = semantics.omega_canon(ln.reject_min, alphabet)
    witnesses = [
        (trace, side)
        for mine, theirs, side in (
            (acc_m, acc_n, "AcceptedOnlyByLeft"),
            (acc_n, acc_m, "AcceptedOnlyByRight"),
            (rej_m, rej_n, "RejectedOnlyByLeft"),
            (rej_n, rej_m, "RejectedOnlyByRight"),
        )
        for trace in mine - theirs
        if not covered_by(trace, theirs)
    ]
    if not witnesses:
        return None
    return min(witnesses, key=lambda w: semantics.trace_key(w[0]))


def near_miss(rng, m, alphabet):
    """``m`` with one leaf replaced: by its full fan (omega equivalent), by
    the other verdict, or by a small random term."""
    match m:
        case Prefix(action, body):
            return Prefix(action, near_miss(rng, body, alphabet))
        case Sum(left, right):
            if rng.random() < 0.5:
                return Sum(near_miss(rng, left, alphabet), right)
            return Sum(left, near_miss(rng, right, alphabet))
    roll = rng.random()
    if roll < 0.4:
        fan = [Prefix(a, m) for a in alphabet.sorted_actions()]
        return functools.reduce(Sum, fan)
    if roll < 0.6 and m in (YES, NO):
        return NO if m == YES else YES
    return random_closed_monitor(rng, alphabet, 2)


def test_omega_equiv_matches_folded_antichains():
    rng = random.Random(43)
    for alphabet in (A, AB, Alphabet.finite(["a", "b", "c"])):
        inequivalent = 0
        for i in range(180):
            m = random_closed_monitor(rng, alphabet, 4)
            if i % 3:
                n = near_miss(rng, m, alphabet)
            else:
                n = random_closed_monitor(rng, alphabet, 4)
            if i % 2:
                m, n = n, m
            want = antichain_omega_counterexample(m, n, alphabet)
            assert omega_closed_counterexample(m, n, alphabet) == want, (m, n)
            inequivalent += want is not None
        assert 30 <= inequivalent <= 150, (alphabet, inequivalent)


def test_omega_decide_on_a_deep_chain_is_linear(step_budget):
    # The trace-antichain procedure took over 2**40 steps here.
    step_budget(2000)
    m, n = prefix_seq(("a",) * 40, YES), prefix_seq(("a",) * 40, NO)
    got = decide(m, n, AB, OMEGA)
    assert got.counterexample == Counterexample((), ("a",) * 40, "AcceptedOnlyByLeft")


def test_omega_search_steps_each_state_once(step_budget):
    # The cone flags and the product search share one successor table; with
    # a table for each they took 488 calls.
    step_budget(330)
    m, n = prefix_seq(("a",) * 40, YES), prefix_seq(("a",) * 40, NO)
    got = decide(m, n, AB, OMEGA)
    assert got.counterexample == Counterexample((), ("a",) * 40, "AcceptedOnlyByLeft")


def test_substitution_values_unary_bound_one():
    # enumeration oracle: {end, yes, no} plus t.yes / t.no / t.(yes+no)
    # for t in {eps, a}, as a set of distinct terms
    values = substitution_values(A, 1)
    expected = {END, YES, NO, Sum(YES, NO)}
    for trace in [("a",)]:
        for leaf in (YES, NO, Sum(YES, NO)):
            expected.add(prefix_seq(trace, leaf))
    assert set(values) == expected
    assert len(values) == 7


def test_substitution_family_counts():
    assert substitution_family([], AB, 3) == [{}]
    fam = substitution_family(["x"], A, 1)
    assert len(fam) == 7
    fam2 = substitution_family(["x", "y"], AB, 1)
    assert len(fam2) == len(substitution_values(AB, 1)) ** 2 == 100


def test_substitution_family_cap_keeps_single_active():
    values = substitution_values(AB, 3)
    fam = substitution_family(["x", "y"], AB, 3, cap=500)
    for v in values:
        assert {"x": v, "y": END} in fam
        assert {"x": END, "y": v} in fam


def test_oracle_o1_sound():
    assert oracle_equiv_open(t("yes + no"), t("yes + no + x"), AB)


def test_oracle_v1_alphabet_split():
    assert oracle_equiv_open(t("x", A), t("x + a.x", A), A)
    assert not oracle_equiv_open(t("x"), t("x + a.x"), AB)


def test_oracle_o2_instance_sound():
    inst = instantiate("O2", {"s": ("a",), "k": 1}, AB)
    assert oracle_equiv_open(inst.equation.lhs, inst.equation.rhs, AB)


def test_oracle_counterexample_replays():
    cex = oracle_counterexample(t("x"), t("x + a.x"), AB)
    assert isinstance(cex, Counterexample)
    sigma = dict(cex.substitution)
    lhs = apply_subst(sigma, t("x"))
    rhs = apply_subst(sigma, t("x + a.x"))
    acc_l = semantics.accepts(lhs, cex.trace)
    acc_r = semantics.accepts(rhs, cex.trace)
    rej_l = semantics.rejects(lhs, cex.trace)
    rej_r = semantics.rejects(rhs, cex.trace)
    assert {
        "AcceptedOnlyByLeft": acc_l and not acc_r,
        "AcceptedOnlyByRight": acc_r and not acc_l,
        "RejectedOnlyByLeft": rej_l and not rej_r,
        "RejectedOnlyByRight": rej_r and not rej_l,
    }[cex.side]


def test_oracle_counterexample_trace_is_globally_minimal():
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        m = random_open_monitor(rng, AB, 3)
        n = random_open_monitor(rng, AB, 3)
        cex = oracle_counterexample(m, n, AB, bound=3, cap=256)
        if cex is None:
            continue
        checked += 1
        shortest = min((c.trace for c in _failures(m, n, AB, VERDICT, 3, 256)), key=len)
        assert len(cex.trace) == len(shortest)
        if checked >= 15:
            break
    assert checked


def _failures(m, n, alphabet, mode, bound, cap):
    """Each substitution of the oracle's family that separates ``m`` and
    ``n``, in family order, with its shortest trace (no cutoff)."""
    found = []
    for sigma in substitution_family(vars_of(m) | vars_of(n), alphabet, bound, cap=cap):
        pairs = tuple(sorted(sigma.items()))
        cex = equivalence.closed_search(
            apply_subst(sigma, m), apply_subst(sigma, n), alphabet, mode, pairs
        )
        if cex is not None:
            found.append(cex)
    return found


def _flip_leaf(rng, m):
    """``m`` with one leaf, reached by a random descent, replaced by another."""
    path = []
    while isinstance(m, (Prefix, Sum)):
        path.append(m)
        m = m.body if isinstance(m, Prefix) else rng.choice((m.left, m.right))
    new = rng.choice([v for v in (END, YES, NO, Var("x"), Var("y")) if v is not m])
    for parent in reversed(path):
        if isinstance(parent, Prefix):
            new = Prefix(parent.action, new)
        elif m is parent.left:
            new = Sum(new, parent.right)
        else:
            new = Sum(parent.left, new)
        m = parent
    return new


def test_oracle_cutoff_keeps_the_full_scans_counterexample():
    # Later searches stop below the best trace so far; the answer must still
    # be the full scan's: shortest trace, ties broken by family position.
    rng = random.Random(2024)
    pairs = several = replaced = 0
    for i in range(280):
        alphabet = (A, AB)[i % 2]
        mode = (VERDICT, VERDICT, OMEGA, OMEGA)[i % 4]
        m = random_open_monitor(rng, alphabet, 3)
        n = _flip_leaf(rng, m)
        if not vars_of(m) | vars_of(n):
            continue
        pairs += 1
        failures = _failures(m, n, alphabet, mode, 2, 128)
        expected = min(failures, key=lambda c: len(c.trace), default=None)
        assert oracle_counterexample(m, n, alphabet, mode, bound=2, cap=128) == expected
        several += len(failures) > 1
        replaced += bool(failures) and len(failures[0].trace) > len(expected.trace)
    # Both sides of the cutoff ran: later failures cut off, and a shorter
    # one found under a cutoff replacing the first.
    assert pairs >= 200 and several >= 100 and replaced >= 5


# ---------------------------------------------------------------------------
# The product search under a substitution


def _random_substitution(rng, variables, alphabet):
    return {v: random_closed_monitor(rng, alphabet, 3) for v in sorted(variables)}


@pytest.mark.parametrize("mode", [VERDICT, OMEGA])
@pytest.mark.parametrize("alphabet", [A, AB, INF], ids=["a", "ab", "infinite"])
def test_search_under_a_substitution_matches_the_search_on_its_instances(alphabet, mode):
    # For each open pair, closed_search under a substitution answers as the
    # search on the two instances that apply_subst builds: over {a} and
    # {a,b} under members of the oracle's family and random closed values,
    # over the open-ended alphabet under fresh_substitution and random
    # closed values; with no limit and with one.
    rng = random.Random(f"under {alphabet} {mode}")
    source = alphabet if alphabet.is_finite else AB
    families = {}
    found = [0, 0]  # counterexamples without and with a limit, of 400 each
    for limited in (False, True):
        for i in range(200):
            m = random_open_monitor(rng, source, 3)
            # An equivalent partner (by A3), one that differs in a leaf, or
            # an unrelated term.
            n = (Sum(m, m), _flip_leaf(rng, m), random_open_monitor(rng, source, 3))[i % 3]
            variables = vars_of(m) | vars_of(n)
            if alphabet.is_finite:
                if variables not in families:
                    families[variables] = substitution_family(variables, alphabet, 2, cap=64)
                first = rng.choice(families[variables])
            else:
                first = equivalence.fresh_substitution(m, n)
            limit = rng.randint(0, 3) if limited else None
            for sigma in (first, _random_substitution(rng, variables, source)):
                pairs = tuple(sorted(sigma.items()))
                got = equivalence.closed_search(m, n, alphabet, mode, pairs, limit)
                built = apply_subst(sigma, m), apply_subst(sigma, n)
                assert got == equivalence.closed_search(*built, alphabet, mode, pairs, limit), (
                    m, n, sigma, limit)
                found[limited] += got is not None
    # Both answers are well represented in each half.
    assert all(120 <= k <= 280 for k in found), found


def test_the_substitution_is_applied_during_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(terms, "apply_subst", refuse)
    for module in (axioms, equivalence):
        monkeypatch.setattr(module, "apply_subst", refuse, raising=False)
    v1 = instantiate("V1", {}, AB).equation
    unsound = soundness_fuzz(instantiate("V1", {}, AB), AB, VERDICT, 30, seed=3)
    sound = soundness_fuzz(instantiate("V1", {}, A), A, VERDICT, 30, seed=3)
    o2 = instantiate("O2", {"s": ("a",), "k": 1}, AB).equation
    cex = oracle_counterexample(v1.lhs, v1.rhs, AB, OMEGA, bound=2)
    answers = (
        oracle_equiv_open(o2.lhs, o2.rhs, AB, bound=2, cap=128),
        oracle_equiv_open(v1.lhs, v1.rhs, AB, bound=2),
        decide(v1.lhs, v1.rhs, INF, VERDICT).equal,
        decide(t("x + a.y"), t("a.y + x + x"), INF, OMEGA).equal,
    )
    monkeypatch.undo()
    assert answers == (True, False, False, True)
    assert sound.ok and len(unsound.failures) > 5
    # Each counterexample is the one that the search on its instances finds.
    for f, mode in [(f, VERDICT) for f in unsound.failures] + [(cex, OMEGA)]:
        sigma = dict(f.substitution)
        built = apply_subst(sigma, v1.lhs), apply_subst(sigma, v1.rhs)
        assert equivalence.closed_search(*built, AB, mode, f.substitution) == f


@pytest.mark.parametrize("mode, context", [(VERDICT, "verdict"), (OMEGA, "omega-verdict")])
def test_a_substitution_that_leaves_a_variable_free_is_refused(mode, context):
    m, n = t("x + y"), t("a.x")
    with pytest.raises(NonClosedInput, match=rf"^{context} equivalence requires a closed monitor; free variables: y$"):
        equivalence.closed_search(m, n, AB, mode, (("x", YES),))
    with pytest.raises(NonClosedInput, match=r"free variables: x$"):
        equivalence.closed_search(n, t("a.yes"), AB, mode, (("y", YES),))
    with pytest.raises(NonClosedInput, match=r"free variables: y, z$"):
        equivalence.closed_search(m, n, AB, mode, (("x", t("z + a.yes")),))
    # Every variable mapped, one to an open term: the instance is open.
    with pytest.raises(NonClosedInput, match=r"free variables: z$"):
        equivalence.closed_search(n, t("a.yes"), AB, mode, (("x", t("z + a.yes")),))


def test_step_budget_stops_a_search_under_a_substitution(step_budget):
    m, n = prefix_seq(("a",) * 40, Var("x")), prefix_seq(("a",) * 40, Var("y"))
    pairs = (("x", YES), ("y", NO))
    step_budget(300)
    got = equivalence.closed_search(m, n, AB, VERDICT, pairs)
    assert got == Counterexample(pairs, ("a",) * 40, "AcceptedOnlyByLeft")
    step_budget(20)
    with pytest.raises(StepBudgetExceeded):
        equivalence.closed_search(m, n, AB, VERDICT, pairs)


def test_open_verdict_section4_examples():
    lhs = t("x + a.(x + a.(yes+no) + b.(yes+no))")
    rhs = t("x + a.(a.(yes+no) + b.(yes+no))")
    assert verdict_equiv_open(lhs, rhs, AB)
    one_sided = t("a.(x + a.(yes+no) + b.(yes+no))")
    assert not verdict_equiv_open(lhs, one_sided, AB)
    assert verdict_equiv_open(
        t("x + yes + a.b.(no + b.a.x)"), t("x + yes + a.b.no"), AB
    )


def test_open_omega_examples():
    assert omega_equiv_open(YES, t("a.yes + b.yes"), AB)
    assert omega_equiv_open(t("x", A), t("a.x", A), A)


def test_open_procedures_agree_with_closed_on_closed_inputs():
    rng = random.Random(31)
    for _ in range(60):
        m = random_closed_monitor(rng, AB, 3)
        n = random_closed_monitor(rng, AB, 3)
        assert verdict_equiv_open(m, n, AB) == verdict_equiv_closed(m, n, AB)
        assert omega_equiv_open(m, n, AB) == omega_equiv_closed(m, n, AB)


def test_open_equivalence_is_a_congruence():
    from regmon.terms import Prefix

    rng = random.Random(33)
    found = 0
    for _ in range(200):
        m = random_open_monitor(rng, AB, 3)
        n = random_open_monitor(rng, AB, 3)
        if not verdict_equiv_open(m, n, AB):
            continue
        found += 1
        p = random_open_monitor(rng, AB, 3)
        assert verdict_equiv_open(Prefix("a", m), Prefix("a", n), AB)
        assert verdict_equiv_open(Sum(m, p), Sum(n, p), AB)
        if found >= 10:
            break
    assert found


def test_verdict_implies_omega_open_with_strictness():
    rng = random.Random(35)
    for _ in range(80):
        m = random_open_monitor(rng, AB, 3)
        n = random_open_monitor(rng, AB, 3)
        if verdict_equiv_open(m, n, AB):
            assert omega_equiv_open(m, n, AB)
    # strictness witness over a finite alphabet
    assert omega_equiv_open(YES, t("a.yes + b.yes"), AB)
    assert not verdict_equiv_open(YES, t("a.yes + b.yes"), AB)


def test_infinite_alphabet_collapses_the_modes():
    rng = random.Random(37)
    for _ in range(40):
        m = random_open_monitor(rng, AB, 3)
        n = random_open_monitor(rng, AB, 3)
        assert omega_equiv_open(m, n, INF) == verdict_equiv_open(m, n, INF)


def test_finite_disagreement_sets():
    # whenever omega holds but verdict fails, each substitution separates
    # the two sides on finitely many traces, all shorter than the depth
    # bound of the substituted monitors
    rng = random.Random(39)
    pairs = [
        (YES, t("a.yes + b.yes")),
        (t("x + no"), t("x + a.no + b.no")),
        (t("a.(yes + no) + b.(yes + no) + x"), t("yes + no")),
    ]
    pairs.extend(
        (random_open_monitor(rng, AB, 3), random_open_monitor(rng, AB, 3))
        for _ in range(200)
    )
    checked = 0
    for m, n in pairs:
        if not omega_equiv_open(m, n, AB) or verdict_equiv_open(m, n, AB):
            continue
        checked += 1
        for sigma in substitution_family(
            vars_of(m) | vars_of(n), AB, 2, cap=64
        ):
            sm, sn = apply_subst(sigma, m), apply_subst(sigma, n)
            bound = max(depth(sm), depth(sn))
            diff = []
            frontier = [()]
            for _ in range(bound + 3):
                nxt = []
                for trace in frontier:
                    if semantics.accepts(sm, trace) != semantics.accepts(sn, trace):
                        diff.append(trace)
                    elif semantics.rejects(sm, trace) != semantics.rejects(sn, trace):
                        diff.append(trace)
                    nxt.extend(trace + (c,) for c in ("a", "b"))
                frontier = nxt
            assert all(len(s) <= bound for s in diff)
        if checked >= 5:
            break
    assert checked >= 3


def test_fresh_substitution_uses_disjoint_actions():
    m = t("x + a.y")
    sigma = equivalence.fresh_substitution(m, t("b.x"))
    assert set(sigma) == {"x", "y"}
    for v, image in sigma.items():
        action = image.action
        assert action not in ("a", "b")
        assert image.body == Sum(YES, NO)
    actions = {image.action for image in sigma.values()}
    assert len(actions) == 2


# ---------------------------------------------------------------------------
# decide: the one entry point


def _cone(m, trace, verdict, actions):
    """Whether every infinite extension of ``trace`` reaches ``verdict``."""

    def all_reach(state, fuel):
        if verdict in state:
            return True
        if not state or fuel == 0:
            return False
        return all(all_reach(semantics.step_state(state, a), fuel - 1) for a in actions)

    return all_reach(semantics.weak_reach(m, trace), depth(m) + 1)


def _replays(m, n, cex, mode, alphabet):
    """Whether ``cex`` separates ``m`` and ``n`` on its side, through
    ``accepts``/``rejects`` (or their omega cones for an omega counterexample
    over a finite alphabet) under its substitution."""
    sigma = dict(cex.substitution)
    lhs, rhs = apply_subst(sigma, m), apply_subst(sigma, n)
    accept = cex.side.startswith("Accepted")
    if mode == OMEGA and alphabet.is_finite:
        verdict, actions = (YES if accept else NO), alphabet.sorted_actions()
        got = tuple(_cone(side, cex.trace, verdict, actions) for side in (lhs, rhs))
    else:
        probe = semantics.accepts if accept else semantics.rejects
        got = (probe(lhs, cex.trace), probe(rhs, cex.trace))
    left = cex.side.endswith("Left")
    return got == (left, not left)


@pytest.mark.parametrize("mode", [VERDICT, OMEGA])
@pytest.mark.parametrize("alphabet", [AB, A, INF], ids=["ab", "a", "infinite"])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_decide_agrees_with_its_procedure_and_counterexamples_replay(
    mode, alphabet, closed
):
    rng = random.Random(f"{mode} {alphabet} {closed}")
    gen = random_closed_monitor if closed else random_open_monitor
    source = alphabet if alphabet.is_finite else AB
    for i in range(30):
        m = gen(rng, source, 3)
        n = m if i % 5 == 0 else gen(rng, source, 3)
        decision = decide(m, n, alphabet, mode)
        if closed:
            procedure = verdict_equiv_closed if mode == VERDICT else omega_equiv_closed
        else:
            procedure = verdict_equiv_open if mode == VERDICT else omega_equiv_open
        assert decision.equal == procedure(m, n, alphabet)
        cex = decision.counterexample
        if decision.equal:
            assert cex is None
        elif closed:
            assert cex is not None and cex.substitution == ()
        if cex is not None:
            assert _replays(m, n, cex, mode, alphabet), (m, n, cex)


def test_decide_open_pair_over_open_ended_alphabet_has_no_counterexample():
    m, n = Var("x"), t("x + a.x")
    for mode in (VERDICT, OMEGA):
        decision = decide(m, n, INF, mode)
        assert not decision.equal
        assert decision.counterexample is None


@pytest.mark.parametrize("mode", ["Verdict", "bogus", "", "OMEGA"])
def test_unknown_mode_is_rejected_by_every_entry_point(mode):
    from regmon.axioms import soundness_fuzz

    closed = (YES, parse_monitor("a.yes + b.yes", AB))
    opened = (parse_monitor("x", AB), parse_monitor("x + a.x", AB))
    calls = [
        lambda: decide(*closed, AB, mode),
        lambda: decide(*opened, AB, mode),
        lambda: decide(*opened, INF, mode),
        lambda: equivalence.closed_search(*closed, AB, mode),
        lambda: equivalence.open_form(mode, AB),
        lambda: equivalence.open_form(mode, INF),
        lambda: soundness_fuzz(instantiate("Y_w", {}, AB), AB, mode, 3),
        lambda: soundness_fuzz(instantiate("Y_w", {}, AB), AB, mode, 0),
        lambda: oracle_counterexample(*opened, AB, mode, bound=2),
        lambda: oracle_equiv_open(*opened, AB, mode, bound=2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^unknown mode .*: expected 'verdict' or 'omega'$"):
            call()

