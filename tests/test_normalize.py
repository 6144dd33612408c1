import gc
import importlib.util
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

import test_golden
from conftest import AB, INF, A
from regmon import axioms, cli, equivalence, normalize, prooflog, semantics
from regmon.axioms import bar_k, witness_family
from regmon.generate import random_closed_monitor, random_open_monitor
from regmon.normalize import (
    AlphabetTooSmall,
    _decompose,
    _parts,
    covering_k,
    finite_act_rnf,
    normal_form_closed,
    omega_nf_closed,
    omega_open_nf,
    open_nf,
    open_rnf,
    reduced_nf_closed,
    unary_omega_nf,
    unary_rnf,
)
from regmon.prooflog import CongruenceSum, Context, Reflexivity, Symmetry, Transitivity
from regmon.syntax import parse_monitor, print_monitor
from regmon.terms import (
    END,
    NO,
    YES,
    Equation,
    NonClosedInput,
    Prefix,
    Sum,
    Var,
    ac_equal,
    ac_normalize,
    contains_verdict,
    depth,
)

YN = Sum(YES, NO)


def t(text, alphabet=AB):
    return parse_monitor(text, alphabet)


# Structural form predicates


def is_normal_form(t, allow_vars=True):
    if t == END:
        return True
    has_yes = has_no = False
    seen_actions = set()
    for p in _parts(t):
        if p == YES:
            if has_yes:
                return False
            has_yes = True
        elif p == NO:
            if has_no:
                return False
            has_no = True
        elif isinstance(p, Prefix):
            if p.action in seen_actions or p.body == END:
                return False
            seen_actions.add(p.action)
            if not is_normal_form(p.body, allow_vars):
                return False
        elif isinstance(p, Var):
            if not allow_vars:
                return False
        else:
            return False
    return True


def is_reduced_nf(t, allow_vars=True):
    if not is_normal_form(t, allow_vars):
        return False
    has_yes, has_no, acts = _decompose(t)
    if has_yes and has_no:
        return not acts and not any(isinstance(p, Var) for p in _parts(t))
    for v, flag in ((YES, has_yes), (NO, has_no)):
        if flag and any(contains_verdict(b, v) for b in acts.values()):
            return False
    return all(is_reduced_nf(b, allow_vars) for b in acts.values())


# -- normal form -------------------------------------------------------------


def test_nf_kills_end_prefix():
    assert normal_form_closed(t("a.end")).term == END


def test_nf_verdict_is_itself():
    assert normal_form_closed(YES).term == YES


def test_nf_rejects_open_terms():
    with pytest.raises(NonClosedInput):
        normal_form_closed(t("a.x"))


def test_nf_merges_actions():
    got = normal_form_closed(t("a.yes + a.no + b.yes")).term
    assert got == ac_normalize(t("a.(yes + no) + b.yes"))


def test_nf_depth_non_increasing_and_shape():
    rng = random.Random(41)
    for _ in range(500):
        m = random_closed_monitor(rng, AB, 4)
        out = normal_form_closed(m).term
        assert depth(out) <= depth(m)
        assert is_normal_form(out, allow_vars=False)
        assert equivalence.verdict_equiv_closed(m, out, AB)


def test_open_nf_keeps_prefix_bodies():
    m = t("a.(x + y)")
    assert open_nf(m).term == ac_normalize(m)


def test_open_nf_examples():
    assert open_nf(t("x + a.end")).term == t("x")
    assert open_nf(t("(x + x) + end")).term == t("x")


def test_open_nf_depth_and_shape():
    rng = random.Random(43)
    for _ in range(300):
        m = random_open_monitor(rng, AB, 4)
        out = open_nf(m).term
        assert depth(out) <= depth(m)
        assert is_normal_form(out)
        assert equivalence.oracle_equiv_open(m, out, AB, bound=depth(m) + 2, cap=128)


# -- closed reduced normal form ----------------------------------------------


def test_rnf_absorbs_redundant_chain():
    assert reduced_nf_closed(t("yes + a.a.a.yes")).term == YES


def test_rnf_strips_contained_yes():
    # expected value computed with the verdict-equivalence oracle: the
    # reachable yes under the no flag is redundant but the branch remains
    m = t("no + a.(yes + b.yes)")
    got = reduced_nf_closed(m).term
    assert got == t("no + a.yes")
    assert equivalence.verdict_equiv_closed(m, got, AB)


def test_rnf_double_verdict_empties_actions():
    assert reduced_nf_closed(t("yes + no + a.yes")).term == YN


def test_rnf_is_reduced_and_unique_per_class():
    rng = random.Random(45)
    for _ in range(400):
        m = random_closed_monitor(rng, AB, 4)
        out = reduced_nf_closed(m).term
        assert is_reduced_nf(out, allow_vars=False)
        assert equivalence.verdict_equiv_closed(m, out, AB)


def test_rnf_matches_antichain_trie():
    # independent reconstruction: the reduced normal form of a closed term
    # is the trie of its minimal accepted/rejected traces
    def trie(acc, rej):
        parts = []
        if () in acc:
            parts.append(YES)
        if () in rej:
            parts.append(NO)
        for a in sorted({s[0] for s in acc | rej if s}):
            sub_acc = frozenset(s[1:] for s in acc if s and s[0] == a)
            sub_rej = frozenset(s[1:] for s in rej if s and s[0] == a)
            parts.append(Prefix(a, trie(sub_acc, sub_rej)))
        from regmon.terms import sort_key, sum_of

        return sum_of(sorted(parts, key=sort_key))

    rng = random.Random(47)
    for _ in range(300):
        m = random_closed_monitor(rng, AB, 4)
        lang = semantics.lang_of(m, AB)
        assert reduced_nf_closed(m).term == ac_normalize(
            trie(lang.accept_min, lang.reject_min)
        )


def test_only_end_lacks_verdicts():
    rng = random.Random(49)
    for _ in range(300):
        m = random_closed_monitor(rng, AB, 4)
        out = reduced_nf_closed(m).term
        if not contains_verdict(out, YES) and not contains_verdict(out, NO):
            assert out == END


# -- closed omega form ---------------------------------------------------------


def test_omega_folds_full_fan():
    assert omega_nf_closed(t("a.yes + b.yes"), AB).term == YES


def test_omega_two_rounds():
    m = t("a.(a.no + b.no) + b.no")
    got = omega_nf_closed(m, AB).term
    assert got == NO
    assert equivalence.omega_equiv_closed(m, got, AB)


def test_omega_partial_fan_stays():
    assert omega_nf_closed(t("a.yes"), AB).term == t("a.yes")


def test_omega_partial_fold_with_residue():
    # a.yes + b.(yes + a.a.no) shares its omega-cones with yes + b.a.a.no
    m1 = t("a.yes + b.(yes + a.a.no)")
    m2 = t("yes + b.a.a.no")
    assert omega_nf_closed(m1, AB).term == omega_nf_closed(m2, AB).term
    assert equivalence.omega_equiv_closed(m1, m2, AB)


def test_omega_completeness_sample():
    rng = random.Random(51)
    for _ in range(300):
        m = random_closed_monitor(rng, AB, 4)
        n = random_closed_monitor(rng, AB, 4)
        sem = equivalence.omega_equiv_closed(m, n, AB)
        syn = omega_nf_closed(m, AB).term == omega_nf_closed(n, AB).term
        assert sem == syn, (print_monitor(m), print_monitor(n))


# -- open reduced normal form ---------------------------------------------------


def test_open_rnf_section4_derivation_example():
    m = t("x + yes + a.b.(no + b.a.x)")
    got = open_rnf(m).term
    assert got == ac_normalize(t("x + yes + a.b.no"))


def test_open_rnf_double_verdict_absorbs_everything():
    assert open_rnf(t("yes + no + a.a.no + x")).term == YN


def test_open_rnf_closed_input_matches_rnf():
    rng = random.Random(53)
    for _ in range(200):
        m = random_closed_monitor(rng, AB, 4)
        assert ac_equal(open_rnf(m).term, reduced_nf_closed(m).term)


def test_open_rnf_sound_per_oracle():
    rng = random.Random(55)
    for _ in range(150):
        m = random_open_monitor(rng, AB, 3)
        out = open_rnf(m).term
        assert equivalence.oracle_equiv_open(m, out, AB, bound=depth(m) + 2, cap=128)


# -- covering k and the finite-action form ---------------------------------------


def test_covering_k_on_guard_plus_var():
    guard = bar_k(("a",), 3, YN, AB)
    m = ac_normalize(Sum(Sum(t("x"), t("a.x")), guard))
    assert covering_k(m, ("a",), AB) == 3


def test_covering_k_absent_for_bare_variable():
    assert covering_k(t("x + a.x"), ("a",), AB) is None


def test_covering_k_trivial_for_double_verdict():
    assert covering_k(YN, ("a",), AB) == 1


def test_fin_rnf_reduces_witness_lhs():
    for n in (1, 2):
        eq = witness_family(n, AB)
        lhs = finite_act_rnf(eq.lhs, AB).term
        rhs = finite_act_rnf(eq.rhs, AB).term
        assert lhs == rhs


def test_fin_rnf_keeps_unsound_unary_absorption():
    m = t("x + a.x")
    assert finite_act_rnf(m, AB).term == ac_normalize(m)


def test_fin_rnf_closed_matches_rnf():
    rng = random.Random(57)
    for _ in range(150):
        m = random_closed_monitor(rng, AB, 4)
        assert ac_equal(finite_act_rnf(m, AB).term, reduced_nf_closed(m).term)


def test_fin_rnf_needs_two_actions():
    with pytest.raises(AlphabetTooSmall):
        finite_act_rnf(t("x", A), A)


def test_forms_table_is_the_one_source_of_the_pipelines():
    import pickle

    import regmon

    assert list(normalize.PIPELINES) == list(normalize.FORMS)
    assert cli.FORM_ALIASES == {f.option: kind for kind, f in normalize.FORMS.items()}
    assert sorted(CONTRACT_OUTCOMES) == sorted(f.name for f in normalize.FORMS.values())
    for kind, form in normalize.FORMS.items():
        pipeline = normalize.PIPELINES[kind]
        assert getattr(normalize, form.name) is pipeline
        assert getattr(regmon, form.name) is pipeline
        assert pipeline.__name__ == form.name
        assert pickle.loads(pickle.dumps(pipeline)) is pipeline
        alphabet = A if form.option.startswith("unary") else AB
        assert pipeline(YES, alphabet).form_kind == kind


# Inputs outside some form's contract, and what each pipeline makes of them.
# "outside" pins that the actions are checked before the alphabet's size,
# and "open outside" that the closed forms check closedness before both.
CONTRACT_INPUTS = {
    "open": ("x + a.yes", AB),
    "open-ended": ("a.yes", INF),
    "one action": ("a.yes", A),
    "outside": ("b.yes", A),
    "no alphabet": ("yes + no", None),
    "open outside": ("x + b.yes", A),
}
_OPEN = (NonClosedInput, "{} requires a closed monitor; free variables: x")
_OUTSIDE = (ValueError, "monitor uses actions outside the alphabet: ['b']")
_FINITE = (ValueError, "{} needs a finite alphabet")
_TWO = (AlphabetTooSmall, "{} needs a finite alphabet with >= 2 actions")
_ONE = (ValueError, "{} needs a one-action alphabet")
# Per pipeline, in the order of CONTRACT_INPUTS: None for a result, else the
# exception class and message ("{}" is the pipeline's name).
CONTRACT_OUTCOMES = {
    "normal_form_closed": (_OPEN, None, None, _OUTSIDE, None, _OPEN),
    "reduced_nf_closed": (_OPEN, None, None, _OUTSIDE, None, _OPEN),
    "omega_nf_closed": (_OPEN, _FINITE, None, _OUTSIDE, _FINITE, _OPEN),
    "open_nf": (None, None, None, _OUTSIDE, None, _OUTSIDE),
    "open_rnf": (None, None, None, _OUTSIDE, None, _OUTSIDE),
    "finite_act_rnf": (None, _TWO, _TWO, _OUTSIDE, _TWO, _OUTSIDE),
    "unary_rnf": (_ONE, _ONE, None, _OUTSIDE, _ONE, _OUTSIDE),
    "unary_omega_nf": (_ONE, _ONE, None, _OUTSIDE, _ONE, _OUTSIDE),
    "omega_open_nf": (None, _TWO, _TWO, _OUTSIDE, _TWO, _OUTSIDE),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_OUTCOMES))
@pytest.mark.parametrize("case", list(CONTRACT_INPUTS))
def test_pipeline_input_contract(name, case):
    pipeline = getattr(normalize, name)
    assert pipeline in normalize.PIPELINES.values()
    text, alphabet = CONTRACT_INPUTS[case]
    m = parse_monitor(text, AB)
    expected = CONTRACT_OUTCOMES[name][list(CONTRACT_INPUTS).index(case)]
    if expected is None:
        for emit_proof in (False, True):
            cf = pipeline(m, alphabet, emit_proof=emit_proof)
            assert cf.term == pipeline(cf.term, alphabet).term
        return
    error, message = expected
    with pytest.raises(error) as caught:
        pipeline(m, alphabet)
    assert type(caught.value) is error
    assert str(caught.value) == message.format(name)


# -- unary forms ------------------------------------------------------------------


def test_unary_rnf_absorbs_self_loop():
    assert unary_rnf(t("x + a.x", A), A).term == t("x", A)


def test_unary_rnf_keeps_shorter_occurrence():
    got = unary_rnf(t("x + a.a.x + a.no", A), A).term
    assert got == ac_normalize(t("x + a.no", A))


def test_unary_rnf_epsilon_occurrence_wins():
    got = unary_rnf(t("yes + a.x + x", A), A).term
    assert got == ac_normalize(t("yes + x", A))


def test_unary_omega_strips_prefixes():
    assert unary_omega_nf(t("a.a.yes", A), A).term == YES
    assert unary_omega_nf(t("a.x + no", A), A).term == ac_normalize(t("x + no", A))
    assert unary_omega_nf(t("a.yes + no + x", A), A).term == YN


def test_unary_omega_only_four_closed_classes():
    rng = random.Random(59)
    seen = set()
    for _ in range(200):
        m = random_closed_monitor(rng, A, 4)
        seen.add(unary_omega_nf(m, A).term)
    assert seen <= {END, YES, NO, YN}


# -- open omega form ---------------------------------------------------------------


def test_omega_open_full_fan_with_variable():
    m = t("a.(yes+no) + b.(yes+no) + x")
    assert omega_open_nf(m, AB).term == YN


def test_omega_open_yes_plus_no_fan():
    m = t("yes + a.no + b.no + x")
    assert omega_open_nf(m, AB).term == YN


def test_omega_open_partial_fan_stays():
    m = t("a.yes + x")
    assert omega_open_nf(m, AB).term == ac_normalize(m)


def test_open_pipelines_sound_per_oracle():
    rng = random.Random(65)
    for _ in range(60):
        m = random_open_monitor(rng, AB, 3)
        bound = depth(m) + 2
        out = finite_act_rnf(m, AB).term
        assert equivalence.oracle_equiv_open(m, out, AB, "verdict", bound, cap=128)
        out_w = omega_open_nf(m, AB).term
        assert equivalence.oracle_equiv_open(m, out_w, AB, "omega", bound, cap=128)
        mu = random_open_monitor(rng, A, 3)
        bound_u = depth(mu) + 2
        out_u = unary_rnf(mu, A).term
        assert equivalence.oracle_equiv_open(mu, out_u, A, "verdict", bound_u, cap=128)
        out_uw = unary_omega_nf(mu, A).term
        assert equivalence.oracle_equiv_open(mu, out_uw, A, "omega", bound_u, cap=128)


# -- cross-pipeline properties -------------------------------------------------------


ALL_PIPELINES = [
    (normal_form_closed, "closed", AB),
    (reduced_nf_closed, "closed", AB),
    (omega_nf_closed, "closed", AB),
    (open_nf, "open", AB),
    (open_rnf, "open", AB),
    (finite_act_rnf, "open", AB),
    (unary_rnf, "open-unary", A),
    (unary_omega_nf, "open-unary", A),
    (omega_open_nf, "open", AB),
]


def test_pipelines_idempotent_with_refl_derivation():
    rng = random.Random(61)
    for _ in range(25):
        inputs = {
            "closed": random_closed_monitor(rng, AB, 3),
            "open": random_open_monitor(rng, AB, 3),
            "open-unary": random_open_monitor(rng, A, 3),
        }
        for fn, kind, alphabet in ALL_PIPELINES:
            out = fn(inputs[kind], alphabet).term
            again = fn(out, alphabet, emit_proof=True)
            assert again.term == out
            steps = again.derivation.steps
            assert len(steps) == 1 and isinstance(steps[0].justification, Reflexivity)


def test_every_emitted_derivation_checks():
    rng = random.Random(63)
    for _ in range(25):
        inputs = {
            "closed": random_closed_monitor(rng, AB, 3),
            "open": random_open_monitor(rng, AB, 3),
            "open-unary": random_open_monitor(rng, A, 3),
        }
        for fn, kind, alphabet in ALL_PIPELINES:
            m = inputs[kind]
            cf = fn(m, alphabet, emit_proof=True)
            prooflog.check_derivation(cf.derivation, Equation(m, cf.term))


def _perfbench_gen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _agreement_cases():
    """Per pipeline, the digest corpus of its form, then perfbench-style
    sized terms: 100 closed, 100 open and 100 unary open ones, 8-60 nodes."""
    sized_term = _perfbench_gen().sized_term
    rng = random.Random(1107)
    drawn = {
        kind: [
            sized_term(rng, rng.randint(8, 60), rng.randint(3, 8), actions, pool)
            for _ in range(100)
        ]
        for kind, actions, pool in (
            ("closed", ("a", "b"), ()),
            ("open", ("a", "b"), ("x", "y")),
            ("open-unary", ("a",), ("x", "y")),
        )
    }
    forms = {normalize.PIPELINES[name]: form for form, name in cli.FORM_ALIASES.items()}
    for fn, kind, alphabet in ALL_PIPELINES:
        corpus_alphabet, corpus = test_golden.digest_corpus(forms[fn])
        yield fn, corpus_alphabet, corpus
        yield fn, alphabet, drawn[kind]


def _cited(just) -> tuple[int, ...]:
    match just:
        case Transitivity(sids):
            return sids
        case CongruenceSum(left, right):
            return (left, right)
        case Symmetry(of) | Context(of):
            return (of,)
    return ()


def _check_compact(steps) -> None:
    """Each equation is stated once (the last step may restate it), no step
    is ``refl`` but the only one, a context step cites no context step, and
    a chain cites another chain only if that one is cited again elsewhere."""
    stated = {step.equation for step in steps[:-1]}
    assert len(stated) == len(steps) - 1 and steps[-1].sid == len(steps)
    if len(steps) > 1:
        assert not any(isinstance(s.justification, Reflexivity) for s in steps)
    rule = {s.sid: type(s.justification) for s in steps}
    uses = Counter(k for s in steps for k in _cited(s.justification))
    for s in steps[:-1] if steps[-1].equation in stated else steps:
        if isinstance(s.justification, Context):
            assert rule[s.justification.of] is not Context
        if isinstance(s.justification, Transitivity):
            assert all(rule[k] is not Transitivity or uses[k] > 1 for k in s.justification.steps)


def test_pure_and_recorded_pipelines_agree():
    # Pure runs do their AC bookkeeping as list operations and recorded runs
    # as A1-A4 steps, so the two no longer share one code path.  Each
    # derivation also ends with m = NF(m) and is compact (_check_compact).
    runs = 0
    for fn, alphabet, terms in _agreement_cases():
        for m in terms:
            cf = fn(m, alphabet, emit_proof=True)
            assert fn(m, alphabet).term == cf.term, (fn.__name__, m)
            assert cf.derivation.steps[-1].equation == Equation(m, cf.term)
            _check_compact(cf.derivation.steps)
            runs += 1
    # 55 corpus terms per form, and 3, 4 and 2 pipelines on 100 terms each.
    assert runs >= 9 * 55 + 900


@pytest.mark.parametrize(
    "text",
    [
        "yes + (no + (a.yes + b.no))",
        "(yes + no) + (a.yes + (b.no + end))",
        "a.yes + (b.(yes + (no + a.no)) + (end + no)) + yes",
        "(a.yes + (x + no)) + ((y + b.x) + (a.(x + (y + no)) + yes))",
    ],
)
def test_pure_flatten_leaves_no_sum_as_a_right_child(text):
    # A pure flatten is a list operation and a recorded one a chain of A2
    # steps: both give the same left-nested sum, with prefix bodies as given.
    m = t(text)
    pure = normalize.Prover("Ev", AB, record=False).flatten(m)
    recorded = normalize.Prover("Ev", AB, record=True).flatten(m)
    assert pure.src is m and pure.dst is recorded.dst
    node = pure.dst
    while isinstance(node, Sum):
        assert not isinstance(node.right, Sum), text
        node = node.left


def _held_by_no_one(kind: str):
    """A term that no other test builds: a 29-deep ``b.a`` chain beside a
    variable of its own, or over the one action ``a`` of the unary forms."""
    actions = "a" if kind == "open-unary" else "ba"
    m = YES
    for i in range(29):
        m = Prefix(actions[i % len(actions)], m)
    if kind == "closed":
        return Sum(Prefix("a", NO), m)
    x = Var("held_by_no_one")
    return Sum(x, Prefix("a", Sum(x, m)))


def test_no_memo_keeps_a_term_alive_past_a_pipeline():
    # The per-Prover memos die with their Prover, and the node memos
    # (``_steps``, ``_key``) hold no parent of their node.
    for fn, kind, alphabet in ALL_PIPELINES:
        for emit in (False, True):
            m = _held_by_no_one(kind)
            ref = weakref.ref(m)
            cf = fn(m, alphabet, emit_proof=emit)
            assert (cf.derivation is not None) == emit
            del m, cf
            gc.collect()
            assert ref() is None, (fn.__name__, emit)


def test_conclusion_stated_before_is_restated_last():
    pv = normalize.Prover("Ev", AB, record=True)
    pf = pv.ax("A1", subst={"x": YES, "y": NO})
    pv.ax("A1", subst={"x": NO, "y": YES})
    cf = normalize._finish(pv, pf.src, pf, normalize.NF, True)
    assert [s.justification for s in cf.derivation.steps[2:]] == [Context(1)]
    prooflog.check_derivation(cf.derivation, Equation(Sum(YES, NO), Sum(NO, YES)))


def test_derivation_systems_match_pipelines():
    m = t("x + yes + a.b.(no + b.a.x)")
    assert open_rnf(m, AB, emit_proof=True).derivation.system == "Ev'"
    assert finite_act_rnf(m, AB, emit_proof=True).derivation.system == "Evf'"
    mu = t("x + a.x", A)
    assert unary_rnf(mu, A, emit_proof=True).derivation.system == "Ev1'"
    assert unary_omega_nf(mu, A, emit_proof=True).derivation.system == "Eomega1'"
    assert omega_open_nf(m, AB, emit_proof=True).derivation.system == "Eomegaf'"
    mc = t("a.end")
    assert normal_form_closed(mc, AB, emit_proof=True).derivation.system == "Ev"
    assert omega_nf_closed(mc, AB, emit_proof=True).derivation.system == "Eomega"


# Terms whose fixpoint loops need a second round: fin-rnf eliminates the
# deep ``x`` through O2; open-omega-nf folds the full fan into ``yes``;
# unary-rnf absorbs the deep ``x`` through V1 (over one action).
@pytest.mark.parametrize(
    "pipeline, source, loop",
    [
        (finite_act_rnf, "yes + x + a.(x + a.no + b.no) + b.no", "finite_act_rnf"),
        (omega_open_nf, "x + a.yes + b.yes", "omega_open_nf"),
        (unary_rnf, "x + a.x", "unary_rnf"),
    ],
)
def test_fuel_exhaustion_raises_internal_error(monkeypatch, pipeline, source, loop):
    alphabet = A if pipeline is unary_rnf else AB
    m = parse_monitor(source, alphabet)
    assert pipeline(m, alphabet).term != m  # converges within the real bound
    monkeypatch.setattr(normalize, "_FUEL", 1)
    with pytest.raises(normalize.InternalError, match=f"^{loop} failed to stabilize$"):
        pipeline(m, alphabet)


# The body-first walk costs two Python frames per prefix level (the rewrite
# and ``_map_bodies``), so a chain 450 prefixes deep answers at the default
# recursion limit, pure and recorded.
@pytest.mark.parametrize("emit", [False, True])
@pytest.mark.parametrize(
    "kind",
    [
        normalize.RNF,
        normalize.OMEGA_NF,
        normalize.OPEN_RNF,
        normalize.FIN_RNF,
        normalize.UNARY_RNF,
        normalize.OPEN_OMEGA_NF,
    ],
)
def test_reduced_forms_answer_on_a_chain_450_prefixes_deep(kind, emit):
    alphabet = A if kind == normalize.UNARY_RNF else AB
    chain = parse_monitor("a." * 450 + "yes", alphabet)
    assert normalize.PIPELINES[kind](chain, alphabet, emit_proof=emit).term == chain


# A verdict at the top that every level below must be rewritten beside: rnf
# strips its repeats, open-rnf prunes next to the opposite verdict at the
# bottom.  Each level costs two frames, the body-first walk and the rewrite
# beside the verdict, pure and recorded.
@pytest.mark.parametrize(
    "kind, source",
    [
        (normalize.RNF, "yes + " + "a.(b.no + " * 450 + "a.yes" + ")" * 450),
        (normalize.OPEN_RNF, "yes + " + "a.(x + " * 300 + "no" + ")" * 300),
    ],
    ids=["rnf-450", "open-rnf-300"],
)
def test_deep_verdict_guarded_shapes_answer_and_their_proofs_check(kind, source):
    m = t(source)
    pure = normalize.PIPELINES[kind](m, AB).term
    cf = normalize.PIPELINES[kind](m, AB, emit_proof=True)
    assert cf.term == pure != m
    prooflog.check_derivation(cf.derivation, Equation(m, pure))


def test_pruning_beside_a_verdict_does_not_realign_the_body(monkeypatch):
    # Each level of the prune once ended with an alignment of the whole
    # remaining body, 30,910 ``canon`` calls at this depth.
    calls = Counter()
    canon = normalize.Prover.canon

    def counted(self, term):
        calls["canon"] += 1
        return canon(self, term)

    monkeypatch.setattr(normalize.Prover, "canon", counted)
    m = t("yes + " + "a.(x + " * 100 + "no" + ")" * 100)
    cf = open_rnf(m, AB, emit_proof=True)
    assert calls["canon"] <= 100
    prooflog.check_derivation(cf.derivation, Equation(m, cf.term))


def _wide_sum(alphabet, leaves):
    """A left-nested sum of 1000 distinct chains, each ending in a leaf."""
    actions = alphabet.sorted_actions()
    parts = []
    for i in range(2, 1002):
        if len(actions) == 1:
            trace = actions * (i % 10)
        else:
            trace = tuple(actions[int(bit)] for bit in bin(i)[3:])
        parts.append(axioms.prefix_seq(trace, leaves[i % len(leaves)]))
    return normalize._ln(parts)


# Each level holds ``x`` again under the ``x`` of the level above, so every
# level absorbs one occurrence.  An absorption once aligned the whole term,
# 22,220 steps at this depth; on the sub-body where ``x`` is on top, each
# costs a few dozen.
def test_unary_rnf_absorbs_each_level_on_its_own_body():
    m = t("x + " + "a.(y + x + " * 50 + "yes" + ")" * 50, A)
    pure = unary_rnf(m, A).term
    cf = unary_rnf(m, A, emit_proof=True)
    assert cf.term == pure == ac_normalize(t("x + a.(y + " + "a." * 49 + "yes)", A))
    assert len(cf.derivation.steps) <= 5000
    prooflog.check_derivation(cf.derivation, Equation(m, pure))


def test_unary_omega_strips_a_wide_sum_in_one_walk(monkeypatch):
    # Stripping one prefix summand per round once re-flattened and rewrote
    # the whole sum each time: 901 ``flatten`` and 900 ``rw_part`` calls.
    calls = Counter()
    for name in ("flatten", "rw_part"):
        method = getattr(normalize.Prover, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(normalize.Prover, name, counted)
    m = _wide_sum(A, (YES, NO, Var("x")))
    assert unary_omega_nf(m, A).term == YN
    assert calls.total() < 10


# The normal form walks the left spine of a sum in a loop, so a sum far wider
# than the recursion limit answers; recorded proofs of it still recurse.
@pytest.mark.parametrize("kind", sorted(normalize.FORMS))
def test_every_pure_pipeline_answers_on_a_sum_of_1000_summands(kind):
    form = normalize.FORMS[kind]
    alphabet = A if form.needs is normalize._ONE else AB
    leaves = (YES, NO) if form.closed else (YES, NO, Var("x"))
    m = _wide_sum(alphabet, leaves)
    nf = normalize.PIPELINES[kind](m, alphabet).term
    assert normalize.PIPELINES[kind](nf, alphabet).term == nf


# Two broken invariants of the proof layer: a transitivity chain whose ends
# do not meet, and an alignment of terms that are not AC-equal; recording,
# and then with the list shortcuts of a pure run.
BROKEN_INVARIANTS = """\
from regmon import normalize
from regmon.terms import NO, YES, Alphabet
for record in (True, False):
    pv = normalize.Prover("Ev", Alphabet.finite(["a", "b"]), record=record)
    for broken in (
        lambda: pv.trans(pv.refl(YES), pv.ax("A4", subst={"x": NO})),
        lambda: pv.align(YES, NO),
    ):
        try:
            broken()
        except normalize.InternalError as err:
            print(str(err).splitlines()[0])
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_broken_invariants_raise_internal_error(optimize):
    import os
    import subprocess
    import sys

    # Under -O the first line proves that asserts are stripped.
    script = "assert False, 'asserts are live'\n" * optimize + BROKEN_INVARIANTS
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(normalize.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0,
        "broken chain:\nalign on non-AC-equal terms\n" * 2,
        "",
    )
