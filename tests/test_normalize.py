import random

import pytest

from conftest import AB, A
from regmon import equivalence, normalize, prooflog, semantics
from regmon.axioms import bar_k, witness_family
from regmon.generate import random_closed_monitor, random_open_monitor
from regmon.normalize import (
    AlphabetTooSmall,
    covering_k,
    finite_act_rnf,
    is_normal_form,
    is_reduced_nf,
    normal_form_closed,
    omega_nf_closed,
    omega_open_nf,
    open_nf,
    open_rnf,
    reduced_nf_closed,
    unary_omega_nf,
    unary_rnf,
)
from regmon.prooflog import Reflexivity
from regmon.syntax import parse_monitor, print_monitor
from regmon.terms import (
    END,
    NO,
    YES,
    Equation,
    NonClosedInput,
    Prefix,
    Sum,
    ac_equal,
    ac_normalize,
    contains_verdict,
    depth,
)

YN = Sum(YES, NO)


def t(text, alphabet=AB):
    return parse_monitor(text, alphabet)


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
# deep ``x`` through O2; open-omega-nf folds the full fan into ``yes``.
@pytest.mark.parametrize(
    "pipeline, source, loop",
    [
        (finite_act_rnf, "yes + x + a.(x + a.no + b.no) + b.no", "finite_act_rnf"),
        (omega_open_nf, "x + a.yes + b.yes", "omega_open_nf"),
    ],
)
def test_fuel_exhaustion_raises_internal_error(monkeypatch, pipeline, source, loop):
    m = parse_monitor(source, AB)
    assert pipeline(m, AB).term != m  # converges within the real bound
    monkeypatch.setattr(normalize, "_FUEL", 1)
    with pytest.raises(normalize.InternalError, match=f"^{loop} failed to stabilize$"):
        pipeline(m, AB)
