import random

import pytest
from hypothesis import given, settings

from conftest import AB, closed_monitors
from regmon.generate import random_closed_monitor
from regmon.semantics import (
    TAU,
    initial_state,
    lang_of,
    omega_canon,
    strong_steps,
    weak_reach,
)
from regmon import semantics
from regmon.syntax import parse_monitor, print_monitor
from regmon.terms import (
    END,
    YES,
    Alphabet,
    NonClosedInput,
    Var,
    depth,
    is_verdict,
)


def covered_by(trace, antichain):
    """Whether some member of the antichain is a prefix of ``trace``."""
    return any(trace[: len(t)] == t for t in antichain)


def t(text, alphabet=AB):
    return parse_monitor(text, alphabet)


def test_strong_steps_tau_to_verdict_summand():
    assert strong_steps(t("yes + x"), TAU) == {YES}


def test_strong_steps_verdict_self_loop_in_sum():
    # a.yes + end can do b by the end self-loop, for any other action b
    assert strong_steps(t("a.yes + end"), "b") == {END}


def test_variables_have_no_transitions():
    assert strong_steps(Var("x"), "a") == frozenset()
    assert strong_steps(Var("x"), TAU) == frozenset()


def test_tau_targets_are_verdicts():
    rng = random.Random(0)
    for _ in range(300):
        m = random_closed_monitor(rng, AB, 4)
        for succ in strong_steps(m, TAU):
            assert is_verdict(succ)


def test_weak_reach_empty_trace():
    assert weak_reach(YES, ()) == {YES}


def test_weak_reach_through_self_loop():
    # oracle: exhaustive closure using the verdict self-loop rule
    assert weak_reach(t("a.yes"), ("a", "b")) == {YES}


def test_weak_reach_choice():
    assert weak_reach(t("a.yes + b.no"), ("a",)) == {YES}


def test_accepts_basics():
    assert semantics.accepts(YES, ())
    assert not semantics.accepts(t("a.yes + b.yes"), ())
    for s in [(), ("a",), ("a", "a"), ("a", "a", "a", "a")]:
        assert semantics.accepts(t("yes + a.a.a.yes", Alphabet.finite(["a"])), s)


def test_accepts_requires_closed():
    with pytest.raises(NonClosedInput):
        semantics.accepts(Var("x"), ())


def test_lang_of_end_is_empty():
    lang = lang_of(END, AB)
    assert lang.accept_min == frozenset() and lang.reject_min == frozenset()


def test_lang_of_absorbed_summand():
    lang = lang_of(t("yes + a.a.a.yes"), AB)
    assert lang.accept_min == {()}
    assert lang.reject_min == frozenset()


def test_lang_of_two_branches():
    # oracle: exhaustive accepts/rejects over traces of length <= 1
    m = t("a.yes + b.no")
    expect_acc = set()
    expect_rej = set()
    for trace in [(), ("a",), ("b",)]:
        if semantics.accepts(m, trace):
            expect_acc.add(trace)
        if semantics.rejects(m, trace):
            expect_rej.add(trace)
    lang = lang_of(m, AB)
    assert lang.accept_min == expect_acc == {("a",)}
    assert lang.reject_min == expect_rej == {("b",)}


@given(closed_monitors(max_depth=4))
@settings(max_examples=150, deadline=None)
def test_lang_antichains_prefix_free_and_depth_bounded(m):
    lang = lang_of(m, AB)
    for chain in (lang.accept_min, lang.reject_min):
        for trace in chain:
            assert len(trace) <= depth(m)
            for other in chain:
                if other != trace:
                    assert trace[: len(other)] != other


@given(closed_monitors(max_depth=3), closed_monitors(max_depth=3))
@settings(max_examples=150, deadline=None)
def test_sum_unions_acceptance(m, n):
    # m + n accepts s iff m does or n does; same for rejection
    from regmon.terms import Sum

    both = Sum(m, n)
    # seeded from the printed terms, so a failing example replays the same traces
    rng = random.Random(f"{print_monitor(m)} | {print_monitor(n)}")
    for _ in range(12):
        trace = tuple(rng.choice(["a", "b"]) for _ in range(rng.randrange(4)))
        assert semantics.accepts(both, trace) == (
            semantics.accepts(m, trace) or semantics.accepts(n, trace)
        )
        assert semantics.rejects(both, trace) == (
            semantics.rejects(m, trace) or semantics.rejects(n, trace)
        )


def test_upward_closure():
    rng = random.Random(3)
    for _ in range(100):
        m = random_closed_monitor(rng, AB, 4)
        lang = lang_of(m, AB)
        for trace in lang.accept_min:
            ext = trace + ("b", "a")
            assert semantics.accepts(m, ext)


def test_lang_of_a_deep_chain_is_linear(step_budget):
    step_budget(2000)
    lang = lang_of(t(".".join(["a"] * 40 + ["yes"])), AB)
    assert lang.accept_min == {("a",) * 40}
    assert lang.reject_min == frozenset()


def test_omega_canon_folds_full_fan():
    # the cone of {a, b} over {a,b} is the full cone
    assert omega_canon(frozenset({("a",), ("b",)}), AB) == {()}


def test_omega_canon_fixed_point():
    assert omega_canon(frozenset({()}), AB) == {()}


def test_omega_canon_two_rounds():
    ac = frozenset({("a", "a"), ("a", "b"), ("b",)})
    got = omega_canon(ac, AB)
    assert got == {()}
    # verify by sampling long words: prefix coverage must agree
    rng = random.Random(5)
    for _ in range(200):
        word = tuple(rng.choice(["a", "b"]) for _ in range(7))
        assert covered_by(word, ac) == covered_by(word, got)


def test_omega_canon_idempotent_and_order_independent():
    rng = random.Random(9)
    for _ in range(100):
        m = random_closed_monitor(rng, AB, 4)
        ac = lang_of(m, AB).accept_min
        folded = omega_canon(ac, AB)
        assert omega_canon(folded, AB) == folded
        shuffled = list(ac)
        rng.shuffle(shuffled)
        assert omega_canon(frozenset(shuffled), AB) == folded


def test_omega_canon_preserves_cone():
    rng = random.Random(11)
    for _ in range(60):
        m = random_closed_monitor(rng, AB, 4)
        ac = lang_of(m, AB).accept_min
        folded = omega_canon(ac, AB)
        for _ in range(20):
            word = tuple(rng.choice(["a", "b"]) for _ in range(depth(m) + 5))
            assert covered_by(word, ac) == covered_by(word, folded)


def test_open_ended_exploration_uses_fresh_action():
    inf = Alphabet.open_ended()
    acts = semantics.exploration_actions(t("a.yes"), inf)
    assert "a" in acts and len(acts) == 2
    assert acts[-1] not in ("a",)


def test_initial_state_closes_taus():
    assert initial_state(t("yes + a.no")) == {t("yes + a.no"), YES}
