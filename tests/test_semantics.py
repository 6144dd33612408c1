import gc
import random
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings

from conftest import AB, A, INF, closed_monitors
from regmon import equivalence
from regmon.generate import random_closed_monitor, random_open_monitor
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
    NO,
    YES,
    Alphabet,
    NonClosedInput,
    Prefix,
    Sum,
    Var,
    depth,
    is_verdict,
    nodes,
    summands,
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


def test_tau_closure_of_a_monitor_is_its_initial_state():
    rng = random.Random(17)
    for _ in range(200):
        m = random_closed_monitor(rng, AB, 4)
        assert semantics.tau_closure({m}) == initial_state(m)


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


def test_a_pair_explores_the_actions_of_its_sum():
    # The product search picks its actions without building the sum node.
    rng = random.Random(17)
    for alphabet in (A, AB, INF):
        draw_over = AB if alphabet is INF else alphabet
        for _ in range(40):
            m, n = (random_closed_monitor(rng, draw_over, 3) for _ in "mn")
            assert semantics._exploration_actions((m, n), alphabet) == (
                semantics.exploration_actions(Sum(m, n), alphabet)
            )


def test_initial_state_closes_taus():
    assert initial_state(t("yes + a.no")) == {t("yes + a.no"), YES}


# ---------------------------------------------------------------------------
# Weak steps are memoised on the term nodes.


def _old_closure(states):
    """Silent closure as a fixpoint of strong silent steps."""
    closed = set(states)
    while True:
        more = {s for m in closed for s in strong_steps(m, TAU)} - closed
        if not more:
            return frozenset(closed)
        closed |= more


def _old_step(state, action):
    """The definition before the memo: ``tau_closure`` of the union of the
    members' strong steps."""
    return _old_closure(set().union(*(strong_steps(m, action) for m in state)))


def _reachable_steps(m, actions):
    """Every ``(state, action) -> step_state(state, action)`` reachable from
    ``m``; a state repeats once only verdicts are left, so this ends."""
    start = initial_state(m)
    steps = {}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for a in actions:
            if (state, a) not in steps:
                nxt = steps[state, a] = semantics.step_state(state, a)
                frontier.append(nxt)
    return start, steps


def _samples(seed, count):
    """Random closed terms with the actions to step them by: over {a}, over
    {a,b}, and over the open-ended alphabet (occurring actions plus a fresh
    one)."""
    rng = random.Random(seed)
    for i in range(count):
        alphabet = (A, AB, INF)[i % 3]
        m = random_closed_monitor(rng, AB if alphabet is INF else alphabet, rng.randint(2, 6))
        yield m, semantics.exploration_actions(m, alphabet)


def _check_old_definition(m, actions) -> int:
    """Check every step reachable from ``m`` against the old definition;
    return the number of steps checked."""
    start, steps = _reachable_steps(m, actions)
    assert start == _old_closure({m})
    for (state, a), nxt in steps.items():
        assert nxt == _old_step(state, a)
        assert semantics.step_state(state, a) == nxt  # memo hit
    return len(steps)


def test_step_state_and_initial_state_match_the_old_definition():
    terms = states = 0
    for m, actions in _samples(31, 600):
        states += _check_old_definition(m, actions)
        terms += 1
    assert terms == 600 and states > 5 * terms
    # An action that no summand carries, here the fresh action of the
    # open-ended alphabet, reads the node's own verdict summands ``V``.
    m = t("yes + a.(no + b.end) + b.(a.yes + end)")
    actions = semantics.exploration_actions(m, INF)
    assert _check_old_definition(m, actions) > 10
    for node in nodes(m):
        assert semantics._weak_step(node, actions[-1]) is node._steps[0]
    # A chain 10^4 deep over {a,b}: each node's memo takes at most 128 bytes.
    chain = YES
    for i in range(10**4):
        chain = Prefix("ab"[i % 2], chain)
    tracemalloc.start()
    try:
        assert _check_old_definition(chain, ["a", "b"]) == 2 * 10**4 + 4
        gc.collect()
        memo = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert memo <= 128 * 10**4


def _closing_by_summands(monitors, substitution):
    """``closing`` as it was when it walked every summand of each open node,
    closed subterms too."""
    table = {}
    stack = [m for m in monitors if not m.closed]
    while stack:
        t = stack.pop()
        if t in table:
            continue
        images = []
        for p in summands(t):
            if isinstance(p, Var):
                image = substitution.get(p.name)
                if image is None or not image.closed:
                    return None
                images.append(image)
            elif isinstance(p, Prefix) and not p.body.closed:
                stack.append(p.body)
        table[t] = tuple(images)
    return table


def test_closing_skips_closed_subterms_and_builds_the_same_table():
    # The same keys in the same order, each with its images in the same
    # order; and None where a variable is unmapped or mapped to an open term.
    rng = random.Random(59)
    answers, entries = [0, 0], 0
    for i in range(900):
        alphabet = (A, AB)[i % 2]
        m, n = (random_open_monitor(rng, alphabet, rng.randint(2, 5)) for _ in "mn")
        sigma = {v: random_closed_monitor(rng, alphabet, 3) for v in ("x", "y")}
        if i % 3 == 1:
            del sigma[rng.choice(("x", "y"))]
        elif i % 3 == 2:
            sigma[rng.choice(("x", "y"))] = random_open_monitor(rng, alphabet, 2)
        got = semantics.closing((m, n), sigma)
        want = _closing_by_summands((m, n), sigma)
        assert (got is None) == (want is None), (m, n, sigma)
        if got is not None:
            assert list(got.items()) == list(want.items()), (m, n, sigma)
            entries += len(got)
        answers[got is None] += 1
    assert all(k >= 200 for k in answers) and entries > answers[0], (answers, entries)


def test_threads_stepping_the_same_terms_get_the_same_sets():
    threads_n = 6
    for r in range(4):
        # actions no other test uses, so every memo starts empty
        actions = [f"race_{r}_a", f"race_{r}_b"]
        alphabet = Alphabet.finite(actions)
        rng = random.Random(r)
        terms = [random_closed_monitor(rng, alphabet, 5) for _ in range(60)]
        results = [None] * threads_n
        barrier = threading.Barrier(threads_n)

        def run(k):
            barrier.wait()
            results[k] = [_reachable_steps(m, actions) for m in terms]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        for m, (start, steps) in zip(terms, results[0]):
            assert start == _old_closure({m})
            assert all(nxt == _old_step(state, a) for (state, a), nxt in steps.items())
        assert all(other == results[0] for other in results[1:])


def test_a_stepped_term_is_freed_once_unreferenced():
    # A term that no other test builds: only this test can hold it.
    alphabet = Alphabet.finite(["freed_a", "freed_b"])
    m = Sum(Prefix("freed_a", Sum(YES, Prefix("freed_b", NO))), Prefix("freed_b", YES))
    n = Sum(Prefix("freed_a", YES), Prefix("freed_b", YES))
    for mode in (equivalence.VERDICT, equivalence.OMEGA):
        assert not equivalence.decide(m, n, alphabet, mode).equal
    assert lang_of(m, alphabet).reject_min == {("freed_a", "freed_b")}
    refs = [weakref.ref(m), weakref.ref(n), weakref.ref(m.left.body)]
    del m, n
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
