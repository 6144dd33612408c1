import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings

import test_golden
from conftest import AB, closed_monitors, monitors
from regmon import equivalence, terms
from regmon.equivalence import OMEGA, VERDICT, Counterexample, decide
from regmon.terms import (
    END,
    NO,
    YES,
    Alphabet,
    End,
    Prefix,
    Sum,
    Var,
    ac_equal,
    ac_normalize,
    actions_of,
    apply_subst,
    depth,
    is_closed,
    size_of,
    sort_key,
    sum_of,
    summands,
    vars_of,
)
from regmon.syntax import parse_monitor, print_monitor
from test_normalize import _perfbench_gen


def t(text, alphabet=AB):
    return parse_monitor(text, alphabet)


def test_depth_verdict():
    assert depth(END) == 0


def test_depth_max_of_verdicts():
    assert depth(t("yes + no")) == 0


def test_depth_nested():
    # direct evaluation of the recursion: max(1 + 0, 1 + (1 + 0)) = 2
    assert depth(t("a.yes + b.b.no")) == 2


def test_depth_variables_are_zero():
    assert depth(Var("x")) == 0
    assert depth(t("a.x")) == 1


def test_apply_subst_identity():
    m = t("x + a.yes")
    assert apply_subst({}, m) == m


def test_apply_subst_leaf_replacement():
    assert apply_subst({"x": NO}, t("x + yes")) == t("no + yes")


def test_apply_subst_fresh_action_probe():
    alphabet = Alphabet.finite(["a", "a_x"])
    sigma = {"x": t("a_x.(yes + no)", alphabet)}
    got = apply_subst(sigma, t("x + a.yes", alphabet))
    assert got == t("a_x.(yes + no) + a.yes", alphabet)


def test_ac_normalize_absorbs_unit_and_duplicates():
    assert list(summands(ac_normalize(t("(a.yes + end) + a.yes")))) == [t("a.yes")]


def test_ac_normalize_of_end_sums_is_end():
    assert ac_normalize(END) == END
    assert ac_normalize(t("end + (end + end)")) == END
    assert sum_of(summands(ac_normalize(END))) == END


def test_summands_flattening_matches_enumeration():
    # oracle: walk the sum tree collecting non-end leaves
    m = t("yes + (x + no)")

    def leaves(term):
        if isinstance(term, Sum):
            return leaves(term.left) + leaves(term.right)
        return [] if term == END else [term]

    assert set(summands(ac_normalize(m))) == set(leaves(m))
    assert set(summands(ac_normalize(m))) == {YES, Var("x"), NO}


def test_ac_equal_commutes():
    assert ac_equal(t("x + y"), t("y + x"))


def test_ac_equal_does_not_distribute():
    # related only by the prefix-distribution axiom, not by A1-A4
    assert not ac_equal(t("a.(x + y)"), t("a.x + a.y"))


def test_ac_equal_unit():
    m = t("a.no + yes")
    assert ac_equal(Sum(m, END), m)


def test_size_and_vars_and_closed():
    assert size_of(END) == 1
    assert vars_of(t("x + a.y")) == {"x", "y"}
    assert is_closed(t("yes + a.no"))
    assert not is_closed(t("a.x"))


@given(monitors())
@settings(max_examples=200)
def test_ac_normalize_idempotent(m):
    assert ac_normalize(ac_normalize(m)) == ac_normalize(m)


@given(monitors(), monitors(), monitors())
@settings(max_examples=100)
def test_ac_equal_equivalence_and_congruence(m, n, p):
    assert ac_equal(m, m)
    if ac_equal(m, n):
        assert ac_equal(n, m)
        assert ac_equal(Sum(m, p), Sum(n, p))
        assert ac_equal(Prefix("a", m), Prefix("a", n))
        if ac_equal(n, p):
            assert ac_equal(m, p)


@given(closed_monitors(max_depth=3), closed_monitors(max_depth=3))
@settings(max_examples=60, deadline=None)
def test_ac_equal_sound_for_verdict_equivalence(m, n):
    if ac_equal(m, n):
        assert equivalence.verdict_equiv_closed(m, n, AB)


def test_depth_bound_under_substitution():
    m = t("x + a.(y + b.x)")
    sigma = {"x": t("a.b.yes"), "y": t("no")}
    used = vars_of(m)
    bound = depth(m) + max(depth(sigma[v]) for v in used)
    assert depth(apply_subst(sigma, m)) <= bound


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet.finite([])
    with pytest.raises(ValueError):
        Alphabet.finite(["a", "a"])
    with pytest.raises(ValueError):
        Alphabet.finite(["yes"])
    assert "anything" in Alphabet.open_ended()
    assert "yes" not in Alphabet.open_ended()


def test_sum_of_drops_end():
    assert sum_of([END, YES, END]) == YES
    assert sum_of([]) == END


# ---------------------------------------------------------------------------
# Interning


def test_equal_terms_are_one_object():
    m = Prefix("a", Sum(YES, Var("x")))
    assert Prefix("a", Sum(YES, Var("x"))) is m
    assert t("a.(yes + x)") is m
    assert t("a.(yes + x) + b.no") is Sum(m, Prefix("b", NO))
    assert Var("x") is Var("x") and End() is END
    assert Sum(YES, NO) is not Sum(NO, YES)


def test_terms_are_immutable():
    m = t("a.(yes + x)")
    with pytest.raises(AttributeError):
        m.body = NO
    with pytest.raises(AttributeError):
        del m.action
    with pytest.raises(AttributeError):
        YES.closed = False
    assert m is t("a.(yes + x)")


@pytest.mark.parametrize("text", ["end", "yes", "no", "x", "a.(yes + x) + b.no"])
def test_copies_and_pickles_are_the_interned_node(text):
    m = t(text)
    assert copy.copy(m) is m
    assert copy.deepcopy(m) is m
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(m, protocol)) is m


def test_unreferenced_terms_are_freed():
    ref = weakref.ref(t("a.b.(x + unreferenced_var)"))
    gc.collect()
    assert ref() is None


def test_threads_building_one_term_get_one_object():
    threads_n, rounds = 6, 20
    results = [[] for _ in range(threads_n)]
    barrier = threading.Barrier(threads_n)

    def build(k):
        for r in range(rounds):
            barrier.wait()
            names = [f"race_{r}_{i}" for i in range(50)]
            results[k].append([Sum(Var(x), Prefix("a", Var(x))) for x in names])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    for other in results[1:]:
        assert len(other) == rounds
        for mine, theirs in zip(results[0], other):
            assert all(a is b for a, b in zip(mine, theirs))


# ---------------------------------------------------------------------------
# Depth: nothing below recurses on the nesting of a term.

DEEP = 10_000


def _chain(leaf, n=DEEP):
    m = leaf
    for _ in range(n):
        m = Prefix("a", m)
    return m


def test_a_deep_prefix_chain():
    m = _chain(Var("x"))
    assert m == _chain(Var("x")) and hash(m) == hash(_chain(Var("x")))
    assert m != _chain(Var("y"))
    assert not is_closed(m) and depth(m) == DEEP
    assert vars_of(m) == {"x"} and actions_of(m) == {"a"}
    closed = apply_subst({"x": YES}, m)
    assert closed is _chain(YES) and is_closed(closed)
    assert apply_subst({"x": NO}, closed) is closed
    text = print_monitor(m)
    assert text == "a." * DEEP + "x"
    assert t(text) is m


@pytest.mark.parametrize("mode", [VERDICT, OMEGA])
def test_decide_on_a_deep_prefix_chain(mode):
    got = decide(_chain(YES), _chain(NO), AB, mode)
    assert got.counterexample == Counterexample((), ("a",) * DEEP, "AcceptedOnlyByLeft")


def _wide(n=DEEP):
    """A left-nested sum of ``n`` summands, the last of them ``x``."""
    return sum_of([Prefix("a", YES), Prefix("b", NO)] * ((n - 1) // 2) + [Var("x")])


def test_a_sum_of_many_summands():
    m = _wide()
    assert len(list(summands(m))) == DEEP - 1
    assert m == _wide() and hash(m) == hash(_wide())
    assert m != _wide(DEEP - 2)
    assert not is_closed(m) and depth(m) == 1
    assert vars_of(m) == {"x"} and actions_of(m) == {"a", "b"}
    closed = apply_subst({"x": t("b.no")}, m)
    assert is_closed(closed) and list(summands(closed))[-1] is t("b.no")
    text = print_monitor(m)
    assert text == "a.yes + b.no + " * ((DEEP - 1) // 2) + "x"
    assert t(text) is m
    nested = Prefix("a", Sum(YES, m))
    assert print_monitor(nested) == f"a.(yes + ({text}))"


@pytest.mark.parametrize("mode, trace", [(VERDICT, ("b",)), (OMEGA, ())])
def test_decide_on_a_sum_of_many_summands(mode, trace):
    m = apply_subst({"x": END}, _wide())
    assert decide(m, t("a.yes + b.no"), AB, mode).equal
    # Only the right side accepts b; in omega mode it accepts every
    # infinite trace from the start.
    got = decide(m, Sum(m, t("b.yes")), AB, mode)
    assert got.counterexample == Counterexample((), trace, "AcceptedOnlyByRight")


def test_sort_key_of_a_deep_prefix_chain():
    m = _chain(YES)
    key = sort_key(m)
    for _ in range(DEEP):
        assert key[:2] == (3, "a")
        key = key[2]
    assert key == (1,)
    assert sort_key(Prefix("b", m))[2] is sort_key(m)  # children's keys are shared


def test_sort_key_of_a_sum_of_many_summands():
    m = _wide()
    key = sort_key(m)
    assert key[0] == 5 and len(key[1]) == DEEP - 1
    assert key[1][:2] == ((3, "a", (1,)), (3, "b", (2,))) and key[1][-1] == (4, "x")
    assert all(k is sort_key(p) for k, p in zip(key[1], summands(m)))


# ---------------------------------------------------------------------------
# The node memos against their table-free definitions


def _reference_key(m):
    """``sort_key`` without its memo: rebuilt by recursion on every call."""
    match m:
        case End():
            return (0,)
        case Prefix(action, body):
            return (3, action, _reference_key(body))
        case Var(name):
            return (4, name)
        case Sum(_, _):
            return (5, tuple(_reference_key(p) for p in summands(m)))
    return (1,) if m is YES else (2,)


def _key_corpus():
    """The nine digest corpora and 200 perfbench-style sized terms, each
    with its alphabet."""
    for form in sorted(test_golden.PROOF_CASES):
        alphabet, corpus = test_golden.digest_corpus(form)
        yield from ((alphabet, m) for m in corpus)
    sized_term = _perfbench_gen().sized_term
    rng = random.Random(1411)
    for _ in range(200):
        yield AB, sized_term(rng, rng.randint(8, 120), rng.randint(3, 10), ("a", "b"), ("x", "y"))


def test_memoised_sort_key_matches_the_reference_after_rebuilding():
    corpus = list(_key_corpus())
    want = [_reference_key(m) for _, m in corpus]
    assert [sort_key(m) for _, m in corpus] == want
    assert [sort_key(m) for _, m in corpus] == want  # read from the memo
    sources = [(alphabet, print_monitor(m)) for alphabet, m in corpus]
    refs = [weakref.ref(m) for _, m in corpus]
    del corpus
    gc.collect()
    assert sum(ref() is None for ref in refs) > len(refs) // 2
    rebuilt = [parse_monitor(text, alphabet) for alphabet, text in sources]
    assert [sort_key(m) for m in rebuilt] == want


def test_dropped_terms_leave_the_intern_table():
    gc.collect()
    baseline = len(terms._TABLE.data)
    built = [Prefix("a", Sum(Var(f"dropped_{i}"), YES)) for i in range(10_000)]
    assert len(terms._TABLE.data) >= baseline + 30_000
    for m in built:
        sort_key(m)
    del built, m
    gc.collect()
    # The entries leave with their nodes, not only the nodes.
    assert len(terms._TABLE.data) <= baseline
