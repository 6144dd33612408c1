import pytest
from hypothesis import given, settings

from conftest import AB, closed_monitors, monitors
from regmon import equivalence
from regmon.terms import (
    END,
    NO,
    YES,
    Alphabet,
    Prefix,
    Sum,
    Var,
    ac_equal,
    ac_normalize,
    apply_subst,
    depth,
    is_closed,
    size_of,
    sum_of,
    summands,
    vars_of,
)
from regmon.syntax import parse_monitor


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
