import pytest

from conftest import AB, A
from regmon import equivalence, semantics
from regmon.axioms import (
    ArityMismatch,
    InfiniteAlphabetForFiniteSchema,
    MissingBounds,
    action_fan,
    bar,
    bar_k,
    bar_leq,
    instantiate,
    list_system,
    pre_set,
    prefix_seq,
    soundness_fuzz,
    trace_count,
    traces_upto,
    witness_family,
    witness_instance,
)
from regmon.normalize import both_verdict_members
from regmon.syntax import parse_monitor
from regmon.terms import (
    END,
    NO,
    YES,
    Alphabet,
    Prefix,
    Sum,
    ac_equal,
    apply_subst,
    depth,
    sum_of,
)

YN = Sum(YES, NO)


def t(text, alphabet=AB):
    return parse_monitor(text, alphabet)


def test_prefix_seq():
    assert prefix_seq((), YES) == YES
    assert prefix_seq(("a", "b"), NO) == t("a.b.no")
    assert prefix_seq(("a", "a", "a"), YES) == t("a.a.a.yes")


def test_pre_set():
    assert pre_set(("a", "b")) == {(), ("a",), ("a", "b")}
    assert pre_set(()) == {()}
    # direct enumeration for a longer trace
    assert pre_set(("a", "a", "a")) == {(), ("a",), ("a", "a"), ("a", "a", "a")}


def test_bar_leq_matches_worked_expansion():
    got = bar_leq(("a", "b"), YN, AB)
    want = t("b.(yes+no) + a.a.(yes+no) + b.b.(yes+no) + b.a.(yes+no)")
    assert ac_equal(got, want)


def test_bar_leq_empty_trace_is_end():
    assert bar_leq((), YES, AB) == END


def test_bar_leq_single_action():
    # the only non-prefix trace of length <= 1 is b
    assert bar_leq(("a",), YES, AB) == t("b.yes")


def test_bar_matches_worked_expansion():
    got = bar(("a", "b"), YN, AB)
    want = t(
        "b.(yes+no) + a.a.(yes+no) + b.b.(yes+no) + b.a.(yes+no)"
        " + a.b.(a.(yes+no) + b.(yes+no))"
    )
    assert ac_equal(got, want)


def test_bar_empty_trace_is_fan():
    assert bar((), YES, Alphabet.finite(["a"])) == t("a.yes", Alphabet.finite(["a"]))


def test_bar_single_action():
    assert ac_equal(bar(("a",), YES, AB), t("b.yes + a.(a.yes + b.yes)"))


def test_bar_k_base_case_is_bar():
    assert bar_k(("a",), 1, YN, AB) == bar(("a",), YN, AB)


def test_bar_k_three_matches_definition():
    s = ("a", "b")
    got = bar_k(s, 3, YN, AB)
    want = Sum(
        prefix_seq(s, bar_leq(s, YN, AB)),
        prefix_seq(s + s, bar(s, YN, AB)),
    )
    assert ac_equal(got, want)


def test_bar_k_depth_accounting():
    # |s^2| + |s| + 1 with s = a, bodies of depth 0
    assert depth(bar_k(("a",), 3, YN, AB)) == 4


def test_bar_k_rejects_empty_trace():
    with pytest.raises(ValueError):
        bar_k((), 2, YN, AB)


def test_bar_k_both_set_characterization():
    # exhaustive enumeration oracle vs the combinatorial minimal members:
    # bar_k(s, k, yes+no) both accepts and rejects exactly the traces that
    # do not cause the acceptance or rejection of s^k
    for s in [("a",), ("a", "b"), ("b", "b")]:
        for k in (1, 2, 3):
            guard = bar_k(s, k, YN, AB)
            members = both_verdict_members(s, k, AB)
            horizon = len(s) * (k + 1) + 2
            frontier = [()]
            for _ in range(horizon + 1):
                nxt = []
                for trace in frontier:
                    both = semantics.accepts(guard, trace) and semantics.rejects(
                        guard, trace
                    )
                    covered = any(
                        trace[: len(m)] == m for m in members
                    )
                    assert both == covered, (s, k, trace)
                    nxt.extend(trace + (c,) for c in ("a", "b"))
                frontier = nxt if len(frontier[0]) < horizon else []


def test_instantiate_y_a():
    inst = instantiate("Y_a", {"action": "a"}, AB)
    assert inst.equation.lhs == YES
    assert inst.equation.rhs == Sum(YES, Prefix("a", YES))


def test_instantiate_o1():
    inst = instantiate("O1", {}, AB)
    assert str(inst.equation) == "yes + no = yes + no + x"


def test_instantiate_v1w_unary():
    inst = instantiate("V1_w", {}, A)
    assert str(inst.equation) == "x = a.x"


def test_instantiate_arity_errors():
    with pytest.raises(ArityMismatch):
        instantiate("Y_a", {}, AB)
    with pytest.raises(ArityMismatch):
        instantiate("A1", {"action": "a"}, AB)
    with pytest.raises(InfiniteAlphabetForFiniteSchema):
        instantiate("Y_w", {}, Alphabet.open_ended())
    with pytest.raises(InfiniteAlphabetForFiniteSchema, match="^schema V1_w needs"):
        instantiate("V1_w", {}, None)


def test_list_system_counts():
    # A1-A4 plus the four per-action schemas over one action
    assert len(list_system("Ev", A)) == 8
    ev1 = list_system("Ev1'", A)
    assert {i.schema for i in ev1} == {
        "A1", "A2", "A3", "A4", "O1", "V1", "E_a", "Y_a", "N_a", "D_a",
    }
    ew1 = list_system("Eomega1'", A)
    assert {i.schema for i in ew1} == {"A1", "A2", "A3", "A4", "V1_w", "O1"}


def test_list_system_order():
    # schema by schema in the table's order; per action, then per (s, k)
    core = ["A1", "A2", "A3", "A4", "O1"]
    per_action = ["E_a", "Y_a", "N_a", "D_a"]
    assert [i.schema for i in list_system("Ev1'", A)] == core + ["V1"] + per_action
    assert [i.schema for i in list_system("Eomega1'", A)] == core + ["V1_w"]
    listed = list_system("Eomegaf'", AB, max_trace_len=1, max_k=2)
    assert [(i.schema, i.bindings) for i in listed] == (
        [(name, ()) for name in core]
        + [(name, (("action", a),)) for name in per_action for a in "ab"]
        + [("Y_w", ()), ("N_w", ())]
        + [("O2", (("k", k), ("s", (a,)))) for a in "ab" for k in (1, 2)]
    )


def test_list_system_o2_needs_bounds():
    with pytest.raises(MissingBounds):
        list_system("Evf'", AB)
    insts = list_system("Evf'", AB, max_trace_len=2, max_k=2)
    o2 = [i for i in insts if i.schema == "O2"]
    # 2 + 4 traces, two k values each
    assert len(o2) == 12


@pytest.mark.parametrize("system", ["Evf'", "Eomegaf'"])
@pytest.mark.parametrize("max_trace_len, max_k", [(1, 0), (0, 1), (-1, 2), (2, -3)])
def test_list_system_o2_bounds_below_one_are_rejected(system, max_trace_len, max_k):
    with pytest.raises(ValueError) as caught:
        list_system(system, AB, max_trace_len=max_trace_len, max_k=max_k)
    assert str(caught.value) == (
        f"system {system} contains the O2 family; max_trace_len and max_k must be >= 1"
    )


def test_list_system_ignores_o2_bounds_without_o2():
    assert list_system("Ev", AB, max_trace_len=0, max_k=0) == list_system("Ev", AB)


@pytest.mark.parametrize("trials", [-1, -4])
def test_soundness_fuzz_rejects_negative_trials(trials):
    inst = instantiate("Y_a", {"action": "a"}, AB)
    with pytest.raises(ValueError, match=rf"^soundness_fuzz requires trials >= 0, got {trials}$"):
        soundness_fuzz(inst, AB, "verdict", trials)
    assert soundness_fuzz(inst, AB, "verdict", 0).trials == 0


def test_soundness_fuzz_y_a_clean():
    report = soundness_fuzz(instantiate("Y_a", {"action": "a"}, AB), AB, "verdict", 100)
    assert report.ok


def test_soundness_fuzz_y_omega_fails_verdict_at_epsilon():
    report = soundness_fuzz(instantiate("Y_w", {}, AB), AB, "verdict", 100)
    assert not report.ok
    assert all(f.trace == () for f in report.failures)
    # and it is fine in omega mode
    assert soundness_fuzz(instantiate("Y_w", {}, AB), AB, "omega", 100).ok


def test_soundness_fuzz_v1_fails_on_two_actions():
    report = soundness_fuzz(instantiate("V1", {}, AB), AB, "verdict", 100)
    assert not report.ok
    assert soundness_fuzz(instantiate("V1", {}, A), A, "verdict", 100).ok


def test_derived_o_family_equations_sound():
    # the four equations derived from the O2 family, checked per oracle
    for s in [("a",), ("b", "a")]:
        s0 = s[:1]
        lhs = t_sum(
            t("x"), prefix_seq(s, t("x")), prefix_seq(s, bar(s0, YN, AB))
        )
        rhs = t_sum(t("x"), prefix_seq(s, bar(s0, YN, AB)))
        assert equivalence.oracle_equiv_open(lhs, rhs, AB, bound=len(s) * 3 + 2)
    for s1 in [("a",), ("a", "b")]:
        s2 = s1[:1]
        base = t_sum(YES, t("x"), prefix_seq(s1, bar(s2, NO, AB)))
        extended = t_sum(base, prefix_seq(s1, t("x")))
        assert equivalence.oracle_equiv_open(base, extended, AB, bound=len(s1) * 2 + 2)
        base_n = t_sum(NO, t("x"), prefix_seq(s1, bar(s2, YES, AB)))
        extended_n = t_sum(base_n, prefix_seq(s1, t("x")))
        assert equivalence.oracle_equiv_open(base_n, extended_n, AB, bound=len(s1) * 2 + 2)
    for s in [("a",), ("b",)]:
        fan = action_fan(YN, AB)
        lhs = t_sum(t("x"), prefix_seq(s, fan))
        rhs = t_sum(t("x"), prefix_seq(s, Sum(t("x"), fan)))
        assert equivalence.oracle_equiv_open(lhs, rhs, AB, bound=len(s) + 3)


def t_sum(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = Sum(out, p)
    return out


def test_witness_family_shape():
    eq = witness_family(1, AB)
    inst = instantiate("O2", {"s": ("a",), "k": 3}, AB)
    assert eq == inst.equation


def test_witness_instance_is_the_o2_instance_that_witness_family_states():
    assert witness_instance(2, AB) == instantiate("O2", {"s": ("a", "a"), "k": 3}, AB)
    assert witness_family(2, AB) == witness_instance(2, AB).equation


def test_trace_count_counts_what_traces_upto_lists():
    for width in (1, 2, 3):
        actions = Alphabet.finite("abc"[:width])
        for length in range(6):
            listed = len(traces_upto(length, actions))
            assert trace_count(width, length, listed) == listed
            # Under a smaller cap the count stops over it, and short of the total.
            capped = trace_count(width, length, 2)
            assert capped == listed or 2 < capped <= listed
    # Counting stops after a few levels, however long the traces.
    assert 100 < trace_count(2, 10**12, 100) <= 201


def _listing_bar_leq(trace, m, alphabet):
    """``bar_leq`` as it was before the one-action case: every trace of
    length ``<= |trace|`` that is not a prefix of ``trace``, listed."""
    prefixes = pre_set(trace)
    return sum_of(
        prefix_seq(t, m) for t in traces_upto(len(trace), alphabet) if t not in prefixes
    )


def test_o2_instances_are_the_nodes_that_listing_every_trace_builds(monkeypatch):
    from regmon import axioms

    for alphabet in (A, AB, Alphabet.finite("abc")):
        bindings = [
            {"s": s, "k": k} for s in traces_upto(4, alphabet)[1:] for k in (1, 2, 3)
        ]
        new = [instantiate("O2", b, alphabet).equation for b in bindings]
        with monkeypatch.context() as patch:
            patch.setattr(axioms, "bar_leq", _listing_bar_leq)
            old = [instantiate("O2", b, alphabet).equation for b in bindings]
        assert all(n.lhs is o.lhs and n.rhs is o.rhs for n, o in zip(new, old))


def test_witness_family_soundness_and_gap_trace():
    for n in (1, 2):
        eq = witness_family(n, AB)
        report_inst = instantiate("O2", {"s": ("a",) * n, "k": 3}, AB)
        assert soundness_fuzz(report_inst, AB, "verdict", 60).ok
        # under x -> end, the trace a^(2n+1) is neither accepted nor rejected
        sigma = {"x": END}
        probe = ("a",) * (2 * n + 1)
        for side in (eq.lhs, eq.rhs):
            closed = apply_subst(sigma, side)
            assert not semantics.accepts(closed, probe)
            assert not semantics.rejects(closed, probe)


def test_witness_requires_action_a():
    with pytest.raises(ValueError):
        witness_family(1, Alphabet.finite(["b", "c"]))
