import random

import pytest

from conftest import AB
from regmon import cli, equivalence, normalize
from regmon.axioms import action_fan, instantiate
from regmon.generate import random_closed_monitor
from regmon.prooflog import (
    AXIOM_NOT_IN_SYSTEM,
    AxiomUse,
    CongruencePrefix,
    CongruenceSum,
    Context,
    DANGLING_REFERENCE,
    Derivation,
    NOT_AN_INSTANCE,
    Reflexivity,
    SHAPE_MISMATCH,
    Step,
    Substitutivity,
    Symmetry,
    Transitivity,
    check_derivation,
    parse_derivation,
    print_derivation,
    validate,
)
from regmon.syntax import parse_equation, parse_monitor
from regmon.terms import YES, Equation, Prefix, Sum, Var, vars_of


def t(text, alphabet=AB):
    return parse_monitor(text, alphabet)


def eq(text, alphabet=AB):
    return parse_equation(text, alphabet)


def D(*steps, system="Ev", alphabet=AB):
    return Derivation(system, alphabet, tuple(steps))


def test_reflexivity_ok():
    step = Step(1, eq("a.yes = a.yes"), Reflexivity())
    check_derivation(D(step))


def test_reflexivity_shape_mismatch():
    step = Step(1, eq("a.yes = yes"), Reflexivity())
    err = validate(D(step))
    assert err is not None and err.reason == "ShapeMismatch"


def test_combined_summation_derives_single_growth():
    # yes = yes + (a.yes + b.yes) = (yes + a.yes) + b.yes = yes + b.yes
    fan = action_fan(YES, AB)
    steps = [
        Step(1, Equation(YES, Sum(YES, fan)), AxiomUse("Y")),
        Step(
            2,
            Equation(Sum(YES, fan), Sum(Sum(YES, Prefix("a", YES)), Prefix("b", YES))),
            AxiomUse(
                "A2",
                (),
                tuple(
                    sorted(
                        {
                            "x": YES,
                            "y": Prefix("a", YES),
                            "z": Prefix("b", YES),
                        }.items()
                    )
                ),
            ),
        ),
        Step(3, Equation(YES, Sum(Sum(YES, Prefix("a", YES)), Prefix("b", YES))), Transitivity(1, 2)),
        Step(4, Equation(YES, Sum(YES, Prefix("a", YES))), AxiomUse("Y_a", (("action", "a"),))),
        Step(5, Equation(Sum(YES, Prefix("a", YES)), YES), Symmetry(4)),
        Step(6, Equation(Prefix("b", YES), Prefix("b", YES)), Reflexivity()),
        Step(
            7,
            Equation(Sum(Sum(YES, Prefix("a", YES)), Prefix("b", YES)), Sum(YES, Prefix("b", YES))),
            CongruenceSum(5, 6),
        ),
        Step(8, Equation(YES, Sum(YES, Prefix("b", YES))), Transitivity(3, 7)),
    ]
    check_derivation(D(*steps), claimed=eq("yes = yes + b.yes"))


def test_axiom_not_in_system():
    inst = instantiate("V1", {}, AB)
    step = Step(1, inst.equation, AxiomUse("V1"))
    err = validate(D(step, system="Ev'"))
    assert err is not None and err.reason == AXIOM_NOT_IN_SYSTEM


@pytest.mark.parametrize(
    "step",
    [
        Step(1, eq("yes = yes"), Reflexivity()),
        Step(1, instantiate("A1", {}, AB).equation, AxiomUse("A1")),
    ],
    ids=["refl", "axiom"],
)
def test_unknown_system_is_rejected_before_any_step(step):
    err = validate(D(step, system="Bogus"))
    assert (err.step_id, err.reason, err.message) == (
        None,
        AXIOM_NOT_IN_SYSTEM,
        "unknown axiom system 'Bogus'",
    )


def test_axiom_wrong_equation_is_not_an_instance():
    step = Step(1, eq("yes = yes + b.yes"), AxiomUse("Y_a", (("action", "a"),)))
    err = validate(D(step))
    assert err is not None and err.reason == NOT_AN_INSTANCE


def test_dangling_reference():
    step = Step(1, eq("yes = yes"), Symmetry(7))
    err = validate(D(step))
    assert err is not None and err.reason == DANGLING_REFERENCE


def test_substitutivity_rule():
    steps = [
        Step(1, eq("yes = yes + a.yes"), AxiomUse("Y_a", (("action", "a"),))),
        Step(
            2,
            eq("yes = yes + a.yes"),
            Substitutivity(1, ((("x"), t("no")),)),
        ),
    ]
    check_derivation(D(*steps))


def test_substitutivity_step_prints_parses_and_checks_its_mapping():
    text = (
        "system: Ev\n"
        "alphabet: a,b\n"
        "vars: x\n"
        "step 1: x + end = x by axiom(A4; x -> x)\n"
        "step 2: a.yes + end = a.yes by subst(1; x -> a.yes)\n"
    )
    derivation, variables = parse_derivation(text)
    assert derivation.steps[1].justification == Substitutivity(1, (("x", t("a.yes")),))
    assert print_derivation(derivation, variables) == text
    check_derivation(derivation, eq("a.yes + end = a.yes"))
    wrong, _ = parse_derivation(text.replace("x -> a.yes)", "x -> b.yes)"))
    err = validate(wrong)
    assert err is not None and (err.step_id, err.reason) == (2, "ShapeMismatch")


@pytest.mark.parametrize(
    "justification, message",
    [
        ("axiom(A1; x -> x, x -> y)", "variable 'x' is mapped twice"),
        ("subst(1; y -> x, y -> yes)", "variable 'y' is mapped twice"),
        ("axiom(A1; x -> x; y -> y)", "axiom takes one mapping"),
        ("axiom(Y_a; action=b; action=a)", "binding 'action' is given twice"),
    ],
)
def test_a_mapping_that_binds_twice_is_a_step_record_error(justification, message):
    text = (
        "system: Ev\nalphabet: a,b\nvars: x, y\n"
        "step 1: x + y = y + x by axiom(A1; x -> x, y -> y)\n"
        f"step 2: x + y = y + x by {justification}\n"
    )
    parse_derivation(text.rsplit("step 2", 1)[0])
    with pytest.raises(ValueError) as err:
        parse_derivation(text)
    assert str(err.value) == f"line 5: cannot parse step record ({message})"


def test_one_derivation_builds_each_axiom_instance_once(monkeypatch):
    import regmon.axioms

    built = []
    instantiate = regmon.axioms.instantiate

    def counted(name, bindings={}, alphabet=None):
        built.append((name, tuple(sorted(bindings.items()))))
        return instantiate(name, bindings, alphabet)

    monkeypatch.setattr(regmon.axioms, "instantiate", counted)
    m = t("yes + x + a.(x + a.no + b.no) + b.no")
    cf = normalize.finite_act_rnf(m, AB, emit_proof=True)
    uses = [s.justification for s in cf.derivation.steps if isinstance(s.justification, AxiomUse)]
    assert len(built) == len(set(built)) < len(uses)
    built.clear()
    check_derivation(cf.derivation, Equation(m, cf.term))
    assert len(built) == len(set(built)) == len({(u.name, u.bindings) for u in uses})


def test_congruence_prefix():
    steps = [
        Step(1, eq("yes = yes + a.yes"), AxiomUse("Y_a", (("action", "a"),))),
        Step(2, eq("b.yes = b.(yes + a.yes)"), CongruencePrefix("b", 1)),
    ]
    check_derivation(D(*steps))


def test_conclusion_mismatch():
    step = Step(1, eq("yes = yes"), Reflexivity())
    err = validate(D(step), claimed=eq("yes = no + yes"))
    assert err is not None and err.reason == "ConclusionMismatch"


def test_checker_requires_explicit_ac_steps():
    # yes + no = no + yes is true modulo A1, but an axiom step must match
    # structurally; the commuted form needs its own A1 step
    step = Step(1, eq("yes + no = no + yes"), AxiomUse("A3", (), ((("x"), YES),)))
    err = validate(D(step))
    assert err is not None and err.reason == NOT_AN_INSTANCE


def test_section4_example_derivation_checks():
    m = t("x + yes + a.b.(no + b.a.x)")
    cf = normalize.open_rnf(m, AB, emit_proof=True)
    derivation = cf.derivation
    names = {s.justification.name for s in derivation.steps if isinstance(s.justification, AxiomUse)}
    # the run uses the growth, distribution and O1 axioms seen in the text
    assert {"Y_a", "D_a", "O1"} <= names
    check_derivation(derivation, Equation(m, cf.term))


def test_round_trip_derivation_for_reduced_form():
    m = t("yes + a.a.a.yes")
    cf = normalize.reduced_nf_closed(m, AB, emit_proof=True)
    check_derivation(cf.derivation, Equation(m, YES))


def test_print_parse_round_trip():
    m = t("x + yes + a.b.(no + b.a.x)")
    cf = normalize.open_rnf(m, AB, emit_proof=True)
    text = print_derivation(cf.derivation, vars_of(m))
    parsed, variables = parse_derivation(text)
    assert parsed == cf.derivation
    check_derivation(parsed, Equation(m, cf.term))


def test_parse_derivation_headers_required():
    with pytest.raises(ValueError):
        parse_derivation("step 1: yes = yes by refl")


def test_parse_derivation_with_variable_named_by():
    # ' by ' inside the equation must not confuse the record splitter
    text = (
        "system: Ev\n"
        "alphabet: a,b\n"
        "vars: by\n"
        "step 1: by + end = by by axiom(A4; x -> by)\n"
        "step 2: a.(by + end) = a.by by prefix(a, 1)\n"
    )
    derivation, variables = parse_derivation(text)
    assert "by" in variables
    check_derivation(derivation)


def test_mutated_derivations_fail():
    rng = random.Random(71)
    m = random_closed_monitor(rng, AB, 3)
    cf = normalize.reduced_nf_closed(m, AB, emit_proof=True)
    derivation = cf.derivation
    if len(derivation.steps) == 1:
        m = t("no + a.(yes + b.yes) + a.a.no")
        cf = normalize.reduced_nf_closed(m, AB, emit_proof=True)
        derivation = cf.derivation
    victim = rng.randrange(len(derivation.steps))
    old = derivation.steps[victim]
    mutated_eq = Equation(old.equation.lhs, Sum(old.equation.rhs, Var("zz")))
    steps = list(derivation.steps)
    steps[victim] = Step(old.sid, mutated_eq, old.justification)
    err = validate(
        Derivation(derivation.system, derivation.alphabet, tuple(steps)),
        Equation(m, cf.term),
    )
    assert err is not None


def test_checker_is_purely_syntactic():
    import regmon.prooflog as module

    assert "semantics" not in module.__dict__
    source = open(module.__file__).read()
    assert "import" not in "".join(
        line for line in source.splitlines() if "semantics" in line
    )


def test_symmetry_closure_of_accepted_steps():
    # every accepted axiom step flips through the Symmetry rule
    inst = instantiate("Y_a", {"action": "b"}, AB)
    steps = [
        Step(1, inst.equation, AxiomUse("Y_a", (("action", "b"),))),
        Step(2, Equation(inst.equation.rhs, inst.equation.lhs), Symmetry(1)),
    ]
    check_derivation(D(*steps))


def test_checker_soundness_against_semantics():
    # accepted derivations in verdict-mode systems only relate verdict
    # equivalent terms
    rng = random.Random(73)
    for _ in range(20):
        m = random_closed_monitor(rng, AB, 3)
        cf = normalize.reduced_nf_closed(m, AB, emit_proof=True)
        check_derivation(cf.derivation, Equation(m, cf.term))
        for step in cf.derivation.steps:
            lhs, rhs = step.equation.lhs, step.equation.rhs
            if not (vars_of(lhs) | vars_of(rhs)):
                assert equivalence.verdict_equiv_closed(lhs, rhs, AB)


NINE_FORMS = [
    (normalize.normal_form_closed, "no + a.(yes + b.yes) + a.a.no + b.end + yes"),
    (normalize.reduced_nf_closed, "no + a.(yes + b.yes) + a.a.no + b.end + yes"),
    (normalize.omega_nf_closed, "a.(yes + b.no) + b.yes + a.a.yes + b.(a.yes + b.yes)"),
    (normalize.open_nf, "x + a.(x + end) + b.(y + no) + a.yes"),
    (normalize.open_rnf, "x + yes + a.b.(no + b.a.x) + b.x"),
    (normalize.finite_act_rnf, "x + yes + a.b.(no + b.a.x) + a.y"),
    (normalize.unary_rnf, "x + a.(yes + a.x) + a.a.no"),
    (normalize.unary_omega_nf, "a.(x + a.yes) + a.a.no + yes"),
    (normalize.omega_open_nf, "x + a.(yes + b.x) + b.(a.no + y)"),
]


@pytest.mark.parametrize("fn, text", NINE_FORMS, ids=[fn.__name__ for fn, _ in NINE_FORMS])
def test_nine_forms_round_trip_and_share_equal_sides(fn, text):
    from regmon.terms import Alphabet

    alphabet = Alphabet.finite(["a"]) if fn.__name__.startswith("unary") else AB
    m = parse_monitor(text, alphabet)
    cf = fn(m, alphabet, emit_proof=True)
    d = cf.derivation
    parsed, _ = parse_derivation(print_derivation(d, vars_of(m) | vars_of(cf.term)))
    assert parsed == d
    check_derivation(parsed, Equation(m, cf.term))
    # Equal side texts of one derivation come back as one object.
    first_seen: dict = {}
    repeats = 0
    for step in parsed.steps:
        for side in (step.equation.lhs, step.equation.rhs):
            key = repr(side)
            if key in first_seen:
                assert first_seen[key] is side
                repeats += 1
            else:
                first_seen[key] = side
    assert repeats > 0


def test_vars_header_after_first_step_changes_later_steps():
    text = (
        "system: Ev\n"
        "alphabet: infinite\n"
        "step 1: x.yes = x.yes by refl\n"
        "vars: x\n"
        "step 2: x + yes = x + yes by refl\n"
    )
    derivation, variables = parse_derivation(text)
    assert variables == {"x"}
    assert derivation.steps[0].equation.lhs == Prefix("x", YES)
    assert derivation.steps[1].equation.lhs == Sum(Var("x"), YES)
    # Once x is declared a variable, the text of step 1 no longer parses.
    with pytest.raises(ValueError, match="line 6"):
        parse_derivation(text + "step 3: x.yes = x.yes by refl\n")


def test_alphabet_header_after_first_step_changes_later_steps():
    text = (
        "system: Ev\n"
        "alphabet: a,b,c\n"
        "step 1: c.yes = c.yes by refl\n"
        "alphabet: a,b\n"
        "step 2: c.yes = c.yes by refl\n"
    )
    with pytest.raises(ValueError, match="line 5: cannot parse step record"):
        parse_derivation(text)


def test_step_record_error_message_is_unchanged():
    text = "system: Ev\nalphabet: a,b\nstep 1: yes + @ = yes by refl\n"
    with pytest.raises(ValueError) as err:
        parse_derivation(text)
    assert str(err.value) == (
        "line 3: cannot parse step record (1:8: unexpected character '@')"
    )
    text = "system: Ev\nalphabet: a,b\nstep 1: yes = yes = yes by refl\n"
    with pytest.raises(ValueError) as err:
        parse_derivation(text)
    assert str(err.value) == (
        "line 3: cannot parse step record (1:12: trailing input starting at '=')"
    )
    text = "system: Ev\nalphabet: a,b\nstep 1: yes = yes by axiom(A4; x -> a + b)\n"
    with pytest.raises(ValueError) as err:
        parse_derivation(text)
    assert str(err.value) == (
        "line 3: cannot parse step record (1:2: action 'a' must be followed by '.')"
    )


# ---------------------------------------------------------------------------
# Congruence under a one-hole context, and transitivity over n steps

GROW = Step(1, eq("yes = yes + a.yes"), AxiomUse("Y_a", (("action", "a"),)))
SHRINK = Step(2, eq("yes + a.yes = yes"), Symmetry(1))


def _round_trip(*steps):
    derivation = D(*steps)
    check_derivation(derivation)
    parsed, _ = parse_derivation(print_derivation(derivation))
    assert parsed == derivation
    return parsed


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        ("b.a.b.yes", "b.a.b.(yes + a.yes)"),  # under a prefix chain
        ("yes + no", "yes + a.yes + no"),  # at the left of a sum
        ("no + yes", "no + (yes + a.yes)"),  # at the right of a sum
        ("b.(no + a.(yes + b.no))", "b.(no + a.(yes + a.yes + b.no))"),  # mixed
        ("yes", "yes + a.yes"),  # the empty context
    ],
)
def test_context_step_accepts_a_one_hole_context(lhs, rhs):
    parsed = _round_trip(GROW, Step(2, eq(f"{lhs} = {rhs}"), Context(1)))
    assert print_derivation(parsed).endswith(" by ctx(1)\n")


def test_context_step_finds_a_hole_ten_thousand_prefixes_deep():
    lhs, rhs = YES, Sum(YES, Prefix("a", YES))
    for i in range(10_000):
        lhs, rhs = Prefix("ab"[i % 2], lhs), Prefix("ab"[i % 2], rhs)
    _round_trip(GROW, Step(2, Equation(Sum(lhs, YES), Sum(rhs, YES)), Context(1)))


@pytest.mark.parametrize(
    "text, cited, reason",
    [
        ("yes + yes = yes + a.yes + (yes + a.yes)", 1, SHAPE_MISMATCH),  # two holes
        ("a.yes = b.(yes + a.yes)", 1, SHAPE_MISMATCH),  # prefix actions differ
        ("b.no = b.(no + a.no)", 1, SHAPE_MISMATCH),  # the hole never matches
        ("a.yes + no = a.yes + a.yes", 1, SHAPE_MISMATCH),  # a leaf against a prefix
        ("b.yes = yes + a.yes", 1, SHAPE_MISMATCH),  # a prefix against a sum
        ("yes + a.yes = b.yes", 1, SHAPE_MISMATCH),  # a sum against a prefix
        ("b.yes = b.(yes + a.yes)", 5, DANGLING_REFERENCE),  # no step 5
        ("b.yes = b.(yes + a.yes)", 2, DANGLING_REFERENCE),  # itself
    ],
)
def test_context_step_rejects(text, cited, reason):
    err = validate(D(GROW, Step(2, eq(text), Context(cited))))
    assert err is not None and (err.step_id, err.reason) == (2, reason)


@pytest.mark.parametrize("count", [3, 50])
def test_transitivity_over_many_steps(count):
    sids = [1 + i % 2 for i in range(count)]  # yes -> yes + a.yes -> yes -> ...
    conclusion = "yes = yes + a.yes" if count % 2 else "yes = yes"
    parsed = _round_trip(GROW, SHRINK, Step(3, eq(conclusion), Transitivity(*sids)))
    assert parsed.steps[-1].justification.steps == tuple(sids)


@pytest.mark.parametrize(
    "sids, text, reason",
    [
        ((1, 1, 2), "yes = yes", SHAPE_MISMATCH),  # a broken middle
        ((1, 2, 2), "yes = yes", SHAPE_MISMATCH),  # a broken middle further on
        ((1, 2, 1), "yes = yes", SHAPE_MISMATCH),  # the wrong conclusion
        ((1,), "yes = yes + a.yes", SHAPE_MISMATCH),  # one step
        ((1, 2, 7), "yes = yes + a.yes", DANGLING_REFERENCE),
    ],
)
def test_transitivity_over_many_steps_rejects(sids, text, reason):
    err = validate(D(GROW, SHRINK, Step(3, eq(text), Transitivity(*sids))))
    assert err is not None and (err.step_id, err.reason) == (3, reason)


def test_transitivity_needs_two_steps_in_the_text():
    head = "system: Ev\nalphabet: a,b\nstep 1: yes = yes by refl\n"
    with pytest.raises(ValueError, match="trans needs two steps or more"):
        parse_derivation(head + "step 2: yes = yes by trans(1)\n")


# ---------------------------------------------------------------------------
# O2 steps whose instance would be larger than the step itself, and O2
# steps at bindings where no instance exists, with the reason for each

LARGER = "each O2 instance at these bindings is larger than the step"
O2_REJECTIONS = {
    # k * |s| + 1 = 20001 prefixes deep, against a right side of depth 0
    "x = x by axiom(O2; s=a; k=20000)": LARGER,
    # deep enough (19 prefixes), but 2^19 - 20 traces of length <= 18
    # are not prefixes of s, against 22 nodes on the right side
    f"x = x + {'a.' * 19}yes by axiom(O2; s={' '.join('a' * 18)}; k=1)": LARGER,
    # no instance: instantiate's own message, not the size check's
    "x = x by axiom(O2; s=a; k=0)": "bar_k requires k >= 1",
    "x = x by axiom(O2; s=<eps>; k=1)": "bar_k requires a nonempty trace",
}


@pytest.mark.parametrize("step", list(O2_REJECTIONS))
def test_check_proof_rejects_an_o2_step_smaller_than_its_instance(tmp_path, capsys, step):
    path = tmp_path / "proof.txt"
    path.write_text(f"system: Evf'\nalphabet: a,b\nvars: x\nstep 1: {step}\n", encoding="utf-8")
    assert cli.main(["check-proof", str(path)]) == 1
    reason = O2_REJECTIONS[step]
    assert capsys.readouterr().out == f"invalid at step 1: [NotAnInstance] {reason}\n"


@pytest.mark.parametrize("s, k", [(("a",), 1), (("a", "b"), 3), (("b", "a", "a"), 2)])
def test_o2_instances_at_the_size_bounds_are_accepted(s, k):
    inst = instantiate("O2", {"s": s, "k": k}, AB)
    check_derivation(D(Step(1, inst.equation, AxiomUse("O2", inst.bindings)), system="Evf'"))
    # the guard is exactly k * |s| + 1 prefixes deep
    assert inst.equation.rhs.depth == k * len(s) + 1
