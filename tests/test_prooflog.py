import random

import pytest

from conftest import AB
from regmon import equivalence, normalize
from regmon.axioms import action_fan, instantiate
from regmon.generate import random_closed_monitor
from regmon.prooflog import (
    AXIOM_NOT_IN_SYSTEM,
    AxiomUse,
    CongruencePrefix,
    CongruenceSum,
    DANGLING_REFERENCE,
    Derivation,
    NOT_AN_INSTANCE,
    Reflexivity,
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
