"""Equational derivations and an independent, purely syntactic checker.

A derivation is a sequence of steps over a declared axiom system.  Each step
carries the equation it claims and a justification: an axiom instance under
a substitution, or one of reflexivity, symmetry, transitivity, congruence
(binary for ``+``, unary for prefixing) and substitutivity applied to
earlier steps.  The checker recomputes what every justification yields and
demands structural equality, so uses of commutativity or associativity must
appear as explicit A1/A2 steps.  It never consults the operational
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import axioms, syntax
from .terms import (
    Alphabet,
    Equation,
    Monitor,
    Prefix,
    Sum,
    apply_subst,
)

NOT_AN_INSTANCE = "NotAnInstance"
SHAPE_MISMATCH = "ShapeMismatch"
DANGLING_REFERENCE = "DanglingReference"
AXIOM_NOT_IN_SYSTEM = "AxiomNotInSystem"
CONCLUSION_MISMATCH = "ConclusionMismatch"


class CheckError(ValueError):
    def __init__(self, step_id: int | None, reason: str, message: str):
        super().__init__(f"step {step_id}: [{reason}] {message}")
        self.step_id = step_id
        self.reason = reason
        self.message = message


# ---------------------------------------------------------------------------
# Justifications


@dataclass(frozen=True, slots=True)
class Reflexivity:
    pass


@dataclass(frozen=True, slots=True)
class Symmetry:
    of: int


@dataclass(frozen=True, slots=True)
class Transitivity:
    first: int
    second: int


@dataclass(frozen=True, slots=True)
class CongruenceSum:
    left: int
    right: int


@dataclass(frozen=True, slots=True)
class CongruencePrefix:
    action: str
    inner: int


@dataclass(frozen=True, slots=True)
class Substitutivity:
    of: int
    subst: tuple[tuple[str, Monitor], ...]


@dataclass(frozen=True, slots=True)
class AxiomUse:
    name: str
    bindings: tuple[tuple[str, object], ...] = ()
    subst: tuple[tuple[str, Monitor], ...] = ()


Justification = (
    Reflexivity
    | Symmetry
    | Transitivity
    | CongruenceSum
    | CongruencePrefix
    | Substitutivity
    | AxiomUse
)


@dataclass(frozen=True, slots=True)
class Step:
    sid: int
    equation: Equation
    justification: Justification


@dataclass(frozen=True, slots=True)
class Derivation:
    system: str
    alphabet: Alphabet
    steps: tuple[Step, ...]

    @property
    def conclusion(self) -> Equation:
        if not self.steps:
            raise ValueError("empty derivation")
        return self.steps[-1].equation


# ---------------------------------------------------------------------------
# Checking


def _ref(prior: dict[int, Equation], sid: int, current: int) -> Equation:
    if sid not in prior or sid >= current:
        raise CheckError(
            current, DANGLING_REFERENCE, f"reference to unknown step {sid}"
        )
    return prior[sid]


def check_step(
    system: str,
    alphabet: Alphabet,
    prior: dict[int, Equation],
    step: Step,
) -> None:
    """Validate one step against already-checked prior steps.  ``system``
    names an axiom system: :func:`check_derivation` rejects any other."""
    eq = step.equation
    just = step.justification
    sid = step.sid
    match just:
        case Reflexivity():
            if eq.lhs != eq.rhs:
                raise CheckError(sid, SHAPE_MISMATCH, "reflexivity needs lhs == rhs")
        case Symmetry(of):
            prev = _ref(prior, of, sid)
            if eq != Equation(prev.rhs, prev.lhs):
                raise CheckError(sid, SHAPE_MISMATCH, "not the flip of the cited step")
        case Transitivity(first, second):
            e1 = _ref(prior, first, sid)
            e2 = _ref(prior, second, sid)
            if e1.rhs != e2.lhs:
                raise CheckError(
                    sid, SHAPE_MISMATCH, "middle terms of transitivity differ"
                )
            if eq != Equation(e1.lhs, e2.rhs):
                raise CheckError(sid, SHAPE_MISMATCH, "conclusion of transitivity differs")
        case CongruenceSum(left, right):
            e1 = _ref(prior, left, sid)
            e2 = _ref(prior, right, sid)
            if eq != Equation(Sum(e1.lhs, e2.lhs), Sum(e1.rhs, e2.rhs)):
                raise CheckError(sid, SHAPE_MISMATCH, "sum congruence shape differs")
        case CongruencePrefix(action, inner):
            e1 = _ref(prior, inner, sid)
            if eq != Equation(Prefix(action, e1.lhs), Prefix(action, e1.rhs)):
                raise CheckError(sid, SHAPE_MISMATCH, "prefix congruence shape differs")
        case Substitutivity(of, subst):
            e1 = _ref(prior, of, sid)
            sigma = dict(subst)
            if eq != Equation(apply_subst(sigma, e1.lhs), apply_subst(sigma, e1.rhs)):
                raise CheckError(sid, SHAPE_MISMATCH, "substitutivity result differs")
        case AxiomUse(name, bindings, subst):
            if name not in axioms.SYSTEM_SCHEMAS[system]:
                raise CheckError(
                    sid, AXIOM_NOT_IN_SYSTEM, f"{name} is not in system {system}"
                )
            try:
                inst = axioms.instantiate(name, dict(bindings), alphabet)
            except ValueError as exc:
                raise CheckError(sid, NOT_AN_INSTANCE, str(exc)) from exc
            sigma = dict(subst)
            want = Equation(
                apply_subst(sigma, inst.equation.lhs),
                apply_subst(sigma, inst.equation.rhs),
            )
            if eq != want:
                raise CheckError(
                    sid,
                    NOT_AN_INSTANCE,
                    f"step equation is not this instance of {name}",
                )
        case _:  # pragma: no cover
            raise CheckError(sid, SHAPE_MISMATCH, f"unknown justification {just!r}")


def check_derivation(derivation: Derivation, claimed: Equation | None = None) -> None:
    """Validate every step and, when given, the claimed conclusion.

    Raises :class:`CheckError` on the first failure.
    """
    if derivation.system not in axioms.SYSTEM_SCHEMAS:
        raise CheckError(
            None, AXIOM_NOT_IN_SYSTEM, f"unknown axiom system {derivation.system!r}"
        )
    if not derivation.steps:
        raise CheckError(None, SHAPE_MISMATCH, "derivation has no steps")
    prior: dict[int, Equation] = {}
    for step in derivation.steps:
        if step.sid in prior:
            raise CheckError(step.sid, SHAPE_MISMATCH, "duplicate step id")
        check_step(derivation.system, derivation.alphabet, prior, step)
        prior[step.sid] = step.equation
    if claimed is not None and derivation.conclusion != claimed:
        raise CheckError(
            derivation.steps[-1].sid,
            CONCLUSION_MISMATCH,
            f"conclusion is {derivation.conclusion}, claimed {claimed}",
        )


def validate(derivation: Derivation, claimed: Equation | None = None) -> CheckError | None:
    try:
        check_derivation(derivation, claimed)
    except CheckError as err:
        return err
    return None


# ---------------------------------------------------------------------------
# Text format


def _print_binding(key: str, value) -> str:
    if key == "s":
        return f"s={' '.join(value)}" if value else "s=<eps>"
    return f"{key}={value}"


def print_justification(just: Justification) -> str:
    match just:
        case Reflexivity():
            return "refl"
        case Symmetry(of):
            return f"sym({of})"
        case Transitivity(first, second):
            return f"trans({first}, {second})"
        case CongruenceSum(left, right):
            return f"sum({left}, {right})"
        case CongruencePrefix(action, inner):
            return f"prefix({action}, {inner})"
        case Substitutivity(of, subst):
            return f"subst({of}; {syntax.print_substitution(subst)})"
        case AxiomUse(name, bindings, subst):
            parts = [name]
            parts.extend(_print_binding(k, v) for k, v in bindings)
            if subst:
                parts.append(syntax.print_substitution(subst))
            return f"axiom({'; '.join(parts)})"
    raise TypeError(f"unknown justification {just!r}")


def print_derivation(derivation: Derivation, variables: Iterable[str] = ()) -> str:
    lines = [f"system: {derivation.system}", f"alphabet: {derivation.alphabet}"]
    names = sorted(set(variables))
    if names:
        lines.append(f"vars: {', '.join(names)}")
    for step in derivation.steps:
        lines.append(
            f"step {step.sid}: {syntax.print_equation(step.equation)}"
            f" by {print_justification(step.justification)}"
        )
    return "\n".join(lines) + "\n"


class _TermTable:
    """Side text -> term, for one derivation under fixed headers.

    Each distinct text is parsed once, which saves re-parsing the sides
    that recur from step to step.  The checker's comparisons are identity
    tests whatever the table does: equal terms are one interned object.
    The term grammar has no ``=`` and no ``,``, so equations and mappings
    split into their terms exactly.
    """

    def __init__(self, alphabet: Alphabet, variables: frozenset[str]):
        self.alphabet = alphabet
        self.variables = variables
        self.terms: dict[str, Monitor] = {}

    def term(self, text: str) -> Monitor:
        # Only the blanks the tokenizer skips: other whitespace is an error.
        key = text.strip(" \t")
        term = self.terms.get(key)
        if term is None:
            term = syntax.parse_monitor(text, self.alphabet, self.variables)
            self.terms[key] = term
        return term

    def equation(self, text: str) -> Equation:
        lhs, _, rhs = text.partition("=")
        try:
            return Equation(self.term(lhs), self.term(rhs))
        except syntax.ParseError:
            # Report the error where it lies in the whole equation.
            return syntax.parse_equation(text, self.alphabet, self.variables)


def _parse_mapping(text: str, table: _TermTable) -> tuple[tuple[str, Monitor], ...]:
    out: list[tuple[str, Monitor]] = []
    text = text.strip()
    if not text:
        return ()
    for part in text.split(","):
        name, arrow, term_text = part.partition("->")
        if not arrow:
            raise ValueError(f"expected 'x -> term' in {part!r}")
        out.append((name.strip(), table.term(term_text)))
    return tuple(sorted(out))


def _parse_justification(text: str, table: _TermTable) -> Justification:
    text = text.strip()
    if text == "refl":
        return Reflexivity()
    head, paren, rest = text.partition("(")
    if not paren or not rest.endswith(")"):
        raise ValueError(f"malformed justification {text!r}")
    head = head.strip()
    args = rest[:-1]
    if head == "sym":
        return Symmetry(int(args))
    if head == "trans":
        first, second = (int(p) for p in args.split(","))
        return Transitivity(first, second)
    if head == "sum":
        left, right = (int(p) for p in args.split(","))
        return CongruenceSum(left, right)
    if head == "prefix":
        action, sid = (p.strip() for p in args.split(","))
        return CongruencePrefix(action, int(sid))
    if head == "subst":
        sid_text, semi, mapping = args.partition(";")
        if not semi:
            raise ValueError("subst needs a mapping after ';'")
        return Substitutivity(
            int(sid_text), _parse_mapping(mapping, table)
        )
    if head == "axiom":
        groups = [g.strip() for g in args.split(";")]
        name = groups[0]
        bindings: list[tuple[str, object]] = []
        subst: tuple[tuple[str, Monitor], ...] = ()
        for group in groups[1:]:
            if "->" in group:
                subst = _parse_mapping(group, table)
            elif "=" in group:
                key, _, value = group.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "s":
                    bindings.append((key, syntax.parse_trace(value)))
                elif key == "k":
                    bindings.append((key, int(value)))
                else:
                    bindings.append((key, value))
            elif group:
                raise ValueError(f"malformed axiom argument {group!r}")
        return AxiomUse(name, tuple(sorted(bindings)), subst)
    raise ValueError(f"unknown justification {head!r}")


def parse_derivation(text: str) -> tuple[Derivation, frozenset[str]]:
    """Parse the derivation file format; returns the derivation and the
    declared variable names (used for open-ended alphabets)."""
    system: str | None = None
    alphabet: Alphabet | None = None
    variables: frozenset[str] = frozenset()
    steps: list[Step] = []
    table: _TermTable | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("system:"):
            system = line[len("system:") :].strip()
            continue
        if line.startswith("alphabet:"):
            alphabet = syntax.parse_alphabet(line[len("alphabet:") :])
            table = None
            continue
        if line.startswith("vars:"):
            variables = variables | syntax.parse_vars(line[len("vars:") :])
            table = None
            continue
        if not line.startswith("step "):
            raise ValueError(f"line {lineno}: expected a step record")
        if system is None or alphabet is None:
            raise ValueError(f"line {lineno}: step before system/alphabet headers")
        head, colon, body = line.partition(":")
        if not colon:
            raise ValueError(f"line {lineno}: missing ':'")
        sid = int(head[len("step ") :])
        if table is None:  # a header changes how the same text parses
            table = _TermTable(alphabet, variables)
        # ' by ' may occur inside terms (a variable could be named 'by'), so
        # try split points right to left until both halves parse.
        candidates = []
        idx = len(body)
        while True:
            idx = body.rfind(" by ", 0, idx)
            if idx < 0:
                break
            candidates.append(idx)
        last_error: Exception | None = None
        for idx in candidates:
            eq_text, just_text = body[:idx], body[idx + 4 :]
            try:
                equation = table.equation(eq_text)
                justification = _parse_justification(just_text, table)
            except ValueError as exc:
                last_error = exc
                continue
            steps.append(Step(sid, equation, justification))
            break
        else:
            raise ValueError(
                f"line {lineno}: cannot parse step record"
                + (f" ({last_error})" if last_error else "")
            )
    if system is None or alphabet is None:
        raise ValueError("missing system/alphabet headers")
    return Derivation(system, alphabet, tuple(steps)), variables
