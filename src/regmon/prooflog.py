"""Equational derivations and an independent, purely syntactic checker.

A derivation is a sequence of steps over a declared axiom system.  Each step
carries the equation it claims and a justification: an axiom instance under
a substitution, or one of reflexivity, symmetry, transitivity over two or
more steps, congruence (binary for ``+``, unary for prefixing, and under a
one-hole context) and substitutivity applied to earlier steps.  The checker
recomputes what every justification yields and demands structural equality,
so uses of commutativity or associativity must appear as explicit A1/A2
steps.  It never consults the operational semantics.

Congruence under a one-hole context, ``ctx(k)``, is a derived rule: its sides
are ``C[l]`` and ``C[r]`` for a context ``C`` of prefixes and sum positions,
where step ``k`` proves ``l = r``.  It stands for the ``prefix``/``sum`` and
``refl`` steps that would rebuild ``C`` around step ``k``, and the checker
finds the hole with a loop of identity tests: equal prefixes and the sum
child that is the same term on both sides are context.

In the text format a ``let $N := term`` record names a term, and ``$N``
stands for it in every later term.  ``prove`` names each prefix or sum node
that its step lines would print in full a second time, in a ``let`` just
before the first step line that reaches it.  Names are text only: the
checker sees the same interned terms.  No term spells out to more than
:data:`TERM_LIMIT` nodes plus the length of the file, since the conclusion
is printed in full.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from . import axioms, syntax
from .terms import Alphabet, Equation, Monitor, Prefix, Sum, apply_subst, nodes, size_of

_NAME_RE = re.compile(r"\$[0-9]+")
# Names let a short file stand for a term exponentially larger, which
# check-proof prints in full.  A term that uses names twice or more is
# refused when it spells out to more nodes than this; one that uses a name
# once adds only its own text to that name's term.
TERM_LIMIT = 2_500_000

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


@dataclass(frozen=True, slots=True, init=False)
class Transitivity:
    """``trans(i, j, ...)``: each cited right side is the next left side."""

    steps: tuple[int, ...]

    def __init__(self, *steps: int):
        object.__setattr__(self, "steps", steps)


@dataclass(frozen=True, slots=True)
class CongruenceSum:
    left: int
    right: int


@dataclass(frozen=True, slots=True)
class CongruencePrefix:
    action: str
    inner: int


@dataclass(frozen=True, slots=True)
class Context:
    """``ctx(k)``: step ``k``'s equation under one one-hole context."""

    of: int


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
    | Context
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
    """Steps over an axiom system and an alphabet.  ``shared`` holds the
    nodes that the text format prints once, in a ``let``, and by name after
    that; it changes no step.  The :mod:`normalize` pipelines fill it with
    :func:`shared_nodes`, and :func:`parse_derivation` with the nodes that
    its ``let`` records declare."""

    system: str
    alphabet: Alphabet
    steps: tuple[Step, ...]
    shared: frozenset[Monitor] = frozenset()

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


def _outgrows(bindings: dict, alphabet: Alphabet, side: Monitor) -> bool:
    """Whether each O2 instance at ``bindings`` is larger than ``side``, the
    right side of a step that cites it.  A substitution replaces only ``x``,
    so the guard ``bar_k(s, k, yes + no)`` is a subterm of that side: it is
    ``k * |s| + 1`` prefixes deep and has a distinct subterm for each trace
    of length ``<= |s|`` that is not a prefix of ``s``.  False when no
    instance exists at ``bindings``: :func:`axioms.instantiate` says why."""
    s, k = bindings.get("s"), bindings.get("k")
    if not (isinstance(s, tuple) and s and isinstance(k, int) and k >= 1 and alphabet.is_finite):
        return False
    if k * len(s) + 1 > side.depth:
        return True
    count = sum(1 for _ in nodes(side))
    return axioms.trace_count(len(alphabet), len(s), count + len(s) + 1) - len(s) - 1 > count


def check_step(
    system: str,
    alphabet: Alphabet,
    prior: dict[int, Equation],
    step: Step,
    instances: dict,
) -> None:
    """Validate one step against already-checked prior steps.  ``system``
    names an axiom system: :func:`check_derivation` rejects any other.
    ``instances`` keeps the axiom instances built so far, by schema and
    bindings, for the steps of one derivation."""
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
        case Transitivity(sids):
            if len(sids) < 2:
                raise CheckError(sid, SHAPE_MISMATCH, "transitivity needs two steps")
            chain = [_ref(prior, k, sid) for k in sids]
            if any(e1.rhs is not e2.lhs for e1, e2 in zip(chain, chain[1:])):
                raise CheckError(
                    sid, SHAPE_MISMATCH, "middle terms of transitivity differ"
                )
            if eq != Equation(chain[0].lhs, chain[-1].rhs):
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
        case Context(of):
            hole = _ref(prior, of, sid)
            lhs, rhs = eq.lhs, eq.rhs
            while lhs is not hole.lhs or rhs is not hole.rhs:
                same = type(lhs) is type(rhs)
                if same and isinstance(lhs, Prefix) and lhs.action == rhs.action:
                    lhs, rhs = lhs.body, rhs.body
                elif same and isinstance(lhs, Sum) and lhs.left is rhs.left:
                    lhs, rhs = lhs.right, rhs.right
                elif same and isinstance(lhs, Sum) and lhs.right is rhs.right:
                    lhs, rhs = lhs.left, rhs.left
                else:
                    raise CheckError(
                        sid, SHAPE_MISMATCH, "no one-hole context leads to the cited step"
                    )
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
            inst = instances.get((name, bindings))
            if inst is None:
                if name == "O2" and _outgrows(dict(bindings), alphabet, eq.rhs):
                    msg = "each O2 instance at these bindings is larger than the step"
                    raise CheckError(sid, NOT_AN_INSTANCE, msg)
                try:
                    inst = axioms.instantiate(name, dict(bindings), alphabet)
                except ValueError as exc:
                    raise CheckError(sid, NOT_AN_INSTANCE, str(exc)) from exc
                instances[name, bindings] = inst
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
    instances: dict = {}
    for step in derivation.steps:
        if step.sid in prior:
            raise CheckError(step.sid, SHAPE_MISMATCH, "duplicate step id")
        check_step(derivation.system, derivation.alphabet, prior, step, instances)
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
    return f"{key}={syntax.print_trace(value) if key == 's' else value}"


def print_justification(
    just: Justification, show: Callable[[Monitor], str] = syntax.print_monitor
) -> str:
    """The text of ``just``, where ``show`` prints each term of its mapping."""
    match just:
        case Reflexivity():
            return "refl"
        case Symmetry(of):
            return f"sym({of})"
        case Transitivity(sids):
            return f"trans({', '.join(map(str, sids))})"
        case CongruenceSum(left, right):
            return f"sum({left}, {right})"
        case CongruencePrefix(action, inner):
            return f"prefix({action}, {inner})"
        case Context(of):
            return f"ctx({of})"
        case Substitutivity(of, subst):
            return f"subst({of}; {syntax.print_substitution(subst, show)})"
        case AxiomUse(name, bindings, subst):
            parts = [name]
            parts.extend(_print_binding(k, v) for k, v in bindings)
            if subst:
                parts.append(syntax.print_substitution(subst, show))
            return f"axiom({'; '.join(parts)})"
    raise TypeError(f"unknown justification {just!r}")


def _mapping(just: Justification) -> tuple[tuple[str, Monitor], ...]:
    return just.subst if isinstance(just, (Substitutivity, AxiomUse)) else ()


def shared_nodes(steps: Iterable[Step]) -> frozenset[Monitor]:
    """The prefix and sum nodes that the step lines of ``steps`` would print
    in full a second time: each node is walked once, and a node reached
    again is shared."""
    seen: set[Monitor] = set()
    shared: set[Monitor] = set()
    for step in steps:
        stack = [step.equation.lhs, step.equation.rhs]
        stack.extend(t for _, t in _mapping(step.justification))
        while stack:
            m = stack.pop()
            if m in seen:
                shared.add(m)
            elif isinstance(m, (Prefix, Sum)):
                seen.add(m)
                stack += (m.body,) if isinstance(m, Prefix) else (m.left, m.right)
    return frozenset(shared)


def _declare(
    m: Monitor, shared: frozenset[Monitor], names: dict[Monitor, str], lines: list[str]
) -> None:
    """Append a ``let`` for each node of ``m`` in ``shared`` that has no name
    yet, inner nodes first and left to right, and name it."""
    stack: list = [(m, False)]
    while stack:
        m, done = stack.pop()
        if done:
            text = syntax.print_term(m, names)
            names[m] = name = f"${len(names) + 1}"
            lines.append(f"let {name} := {text}")
        elif m not in names:
            if m in shared:
                stack.append((m, True))
            if isinstance(m, Prefix):
                stack.append((m.body, False))
            elif isinstance(m, Sum):
                stack += ((m.right, False), (m.left, False))


def print_derivation(derivation: Derivation, variables: Iterable[str] = ()) -> str:
    """The derivation file text.

    Each node in ``derivation.shared`` is printed once, in a ``let`` just
    before the first step line that reaches it, and by its name after that.
    """
    lines = [f"system: {derivation.system}", f"alphabet: {derivation.alphabet}"]
    variable_names = sorted(set(variables))
    if variable_names:
        lines.append(f"vars: {', '.join(variable_names)}")
    shared = derivation.shared
    names: dict[Monitor, str] = {}

    def show(m: Monitor) -> str:
        text = names.get(m)
        if text is None:
            if shared:
                _declare(m, shared, names, lines)
            text = names.get(m) or syntax.print_term(m, names)
        return text

    for step in derivation.steps:
        eq, just = step.equation, step.justification
        lhs, rhs = show(eq.lhs), show(eq.rhs)
        lines.append(f"step {step.sid}: {lhs} = {rhs} by {print_justification(just, show)}")
    return "\n".join(lines) + "\n"


def _parse_justification(text: str, term: Callable[[str], Monitor]) -> Justification:
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
        sids = [int(arg) for arg in args.split(",")]
        if len(sids) < 2:
            raise ValueError("trans needs two steps or more")
        return Transitivity(*sids)
    if head == "ctx":
        return Context(int(args))
    if head == "sum":
        left, right = args.split(",")
        return CongruenceSum(int(left), int(right))
    if head == "prefix":
        action, sid = (p.strip() for p in args.split(","))
        return CongruencePrefix(action, int(sid))
    if head == "subst":
        sid_text, semi, mapping = args.partition(";")
        if not semi:
            raise ValueError("subst needs a mapping after ';'")
        return Substitutivity(int(sid_text), syntax.parse_substitution(mapping, term))
    if head == "axiom":
        groups = [g.strip() for g in args.split(";")]
        name = groups[0]
        bindings: dict[str, object] = {}
        subst: tuple[tuple[str, Monitor], ...] = ()
        for group in groups[1:]:
            if "->" in group:
                if subst:
                    raise ValueError("axiom takes one mapping")
                subst = syntax.parse_substitution(group, term)
            elif "=" in group:
                key, _, value = group.partition("=")
                key = key.strip()
                if key in bindings:
                    raise ValueError(f"binding {key!r} is given twice")
                value = value.strip()
                if key == "s":
                    bindings[key] = syntax.parse_trace(value)
                elif key == "k":
                    bindings[key] = int(value)
                else:
                    bindings[key] = value
            elif group:
                raise ValueError(f"malformed axiom argument {group!r}")
        return AxiomUse(name, tuple(sorted(bindings.items())), subst)
    raise ValueError(f"unknown justification {head!r}")


def parse_derivation(text: str) -> tuple[Derivation, frozenset[str]]:
    """Parse the derivation file format; returns the derivation and the
    declared variable names (used for open-ended alphabets).

    A side, ``let`` body or mapping value that is one declared name is
    looked up, and so is a text seen before under the same headers; every
    other text is read by the :func:`syntax.reader` bound at the last
    header.  Names stay declared across headers: each stands for a term.
    """
    system: str | None = None
    alphabet: Alphabet | None = None
    variables: frozenset[str] = frozenset()
    steps: list[Step] = []
    names: dict[str, Monitor] = {}
    memo: dict[str, Monitor] = {}
    sizes: dict[Monitor, int] = {}
    read: Callable[..., Monitor | Equation] | None = None

    def term(text: str) -> Monitor:
        # Only the blanks the reader skips: other whitespace is an error.
        key = text.strip(" \t")
        m = names.get(key)
        if m is None:
            m = memo.get(key)
            if m is None:
                m = read(text)
                if key.count("$") > 1 and size_of(m, sizes) > TERM_LIMIT:
                    raise ValueError(f"a term with its names spelled out is over {TERM_LIMIT} nodes")
                memo[key] = m
        return m

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        line = raw.strip()
        record = line.partition(" ")[0]
        if record != "let" and record != "step":
            if line.startswith("system:"):
                system = line[len("system:") :].strip()
            elif line.startswith("alphabet:"):
                alphabet = syntax.parse_alphabet(line[len("alphabet:") :])
                read, memo = syntax.reader(alphabet, variables, names), {}
            elif line.startswith("vars:"):
                variables = variables | syntax.parse_vars(line[len("vars:") :])
                if alphabet is not None:
                    read, memo = syntax.reader(alphabet, variables, names), {}
            elif line:
                raise ValueError(f"line {lineno}: expected a step record")
            continue
        if system is None or alphabet is None:
            raise ValueError(f"line {lineno}: {record} before system/alphabet headers")
        if record == "let":
            name, assign, body = line[len("let ") :].partition(":=")
            name = name.strip()
            if not assign or not _NAME_RE.fullmatch(name):
                raise ValueError(f"line {lineno}: expected 'let $N := term'")
            if name in names:
                raise ValueError(f"line {lineno}: {name} is declared twice")
            try:
                names[name] = term(body)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            continue
        head, colon, body = line.partition(":")
        if not colon:
            raise ValueError(f"line {lineno}: missing ':'")
        sid_text = head[len("step ") :]
        try:
            sid = int(sid_text)
        except ValueError:
            raise ValueError(f"line {lineno}: step id {sid_text.strip()!r} is not a number") from None
        # ' by ' may occur inside terms (a variable could be named 'by'), so
        # try split points right to left until both halves parse.  The term
        # grammar has no '=' and no ',', so equations and mappings split into
        # their terms exactly.
        idx = len(body)
        last_error: Exception | None = None
        while True:
            idx = body.rfind(" by ", 0, idx)
            if idx < 0:
                raise ValueError(
                    f"line {lineno}: cannot parse step record"
                    + (f" ({last_error})" if last_error else "")
                )
            lhs, _, rhs = body[:idx].partition("=")
            try:
                try:
                    equation = Equation(term(lhs), term(rhs))
                except syntax.ParseError:
                    # Report the error where it lies in the whole equation.
                    equation = read(body[:idx], equation=True)
                justification = _parse_justification(body[idx + 4 :], term)
            except ValueError as exc:
                last_error = exc
                continue
            steps.append(Step(sid, equation, justification))
            break
    if system is None or alphabet is None:
        raise ValueError("missing system/alphabet headers")
    return Derivation(system, alphabet, tuple(steps), frozenset(names.values())), variables
