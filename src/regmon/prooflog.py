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
"""

from __future__ import annotations

import re
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
    nodes,
)

_PAREN_RE = re.compile(r"[()]")

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
    n = len(alphabet)
    traces = len(s) + 1 if n == 1 else (n ** (len(s) + 1) - 1) // (n - 1)
    return traces - len(s) - 1 > sum(1 for _ in nodes(side))


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
    if key == "s":
        return f"s={' '.join(value)}" if value else "s=<eps>"
    return f"{key}={value}"


def print_justification(just: Justification, table: dict[Monitor, str] | None = None) -> str:
    """The text of ``just``; ``table`` is a print table for the terms of its
    mapping (see :func:`syntax.print_term`)."""
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
            return f"subst({of}; {syntax.print_substitution(subst, table)})"
        case AxiomUse(name, bindings, subst):
            parts = [name]
            parts.extend(_print_binding(k, v) for k, v in bindings)
            if subst:
                parts.append(syntax.print_substitution(subst, table))
            return f"axiom({'; '.join(parts)})"
    raise TypeError(f"unknown justification {just!r}")


def print_derivation(derivation: Derivation, variables: Iterable[str] = ()) -> str:
    """The derivation file text.

    One print table serves the whole derivation, so a term is walked only
    down to the sides, summands and prefix bodies printed before it, and
    each step costs about what changed since the steps it cites.
    """
    lines = [f"system: {derivation.system}", f"alphabet: {derivation.alphabet}"]
    names = sorted(set(variables))
    if names:
        lines.append(f"vars: {', '.join(names)}")
    table: dict[Monitor, str] = {}
    for step in derivation.steps:
        eq = step.equation
        lhs = table.get(eq.lhs) or syntax.print_term(eq.lhs, table)
        rhs = table.get(eq.rhs) or syntax.print_term(eq.rhs, table)
        lines.append(
            f"step {step.sid}: {lhs} = {rhs} by {print_justification(step.justification, table)}"
        )
    return "\n".join(lines) + "\n"


# A mark on the stack of :meth:`_TermTable._summand`: add up the two top
# terms.
_SUM = object()


def _openings(text: str) -> dict[int, int]:
    """The offset of each matched ``)`` of ``text`` -> that of its ``(``."""
    opening: dict[int, int] = {}
    stack: list[int] = []
    for mo in _PAREN_RE.finditer(text):
        if mo.group() == "(":
            stack.append(mo.start())
        elif stack:
            opening[mo.start()] = stack.pop()
    return opening


class _TermTable:
    """Side text -> term, for one derivation under fixed headers.

    ``terms`` maps text to term and ``texts`` is the derivation's print
    table, term to text (see :func:`syntax.print_term`); every side is
    printed through ``texts``, which records the side, its top-level
    summands and their prefix bodies in both.  A side text that is not in
    ``terms`` is assembled from known pieces: top-level summands are peeled
    off its right until a known left spine remains, and each peeled summand
    is known, or a prefix chain over a known body, or parsed alone.  A
    parenthesized body that is new is assembled the same way when it has a
    known left spine, at any nesting, by a loop over an explicit stack.  The
    assembled term is kept only if it prints back to exactly the text, which
    by the print/parse round trip makes it the term :func:`syntax.
    parse_monitor` returns; anything else is left to ``parse_monitor``, so
    every result and every error is the parser's.  The checker's
    comparisons are identity tests whatever the table does: equal terms are
    one interned object.  The term grammar has no ``=`` and no ``,``, so
    equations and mappings split into their terms exactly.
    """

    def __init__(self, alphabet: Alphabet, variables: frozenset[str]):
        self.alphabet = alphabet
        self.variables = variables
        self.terms: dict[str, Monitor] = {}
        self.texts: dict[Monitor, str] = {}
        # The lengths of the texts in ``terms``: a piece is looked up only
        # at a length that some known text has.
        self.lengths: set[int] = set()

    def __setitem__(self, text: str, term: Monitor) -> None:
        self.terms[text] = term
        self.lengths.add(len(text))

    def term(self, text: str) -> Monitor:
        # Only the blanks the tokenizer skips: other whitespace is an error.
        key = text.strip(" \t")
        term = self.terms.get(key)
        if term is None:
            try:
                term = self._assemble(key)
            except syntax.ParseError:
                term = None
            if term is None or syntax.print_term(term, self.texts, self) != key:
                term = syntax.parse_monitor(text, self.alphabet, self.variables)
                syntax.print_term(term, self.texts, self)
            self[key] = term
        return term

    def _assemble(self, key: str) -> Monitor | None:
        """``key`` built from a known left spine and its peeled summands, or
        None if no prefix of ``key`` before a top-level ``+`` is known."""
        cuts = [len(key)]  # the top-level ' + ' peeled so far, right to left
        idx = len(key)
        depth = 0  # ')' minus '(' right of idx: 0 at a top-level ' + '
        left = None
        while left is None:
            split = key.rfind(" + ", 0, idx)
            if split < 0:
                break
            depth += key.count(")", split, idx) - key.count("(", split, idx)
            idx = split
            if depth == 0:
                cuts.append(split)
                left = self._known(key, 0, split)
        if left is None:
            if len(cuts) > 1:
                return None
            return self._summand(key)
        for i in range(len(cuts) - 1, 0, -1):
            left = Sum(left, self._summand(key[cuts[i] + 3 : cuts[i - 1]]))
        return left

    def _summand(self, text: str) -> Monitor:
        """The term of a summand text: known, or a prefix chain over a body
        that is known, or new and parenthesized with a known left spine, or
        parsed alone.

        A new body's summands are terms of the same kind, so the text is
        built by a loop over an explicit stack, and no nesting depth
        recurses: the stack holds slices of ``text`` to build, ``_SUM``
        marks (add the top term to the one below it) and tuples of actions
        (prefix the top term with them).
        """
        term = self.terms.get(text)
        if term is not None:
            return term
        opening: dict[int, int] | None = None
        todo: list = [slice(0, len(text))]
        built: list[Monitor] = []
        while todo:
            item = todo.pop()
            if item is _SUM:
                right = built.pop()
                built[-1] = Sum(built[-1], right)
                continue
            if isinstance(item, tuple):
                term = built[-1]
                for action in reversed(item):
                    term = Prefix(action, term)
                built[-1] = term
                continue
            start, end = item.start, item.stop
            term = self._known(text, start, end)
            if term is None:
                # ``a.b.(x + y)`` or ``a.b.x``: the chain ``a.b`` and the
                # body.  Any other text splits into pieces that do not print
                # back to it.
                paren = text.find("(", start, end)
                if paren >= 0:
                    chain, body = text[start : max(paren - 1, start)], (paren + 1, end - 1)
                else:
                    dot = text.rfind(".", start, end)
                    chain, body = text[start : max(dot, start)], (max(dot + 1, start), end)
                actions = tuple(chain.split(".")) if chain else ()
                if all(map(self._is_action, actions)):
                    left, pieces = self._known(text, *body), []
                    if left is None and paren >= 0:
                        if opening is None:
                            opening = _openings(text)
                        left, pieces = self._spine(text, *body, opening)
                    if left is not None:
                        built.append(left)
                        todo.append(actions)
                        for piece in reversed(pieces):
                            todo += (_SUM, piece)
                        continue
                term = syntax.parse_monitor(text[start:end], self.alphabet, self.variables)
            built.append(term)
        return built[0]

    def _known(self, text: str, start: int, end: int) -> Monitor | None:
        """The known term of ``text[start:end]``; the slice is taken only at
        a length that some known text has."""
        return self.terms.get(text[start:end]) if end - start in self.lengths else None

    def _spine(
        self, text: str, start: int, end: int, opening: dict[int, int]
    ) -> tuple[Monitor | None, list[slice]]:
        """The longest known left spine of the body ``text[start:end]`` and
        the slices of the summands after it; None for the spine if none is
        known.  ``opening`` leads from each summand's closing parenthesis to
        its opening one, so each summand costs one step."""
        cuts = [end]  # the top-level ' + ' peeled so far, right to left
        left = None
        while left is None:
            idx = cuts[-1]
            split = text.rfind(" + ", start, opening.get(idx - 1, idx))
            if split < 0:
                return None, []
            cuts.append(split)
            left = self._known(text, start, split)
        return left, [slice(cuts[i] + 3, cuts[i - 1]) for i in range(len(cuts) - 1, 0, -1)]

    def _is_action(self, name: str) -> bool:
        # As the parser decides it: the alphabet's actions, or with an
        # open-ended alphabet every undeclared name.
        return name in self.alphabet and (
            self.alphabet.is_finite or name not in self.variables
        )

    def equation(self, text: str) -> Equation:
        lhs, _, rhs = text.partition("=")
        try:
            return Equation(self.term(lhs), self.term(rhs))
        except syntax.ParseError:
            # Report the error where it lies in the whole equation.
            return syntax.parse_equation(text, self.alphabet, self.variables)


def _parse_mapping(text: str, table: _TermTable) -> tuple[tuple[str, Monitor], ...]:
    out: dict[str, Monitor] = {}
    text = text.strip()
    if not text:
        return ()
    for part in text.split(","):
        name, arrow, term_text = part.partition("->")
        if not arrow:
            raise ValueError(f"expected 'x -> term' in {part!r}")
        name = name.strip()
        if name in out:
            raise ValueError(f"variable {name!r} is mapped twice")
        out[name] = table.term(term_text)
    return tuple(sorted(out.items(), key=lambda pair: pair[0]))


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
                if subst:
                    raise ValueError("axiom takes one mapping")
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
        if "#" in raw:
            raw = raw[: raw.index("#")]
        line = raw.strip()
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
        idx = len(body)
        last_error: Exception | None = None
        while True:
            idx = body.rfind(" by ", 0, idx)
            if idx < 0:
                raise ValueError(
                    f"line {lineno}: cannot parse step record"
                    + (f" ({last_error})" if last_error else "")
                )
            try:
                equation = table.equation(body[:idx])
                justification = _parse_justification(body[idx + 4 :], table)
            except ValueError as exc:
                last_error = exc
                continue
            steps.append(Step(sid, equation, justification))
            break
    if system is None or alphabet is None:
        raise ValueError("missing system/alphabet headers")
    return Derivation(system, alphabet, tuple(steps)), variables
