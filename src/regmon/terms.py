"""Core term algebra for recursion-free regular monitors.

Monitors are finite trees built from the three verdicts (``yes``, ``no``,
``end``), action prefixing, binary sum and variables.  Everything in this
module is an immutable value; all functions are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

RESERVED_WORDS = frozenset({"yes", "no", "end"})

IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT_PATTERN + r"\Z")

Trace = tuple[str, ...]


class NonClosedInput(ValueError):
    """An operation that requires a closed monitor was given an open one."""


def is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.match(name))


def check_name(name: str, what: str = "name") -> str:
    if not is_identifier(name):
        raise ValueError(f"invalid {what} {name!r}: not an identifier")
    if name in RESERVED_WORDS:
        raise ValueError(f"invalid {what} {name!r}: reserved word")
    return name


# ---------------------------------------------------------------------------
# Monitor terms


class Monitor:
    """Base class of monitor terms.  Instances compare structurally."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from . import syntax

        return f"<{syntax.print_monitor(self)}>"


@dataclass(frozen=True, slots=True, repr=False)
class End(Monitor):
    pass


@dataclass(frozen=True, slots=True, repr=False)
class Yes(Monitor):
    pass


@dataclass(frozen=True, slots=True, repr=False)
class No(Monitor):
    pass


@dataclass(frozen=True, slots=True, repr=False)
class Prefix(Monitor):
    action: str
    body: Monitor


@dataclass(frozen=True, slots=True, repr=False)
class Sum(Monitor):
    left: Monitor
    right: Monitor


@dataclass(frozen=True, slots=True, repr=False)
class Var(Monitor):
    name: str


END = End()
YES = Yes()
NO = No()

VERDICTS = (END, YES, NO)


def is_verdict(m: Monitor) -> bool:
    return isinstance(m, (End, Yes, No))


# ---------------------------------------------------------------------------
# Alphabets


@dataclass(frozen=True, slots=True)
class Alphabet:
    """A finite set of action names, or the open-ended (infinite) alphabet.

    ``actions`` is ``None`` for the open-ended alphabet, in which case any
    well-formed identifier counts as an action on demand.
    """

    actions: frozenset[str] | None

    @staticmethod
    def finite(names) -> "Alphabet":
        names = list(names)
        if not names:
            raise ValueError("a finite alphabet must be nonempty")
        seen = set()
        for n in names:
            check_name(n, "action")
            if n in seen:
                raise ValueError(f"duplicate action {n!r}")
            seen.add(n)
        return Alphabet(frozenset(seen))

    @staticmethod
    def open_ended() -> "Alphabet":
        return Alphabet(None)

    @property
    def is_finite(self) -> bool:
        return self.actions is not None

    def __contains__(self, name: str) -> bool:
        if self.actions is None:
            return is_identifier(name) and name not in RESERVED_WORDS
        return name in self.actions

    def sorted_actions(self) -> list[str]:
        if self.actions is None:
            raise ValueError("open-ended alphabet cannot be enumerated")
        return sorted(self.actions)

    def __len__(self) -> int:
        if self.actions is None:
            raise ValueError("open-ended alphabet has no size")
        return len(self.actions)

    def __str__(self) -> str:
        if self.actions is None:
            return "infinite"
        return ",".join(self.sorted_actions())


# ---------------------------------------------------------------------------
# Structural measures and traversals


def depth(m: Monitor) -> int:
    """Syntactic depth.  Variables count as depth 0 (like verdicts)."""
    match m:
        case Prefix(_, body):
            return 1 + depth(body)
        case Sum(left, right):
            return max(depth(left), depth(right))
        case _:
            return 0


def size_of(m: Monitor) -> int:
    """Number of AST nodes."""
    match m:
        case Prefix(_, body):
            return 1 + size_of(body)
        case Sum(left, right):
            return 1 + size_of(left) + size_of(right)
        case _:
            return 1


def vars_of(m: Monitor) -> frozenset[str]:
    match m:
        case Var(name):
            return frozenset((name,))
        case Prefix(_, body):
            return vars_of(body)
        case Sum(left, right):
            return vars_of(left) | vars_of(right)
        case _:
            return frozenset()


def actions_of(m: Monitor) -> frozenset[str]:
    match m:
        case Prefix(action, body):
            return actions_of(body) | {action}
        case Sum(left, right):
            return actions_of(left) | actions_of(right)
        case _:
            return frozenset()


def is_closed(m: Monitor) -> bool:
    match m:
        case Var(_):
            return False
        case Prefix(_, body):
            return is_closed(body)
        case Sum(left, right):
            return is_closed(left) and is_closed(right)
        case _:
            return True


def require_closed(m: Monitor, context: str = "operation") -> None:
    if not is_closed(m):
        raise NonClosedInput(
            f"{context} requires a closed monitor; free variables: "
            + ", ".join(sorted(vars_of(m)))
        )


def contains_verdict(m: Monitor, v: Monitor) -> bool:
    """Whether the verdict ``v`` occurs anywhere in ``m``."""
    if m == v:
        return True
    match m:
        case Prefix(_, body):
            return contains_verdict(body, v)
        case Sum(left, right):
            return contains_verdict(left, v) or contains_verdict(right, v)
        case _:
            return False


def summands(m: Monitor) -> Iterator[Monitor]:
    """Iterate the non-Sum leaves of the sum tree, left to right."""
    if isinstance(m, Sum):
        yield from summands(m.left)
        yield from summands(m.right)
    else:
        yield m


def sum_of(parts) -> Monitor:
    """Left-associated sum of ``parts``, dropping ``end`` summands.

    The empty sum denotes ``end``.
    """
    acc: Monitor | None = None
    for p in parts:
        if p == END:
            continue
        acc = p if acc is None else Sum(acc, p)
    return END if acc is None else acc


# ---------------------------------------------------------------------------
# Substitutions

Substitution = Mapping[str, Monitor]


def apply_subst(sigma: Substitution, m: Monitor) -> Monitor:
    """Replace every variable leaf by its image; unmapped variables stay."""
    match m:
        case Var(name):
            return sigma.get(name, m)
        case Prefix(action, body):
            return Prefix(action, apply_subst(sigma, body))
        case Sum(left, right):
            return Sum(apply_subst(sigma, left), apply_subst(sigma, right))
        case _:
            return m


# ---------------------------------------------------------------------------
# Equations


@dataclass(frozen=True, slots=True)
class Equation:
    lhs: Monitor
    rhs: Monitor

    def __str__(self) -> str:
        from . import syntax

        return f"{syntax.print_monitor(self.lhs)} = {syntax.print_monitor(self.rhs)}"


# ---------------------------------------------------------------------------
# AC-canonical representation (equality modulo A1, A2, A3, A4)


def sort_key(m: Monitor):
    """Total order on terms: verdicts (yes < no), prefixes, variables.

    ``end`` sorts first and sums last; neither occurs as a summand of a
    canonical sum, but both can appear in other positions.
    """
    match m:
        case End():
            return (0,)
        case Yes():
            return (1,)
        case No():
            return (2,)
        case Prefix(action, body):
            return (3, action, sort_key(body))
        case Var(name):
            return (4, name)
        case Sum(_, _):
            return (5, tuple(sort_key(p) for p in summands(m)))
    raise TypeError(f"not a monitor: {m!r}")


def ac_normalize(m: Monitor) -> Monitor:
    """Canonical representative modulo A1-A4, applied hereditarily.

    Sums are flattened, ``end`` summands dropped, duplicates removed (A3)
    and the rest sorted; prefix bodies are normalized recursively.
    """
    match m:
        case Prefix(action, body):
            return Prefix(action, ac_normalize(body))
        case Sum(_, _):
            parts = {ac_normalize(p) for p in summands(m) if p != END}
            return sum_of(sorted(parts, key=sort_key))
        case _:
            return m


def ac_equal(m: Monitor, n: Monitor) -> bool:
    """Equality modulo axioms A1-A4 (hereditarily under prefixes)."""
    return ac_normalize(m) == ac_normalize(n)
