"""Axiom schemas, their instantiation, and the named axiom systems.

Schemas take at most three kinds of parameter: an action, a trace ``s`` with
a repetition count ``k``, or a finite alphabet (for the summation forms).
The trace-indexed family ``O2`` is built from the bar constructors below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .terms import (
    END,
    NO,
    YES,
    Alphabet,
    Equation,
    Monitor,
    Prefix,
    Substitution,
    Sum,
    Trace,
    Var,
    apply_subst,
    sum_of,
    vars_of,
)

if TYPE_CHECKING:
    from .equivalence import Counterexample

X = Var("x")
Y = Var("y")
Z = Var("z")


class ArityMismatch(ValueError):
    pass


class InfiniteAlphabetForFiniteSchema(ValueError):
    pass


class MissingBounds(ValueError):
    pass


# ---------------------------------------------------------------------------
# Notation: pre(s), s.m, bar constructions


def prefix_seq(trace: Trace, m: Monitor) -> Monitor:
    """Right-nested prefix chain performing exactly ``trace`` and then ``m``."""
    out = m
    for action in reversed(trace):
        out = Prefix(action, out)
    return out


def pre_set(trace: Trace) -> set[Trace]:
    """All prefixes of ``trace``, including the empty trace and itself."""
    return {trace[:i] for i in range(len(trace) + 1)}


def traces_upto(
    length: int, alphabet: Alphabet, limit: int | None = None
) -> list[Trace]:
    """Every trace of length at most ``length``, shortest first and sorted
    within each length.  With ``limit``, no longer level is added once more
    than ``limit`` traces are listed."""
    actions = alphabet.sorted_actions()
    out: list[Trace] = [()]
    level: list[Trace] = [()]
    for _ in range(length):
        if limit is not None and len(out) > limit:
            break
        level = [t + (a,) for t in level for a in actions]
        out.extend(level)
    return out


def bar_leq(trace: Trace, m: Monitor, alphabet: Alphabet) -> Monitor:
    """Behaves like ``m`` after any non-prefix trace of length <= ``|trace|``."""
    prefixes = pre_set(trace)
    parts = [
        prefix_seq(t, m)
        for t in traces_upto(len(trace), alphabet)
        if t not in prefixes
    ]
    return sum_of(parts)


def action_fan(m: Monitor, alphabet: Alphabet) -> Monitor:
    """The summation of ``a.m`` over every action of a finite alphabet."""
    return sum_of(Prefix(a, m) for a in alphabet.sorted_actions())


def bar(trace: Trace, m: Monitor, alphabet: Alphabet) -> Monitor:
    return sum_of([bar_leq(trace, m, alphabet), prefix_seq(trace, action_fan(m, alphabet))])


def _repeat(trace: Trace, i: int) -> Trace:
    return trace * i


def bar_k(trace: Trace, k: int, m: Monitor, alphabet: Alphabet) -> Monitor:
    """The monitor that, after observing ``trace``, behaves like ``m`` on
    everything except ``trace**k`` and its prefixes.

    For ``k = 1`` this is ``bar``; for larger ``k`` the displayed summation
    runs ``s^i.bar_leq`` for ``i = 1 .. k-2`` and closes with
    ``s^(k-1).bar``, matching the worked ``k = 3`` expansion.
    """
    if not trace:
        raise ValueError("bar_k requires a nonempty trace")
    if k < 1:
        raise ValueError("bar_k requires k >= 1")
    if k == 1:
        return bar(trace, m, alphabet)
    parts = [
        prefix_seq(_repeat(trace, i), bar_leq(trace, m, alphabet))
        for i in range(1, k - 1)
    ]
    parts.append(prefix_seq(_repeat(trace, k - 1), bar(trace, m, alphabet)))
    return sum_of(parts)


# ---------------------------------------------------------------------------
# Schema catalog


@dataclass(frozen=True, slots=True)
class AxiomSchema:
    name: str
    params: tuple[str, ...]  # subset of ('action', 's', 'k', 'alphabet')


SCHEMAS: dict[str, AxiomSchema] = {
    s.name: s
    for s in (
        AxiomSchema("A1", ()),
        AxiomSchema("A2", ()),
        AxiomSchema("A3", ()),
        AxiomSchema("A4", ()),
        AxiomSchema("E_a", ("action",)),
        AxiomSchema("Y_a", ("action",)),
        AxiomSchema("N_a", ("action",)),
        AxiomSchema("D_a", ("action",)),
        AxiomSchema("Y", ("alphabet",)),
        AxiomSchema("N", ("alphabet",)),
        AxiomSchema("Y_w", ("alphabet",)),
        AxiomSchema("N_w", ("alphabet",)),
        AxiomSchema("O1", ()),
        AxiomSchema("O2", ("s", "k", "alphabet")),
        AxiomSchema("V1", ()),
        AxiomSchema("V1_w", ()),
    )
}

Bindings = Mapping[str, object]


@dataclass(frozen=True, slots=True)
class AxiomInstance:
    schema: str
    bindings: tuple[tuple[str, object], ...]
    equation: Equation


def _require_finite(name: str, alphabet: Alphabet | None) -> Alphabet:
    if alphabet is None or not alphabet.is_finite:
        raise InfiniteAlphabetForFiniteSchema(
            f"schema {name} needs a finite alphabet"
        )
    return alphabet


def _first_action(alphabet: Alphabet | None) -> str:
    alphabet = _require_finite("V1", alphabet)
    return alphabet.sorted_actions()[0]


def instantiate(
    name: str, bindings: Bindings = {}, alphabet: Alphabet | None = None
) -> AxiomInstance:
    """Build the instance equation of a schema at the given parameters.

    ``V1`` and ``V1_w`` take no parameters; they use the first action of the
    ambient alphabet (over a singleton alphabet, its only action).
    """
    if name not in SCHEMAS:
        raise ArityMismatch(f"unknown axiom schema {name!r}")
    schema = SCHEMAS[name]
    expected = {p for p in schema.params if p != "alphabet"}
    given = set(bindings)
    if given != expected:
        raise ArityMismatch(
            f"schema {name} takes parameters {sorted(expected)}, got {sorted(given)}"
        )
    if name == "A1":
        eq = Equation(Sum(X, Y), Sum(Y, X))
    elif name == "A2":
        eq = Equation(Sum(X, Sum(Y, Z)), Sum(Sum(X, Y), Z))
    elif name == "A3":
        eq = Equation(Sum(X, X), X)
    elif name == "A4":
        eq = Equation(Sum(X, END), X)
    elif name == "E_a":
        a = str(bindings["action"])
        eq = Equation(Prefix(a, END), END)
    elif name == "Y_a":
        a = str(bindings["action"])
        eq = Equation(YES, Sum(YES, Prefix(a, YES)))
    elif name == "N_a":
        a = str(bindings["action"])
        eq = Equation(NO, Sum(NO, Prefix(a, NO)))
    elif name == "D_a":
        a = str(bindings["action"])
        eq = Equation(Prefix(a, Sum(X, Y)), Sum(Prefix(a, X), Prefix(a, Y)))
    elif name == "Y":
        fin = _require_finite(name, alphabet)
        eq = Equation(YES, Sum(YES, action_fan(YES, fin)))
    elif name == "N":
        fin = _require_finite(name, alphabet)
        eq = Equation(NO, Sum(NO, action_fan(NO, fin)))
    elif name == "Y_w":
        fin = _require_finite(name, alphabet)
        eq = Equation(YES, action_fan(YES, fin))
    elif name == "N_w":
        fin = _require_finite(name, alphabet)
        eq = Equation(NO, action_fan(NO, fin))
    elif name == "O1":
        eq = Equation(Sum(YES, NO), Sum(Sum(YES, NO), X))
    elif name == "O2":
        fin = _require_finite(name, alphabet)
        s = tuple(bindings["s"])
        k = int(bindings["k"])  # type: ignore[arg-type]
        guard = bar_k(s, k, Sum(YES, NO), fin)
        eq = Equation(Sum(Sum(X, prefix_seq(s, X)), guard), Sum(X, guard))
    elif name == "V1":
        a = _first_action(alphabet)
        eq = Equation(X, Sum(X, Prefix(a, X)))
    elif name == "V1_w":
        a = _first_action(alphabet)
        eq = Equation(X, Prefix(a, X))
    else:  # pragma: no cover
        raise AssertionError(name)
    frozen = tuple(sorted(bindings.items()))
    return AxiomInstance(name, frozen, eq)


# ---------------------------------------------------------------------------
# Axiom systems (named sets of schemas)

EV_CORE = ("A1", "A2", "A3", "A4", "E_a", "Y_a", "N_a", "D_a", "Y", "N")

SYSTEM_SCHEMAS: dict[str, frozenset[str]] = {
    "Ev": frozenset(EV_CORE),
    "Ev'": frozenset(EV_CORE + ("O1",)),
    "Evf'": frozenset(EV_CORE + ("O1", "O2")),
    "Ev1'": frozenset(EV_CORE + ("O1", "V1")),
    "Eomega": frozenset(EV_CORE + ("Y_w", "N_w")),
    "Eomega1'": frozenset(("A1", "A2", "A3", "A4", "V1_w", "O1")),
    "Eomegaf'": frozenset(EV_CORE + ("Y_w", "N_w", "O1", "O2")),
}

# The combined summation forms Y and N are derivable from the Y_a / N_a
# families over any finite alphabet, so they are admitted as members of
# every system that carries those families.


def is_axiom_in_system(schema: str, system: str) -> bool:
    if system not in SYSTEM_SCHEMAS:
        raise ValueError(f"unknown axiom system {system!r}")
    return schema in SYSTEM_SCHEMAS[system]


def list_system(
    system: str,
    alphabet: Alphabet,
    max_trace_len: int | None = None,
    max_k: int | None = None,
) -> list[AxiomInstance]:
    """All instances of a system over a finite alphabet.

    The per-action schemas enumerate the alphabet; the infinite O2 family
    needs explicit bounds on ``|s|`` and ``k``.
    """
    if system not in SYSTEM_SCHEMAS:
        raise ValueError(f"unknown axiom system {system!r}")
    schemas = SYSTEM_SCHEMAS[system]
    fin = _require_finite(system, alphabet)
    out: list[AxiomInstance] = []
    for name in ("A1", "A2", "A3", "A4", "O1", "V1", "V1_w"):
        if name in schemas:
            out.append(instantiate(name, {}, fin))
    for name in ("E_a", "Y_a", "N_a", "D_a"):
        if name in schemas:
            for a in fin.sorted_actions():
                out.append(instantiate(name, {"action": a}, fin))
    for name in ("Y_w", "N_w"):
        if name in schemas:
            out.append(instantiate(name, {}, fin))
    if "O2" in schemas:
        if max_trace_len is None or max_k is None:
            raise MissingBounds(
                f"system {system} contains the O2 family; give max_trace_len and max_k"
            )
        for s in traces_upto(max_trace_len, fin):
            if not s:
                continue
            for k in range(1, max_k + 1):
                out.append(instantiate("O2", {"s": s, "k": k}, fin))
    return out


# The combined Y / N forms are derivable and omitted from listings; Ev over a
# one-action alphabet therefore lists 4 + 4 instances.


# ---------------------------------------------------------------------------
# Soundness fuzzing


@dataclass(frozen=True, slots=True)
class FuzzReport:
    instance: AxiomInstance
    mode: str
    trials: int
    failures: tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def soundness_fuzz(
    instance: AxiomInstance,
    alphabet: Alphabet,
    mode: str,
    trials: int,
    seed: int = 0,
    max_depth: int = 3,
) -> FuzzReport:
    """Check an instance against random closed substitutions.

    ``mode`` is ``"verdict"`` or ``"omega"``.  Per-trial seeds derive
    deterministically from ``(seed, trial index)``.
    """
    from . import equivalence
    from .generate import random_closed_monitor

    fin = _require_finite("soundness_fuzz", alphabet)
    variables = sorted(vars_of(instance.equation.lhs) | vars_of(instance.equation.rhs))
    failures: list[Counterexample] = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        sigma: Substitution = {
            v: random_closed_monitor(rng, fin, max_depth) for v in variables
        }
        lhs = apply_subst(sigma, instance.equation.lhs)
        rhs = apply_subst(sigma, instance.equation.rhs)
        cex = equivalence.closed_search(lhs, rhs, fin, mode, tuple(sorted(sigma.items())))
        if cex is not None:
            failures.append(cex)
    return FuzzReport(instance, mode, trials, tuple(failures))


def witness_family(n: int, alphabet: Alphabet) -> Equation:
    """The n-th member of the one-sided witness family: the O2 instance at
    ``s = a^n`` and ``k = 3``."""
    if n < 1:
        raise ValueError("witness_family requires n >= 1")
    fin = _require_finite("witness_family", alphabet)
    if "a" not in fin:
        raise ValueError("witness_family uses the action 'a'")
    return instantiate("O2", {"s": ("a",) * n, "k": 3}, fin).equation
