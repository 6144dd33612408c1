"""Axiom schemas, their instantiation, and the named axiom systems.

Schemas take at most three kinds of parameter: an action, a trace ``s`` with
a repetition count ``k``, or a finite alphabet (for the summation forms).
The trace-indexed family ``O2`` is built from the bar constructors below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

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


class ResourceLimit(ValueError):
    """A size asked for is over its fixed limit; raised before building."""


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


def trace_count(width: int, length: int, cap: int) -> int:
    """The number of traces of length at most ``length`` over ``width``
    actions, as :func:`traces_upto` lists them; once that is over ``cap``,
    no longer level is counted."""
    if width == 1:
        return length + 1
    count = level = 1
    while length and count <= cap:
        level, length = level * width, length - 1
        count += level
    return count


def bar_leq(trace: Trace, m: Monitor, alphabet: Alphabet) -> Monitor:
    """Behaves like ``m`` after any non-prefix trace of length <= ``|trace|``.
    Over one action there is none, so nothing is listed."""
    if len(alphabet) == 1:
        return END
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
    parts = [prefix_seq(trace * i, bar_leq(trace, m, alphabet)) for i in range(1, k - 1)]
    parts.append(prefix_seq(trace * (k - 1), bar(trace, m, alphabet)))
    return sum_of(parts)


# ---------------------------------------------------------------------------
# Schema catalog

Bindings = Mapping[str, object]
Builder = Callable[[Bindings, Alphabet], Equation]


class Schema(NamedTuple):
    """A row of the schema table: the parameters, a subset of ``('action', 's',
    'k', 'alphabet')`` where ``alphabet`` asks for a finite one; the builder
    of the instance equation from the bindings and that alphabet; and whether
    :func:`list_system` lists the schema (derivable ones it does not)."""

    params: tuple[str, ...]
    build: Builder
    listed: bool = True


def _per_action(f: Callable[[str], Equation]) -> Builder:
    return lambda b, fin: f(str(b["action"]))


def _first_action_of(f: Callable[[str], Equation]) -> Builder:
    return lambda b, fin: f(fin.sorted_actions()[0])


def _o2(b: Bindings, fin: Alphabet) -> Equation:
    s = tuple(b["s"])  # type: ignore[call-overload]
    guard = bar_k(s, int(b["k"]), Sum(YES, NO), fin)  # type: ignore[call-overload]
    return Equation(Sum(Sum(X, prefix_seq(s, X)), guard), Sum(X, guard))


# In the order list_system lists them.  The combined summation forms Y and N
# follow from the Y_a / N_a families over any finite alphabet, so every
# system that carries those admits them, and no listing shows them.
SCHEMAS: dict[str, Schema] = {
    "A1": Schema((), lambda b, fin: Equation(Sum(X, Y), Sum(Y, X))),
    "A2": Schema((), lambda b, fin: Equation(Sum(X, Sum(Y, Z)), Sum(Sum(X, Y), Z))),
    "A3": Schema((), lambda b, fin: Equation(Sum(X, X), X)),
    "A4": Schema((), lambda b, fin: Equation(Sum(X, END), X)),
    "O1": Schema((), lambda b, fin: Equation(Sum(YES, NO), Sum(Sum(YES, NO), X))),
    "V1": Schema(("alphabet",), _first_action_of(lambda a: Equation(X, Sum(X, Prefix(a, X))))),
    "V1_w": Schema(("alphabet",), _first_action_of(lambda a: Equation(X, Prefix(a, X)))),
    "E_a": Schema(("action",), _per_action(lambda a: Equation(Prefix(a, END), END))),
    "Y_a": Schema(("action",), _per_action(lambda a: Equation(YES, Sum(YES, Prefix(a, YES))))),
    "N_a": Schema(("action",), _per_action(lambda a: Equation(NO, Sum(NO, Prefix(a, NO))))),
    "D_a": Schema(
        ("action",),
        _per_action(lambda a: Equation(Prefix(a, Sum(X, Y)), Sum(Prefix(a, X), Prefix(a, Y)))),
    ),
    "Y_w": Schema(("alphabet",), lambda b, fin: Equation(YES, action_fan(YES, fin))),
    "N_w": Schema(("alphabet",), lambda b, fin: Equation(NO, action_fan(NO, fin))),
    "O2": Schema(("s", "k", "alphabet"), _o2),
    "Y": Schema(
        ("alphabet",), lambda b, fin: Equation(YES, Sum(YES, action_fan(YES, fin))), False
    ),
    "N": Schema(
        ("alphabet",), lambda b, fin: Equation(NO, Sum(NO, action_fan(NO, fin))), False
    ),
}


@dataclass(frozen=True, slots=True)
class AxiomInstance:
    schema: str
    bindings: tuple[tuple[str, object], ...]
    equation: Equation


def _require_finite(subject: str, alphabet: Alphabet | None) -> Alphabet:
    if alphabet is None or not alphabet.is_finite:
        raise InfiniteAlphabetForFiniteSchema(f"{subject} needs a finite alphabet")
    return alphabet


def instantiate(
    name: str, bindings: Bindings = {}, alphabet: Alphabet | None = None
) -> AxiomInstance:
    """Build the instance equation of a schema at the given parameters.

    ``V1`` and ``V1_w`` take no bindings; they use the first action of the
    finite alphabet (over a singleton alphabet, its only action).
    """
    if name not in SCHEMAS:
        raise ArityMismatch(f"unknown axiom schema {name!r}")
    params, build, _ = SCHEMAS[name]
    expected = set(params) - {"alphabet"}
    if set(bindings) != expected:
        raise ArityMismatch(
            f"schema {name} takes parameters {sorted(expected)}, got {sorted(bindings)}"
        )
    if "alphabet" in params:
        alphabet = _require_finite(f"schema {name}", alphabet)
    return AxiomInstance(name, tuple(sorted(bindings.items())), build(bindings, alphabet))


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


def list_system(
    system: str,
    alphabet: Alphabet,
    max_trace_len: int | None = None,
    max_k: int | None = None,
) -> list[AxiomInstance]:
    """All instances of a system over a finite alphabet, schema by schema:
    one per action for a schema with an ``action``, one per nonempty ``s``
    with ``|s| <= max_trace_len`` and ``k <= max_k`` for O2, one otherwise.
    """
    if system not in SYSTEM_SCHEMAS:
        raise ValueError(f"unknown axiom system {system!r}")
    schemas = SYSTEM_SCHEMAS[system]
    fin = _require_finite(f"system {system}", alphabet)
    if "O2" in schemas and (max_trace_len is None or max_k is None):
        raise MissingBounds(
            f"system {system} contains the O2 family; give max_trace_len and max_k"
        )
    if "O2" in schemas and min(max_trace_len, max_k) < 1:
        raise ValueError(
            f"system {system} contains the O2 family; max_trace_len and max_k must be >= 1"
        )
    if "O2" in schemas:
        # At least the nodes that the guards spell out.  At ``|s| = n`` and
        # ``k``, a guard has the chains ``s^i`` for ``i < k``, one ``s``
        # before its fan, and ``max(1, k - 1)`` copies of ``bar_leq``, whose
        # parts are the non-prefix traces of length ``<= n``, each ``n + 1``
        # nodes deep.  Summed over ``k <= max_k``, then over ``n`` until over
        # the limit.
        chains = (max_k + 1) * max_k * (max_k - 1) // 6 + max_k
        size, copies = 0, 1 + max_k * (max_k - 1) // 2
        for n in range(1, max_trace_len + 1):
            if size > SIZE_LIMIT:
                break
            others = trace_count(len(fin), n, SIZE_LIMIT) - n - 1
            size += len(fin) ** n * (n * chains + copies * (n + 1) * others)
        if size > SIZE_LIMIT:
            raise ResourceLimit(
                f"system {system}: the O2 family with |s| <= {max_trace_len} and k <= {max_k}"
                f" over {fin} has size {size} or more, over the limit of {SIZE_LIMIT}"
            )
    out: list[AxiomInstance] = []
    for name, (params, _, listed) in SCHEMAS.items():
        if name not in schemas or not listed:
            continue
        if "action" in params:
            family: list[Bindings] = [{"action": a} for a in fin.sorted_actions()]
        elif "s" in params:
            family = [
                {"s": s, "k": k}
                for s in traces_upto(max_trace_len, fin)[1:]
                for k in range(1, max_k + 1)
            ]
        else:
            family = [{}]
        out.extend(instantiate(name, b, fin) for b in family)
    return out


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
    equivalence._require_mode(mode)
    if trials < 0:
        raise ValueError(f"soundness_fuzz requires trials >= 0, got {trials}")
    variables = sorted(vars_of(instance.equation.lhs) | vars_of(instance.equation.rhs))
    failures: list[Counterexample] = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        sigma: Substitution = {
            v: random_closed_monitor(rng, fin, max_depth) for v in variables
        }
        cex = equivalence.closed_search(
            instance.equation.lhs, instance.equation.rhs, fin, mode, tuple(sorted(sigma.items()))
        )
        if cex is not None:
            failures.append(cex)
    return FuzzReport(instance, mode, trials, tuple(failures))


# The largest witness instance or O2 listing.  Over two actions or more,
# building a witness instance lists each trace of length ``<= n``, so its
# size is their number times ``n + 1``.  ``n = 16`` over {a,b} (2,228,207)
# prints 22.5 MB in about 10 s; each further ``n`` more than doubles that.
SIZE_LIMIT = 2_500_000


def witness_instance(n: int, alphabet: Alphabet) -> AxiomInstance:
    """The n-th member of the one-sided witness family: the O2 instance at
    ``s = a^n`` and ``k = 3``.  One over :data:`SIZE_LIMIT` raises
    :class:`ResourceLimit` before it is built."""
    if n < 1:
        raise ValueError("witness_family requires n >= 1")
    fin = _require_finite("witness_family", alphabet)
    if "a" not in fin:
        raise ValueError("witness_family uses the action 'a'")
    w = len(fin)
    count = trace_count(w, n, SIZE_LIMIT)
    # Over one action ``bar_leq`` lists nothing: the sides ``x + a^n.x + G``
    # and ``x + G``, with ``G = a^n.end + a^(3n+1).(yes + no)``, have 9n + 18
    # nodes.
    size = 9 * n + 18 if w == 1 else (n + 1) * count
    if size > SIZE_LIMIT:
        if w > 1 and count > SIZE_LIMIT:  # the count may stop short: estimate
            size = f"about 10^{int(math.log10(n + 1) + (n + 1) * math.log10(w) - math.log10(w - 1))}"
        raise ResourceLimit(
            f"witness_family n={n} over {fin}: size {size} is over the limit of {SIZE_LIMIT}"
        )
    return instantiate("O2", {"s": ("a",) * n, "k": 3}, fin)


def witness_family(n: int, alphabet: Alphabet) -> Equation:
    """The equation of :func:`witness_instance`."""
    return witness_instance(n, alphabet).equation
