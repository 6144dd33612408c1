"""Decision procedures for verdict and omega-verdict equivalence.

The entry point is :func:`decide`.  Closed terms are compared by one product
search over determinized reachable state sets; the two equivalences differ
only in the flags read off each state: whether it holds ``yes`` and ``no``,
or whether every infinite continuation from it is accepted and rejected.
Open terms go through the canonical form that :func:`open_form` picks by
mode and alphabet cardinality.  An independent brute-force substitution
oracle is provided for validation.

The product search also runs on two open terms under a closed substitution
(:func:`closed_search`): it steps the open terms through
:func:`.semantics.step_state`, which applies the substitution as the search
reaches each variable, so no instance of either term is built.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from . import semantics
from .semantics import initial_state, step_state
from .terms import (
    END,
    NO,
    YES,
    Alphabet,
    Monitor,
    Prefix,
    Substitution,
    Sum,
    Trace,
    ac_equal,
    actions_of,
    apply_subst,
    depth,
    is_closed,
    is_verdict,
    require_closed,
    vars_of,
)

VERDICT = "verdict"
OMEGA = "omega"

ACCEPTED_ONLY_BY_LEFT = "AcceptedOnlyByLeft"
ACCEPTED_ONLY_BY_RIGHT = "AcceptedOnlyByRight"
REJECTED_ONLY_BY_LEFT = "RejectedOnlyByLeft"
REJECTED_ONLY_BY_RIGHT = "RejectedOnlyByRight"


@dataclass(frozen=True, slots=True)
class Counterexample:
    """A substitution and trace on which two monitors disagree.

    The substitution is the identity (empty) for closed inputs.  Replaying
    the trace through the semantics reproduces the disagreement.
    """

    substitution: tuple[tuple[str, Monitor], ...]
    trace: Trace
    side: str


def _require_mode(mode: str) -> None:
    if mode not in (VERDICT, OMEGA):
        raise ValueError(f"unknown mode {mode!r}: expected 'verdict' or 'omega'")


def _verdict_flags(state) -> tuple[bool, bool]:
    return YES in state, NO in state


def _cone_flags(step, actions):
    """Flags of a state: is every infinite continuation accepted, is every
    one rejected.  A step shrinks the largest non-verdict member of a state,
    so apart from the self-loops of verdict-only states the states form a
    DAG, filled bottom-up into a table that lives for one search."""
    memo: dict = {}

    def flags(state) -> tuple[bool, bool]:
        stack = [(state, None)]
        while stack:
            s, succ = stack.pop()
            if s in memo:
                continue
            if all(map(is_verdict, s)):
                memo[s] = _verdict_flags(s)
            elif succ is None:
                succ = [step(s, a) for a in actions]
                stack.append((s, succ))
                stack.extend((t, None) for t in succ if t not in memo)
            else:
                memo[s] = (
                    YES in s or all(memo[t][0] for t in succ),
                    NO in s or all(memo[t][1] for t in succ),
                )
        return memo[state]

    return flags


def _flag_mismatch(fa, fb) -> str | None:
    if fa[0] != fb[0]:
        return ACCEPTED_ONLY_BY_LEFT if fa[0] else ACCEPTED_ONLY_BY_RIGHT
    if fa[1] != fb[1]:
        return REJECTED_ONLY_BY_LEFT if fa[1] else REJECTED_ONLY_BY_RIGHT
    return None


def closed_counterexample(
    m: Monitor,
    n: Monitor,
    alphabet: Alphabet,
    mode: str = VERDICT,
    limit: int | None = None,
    table: dict | None = None,
) -> tuple[Trace, str] | None:
    """Shortest (then lexicographically least) trace separating two closed
    monitors in ``mode``, or ``None`` if they are equivalent.  Both modes'
    flags only turn true as a trace grows, so the first trace whose flags
    differ is a minimal generator that one side has and the other lacks.
    With ``limit``, traces longer than ``limit`` are not searched.

    With ``table``, a substitution tabulated by :func:`.semantics.closing`,
    ``m`` and ``n`` may be open and stand for their instances under it
    (see :func:`closed_search`)."""
    if table is None:
        require_closed(m, "verdict equivalence")
        require_closed(n, "verdict equivalence")
        monitors = (m, n)
    else:
        # The images, each of them a value of the table, bring their actions.
        monitors = itertools.chain((m, n), *table.values())
    actions = semantics._exploration_actions(monitors, alphabet)
    # One successor table for the search: the cone flags and the product
    # step through the same states.
    successors: dict = {}

    def step(state, action):
        key = (state, action)
        nxt = successors.get(key)
        if nxt is None:
            nxt = successors[key] = step_state(state, action, table)
        return nxt

    flags = _verdict_flags if mode == VERDICT else _cone_flags(step, actions)
    start = (initial_state(m, table), initial_state(n, table))
    seen = {start}
    queue: deque[tuple[tuple, Trace]] = deque([(start, ())])
    while queue:
        (sa, sb), trace = queue.popleft()
        side = _flag_mismatch(flags(sa), flags(sb))
        if side is not None:
            return trace, side
        if len(trace) == limit:
            continue
        for action in actions:
            nxt = (step(sa, action), step(sb, action))
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, trace + (action,)))
    return None


def verdict_equiv_closed(m: Monitor, n: Monitor, alphabet: Alphabet) -> bool:
    return closed_counterexample(m, n, alphabet) is None


def omega_closed_counterexample(
    m: Monitor,
    n: Monitor,
    alphabet: Alphabet,
    limit: int | None = None,
    table: dict | None = None,
) -> tuple[Trace, str] | None:
    """A trace whose omega-cone membership separates two closed monitors
    (or two open ones under ``table``, as in :func:`closed_counterexample`).
    Verdict-equivalent monitors are omega equivalent, and over an open-ended
    alphabet the notions coincide, so the verdict search runs first.  Under
    a ``limit`` it cannot rule a pair out: a shortest omega trace may be
    shorter than every verdict trace."""
    if table is None:
        require_closed(m, "omega-verdict equivalence")
        require_closed(n, "omega-verdict equivalence")
    if not alphabet.is_finite:
        return closed_counterexample(m, n, alphabet, limit=limit, table=table)
    if limit is None and closed_counterexample(m, n, alphabet, table=table) is None:
        return None
    return closed_counterexample(m, n, alphabet, OMEGA, limit, table)


def omega_equiv_closed(m: Monitor, n: Monitor, alphabet: Alphabet) -> bool:
    return omega_closed_counterexample(m, n, alphabet) is None


def closed_search(
    m: Monitor, n: Monitor, alphabet: Alphabet, mode: str, substitution=(), limit=None
) -> Counterexample | None:
    """Run the product search of ``mode`` on ``m`` and ``n`` under
    ``substitution``, the pairs ``(variable, closed monitor)`` that close
    them (none for closed monitors).  The substitution is applied during the
    search, and no instance is built.  A separating trace of length at most
    ``limit`` comes back as a counterexample under ``substitution``; a free
    variable that it leaves unmapped raises :class:`NonClosedInput` before
    anything is searched."""
    _require_mode(mode)
    table = None
    if substitution:
        sigma = dict(substitution)
        table = semantics.closing((m, n), sigma)
        if table is None:
            # Name the free variables of the instances, as their own check would.
            context = "verdict equivalence" if mode == VERDICT else "omega-verdict equivalence"
            require_closed(apply_subst(sigma, m), context)
            require_closed(apply_subst(sigma, n), context)
    if mode == VERDICT:
        found = closed_counterexample(m, n, alphabet, limit=limit, table=table)
    else:
        found = omega_closed_counterexample(m, n, alphabet, limit=limit, table=table)
    return None if found is None else Counterexample(substitution, *found)


# ---------------------------------------------------------------------------
# The substitution oracle for open terms


# The most probe values that the oracle tries for one variable.
_MAX_VALUES = 2048


def substitution_values(alphabet: Alphabet, bound: int) -> list[Monitor]:
    """The probe values: the three verdicts plus ``t.yes``, ``t.no`` and
    ``t.(yes + no)`` for every trace ``t`` of length at most ``bound``,
    enumerated shortest-first and truncated at ``_MAX_VALUES``."""
    from .axioms import prefix_seq, traces_upto

    values: list[Monitor] = [END, YES, NO]
    seen = set(values)
    for t in traces_upto(bound, alphabet, limit=_MAX_VALUES):
        for leaf in (YES, NO, Sum(YES, NO)):
            v = prefix_seq(t, leaf)
            if v not in seen:
                seen.add(v)
                values.append(v)
        if len(values) >= _MAX_VALUES:
            break
    return values


def substitution_family(
    variables,
    alphabet: Alphabet,
    bound: int,
    cap: int = 4096,
    seed: int = 0,
) -> list[Substitution]:
    """Closed substitutions probing the given variables.

    The full product of the value set over the variables is returned when it
    fits under ``cap``; otherwise the family keeps every map with a single
    non-``end`` variable plus a seeded sample of the rest.
    """
    if bound < 1:
        raise ValueError("substitution_family requires bound >= 1")
    names = sorted(set(variables))
    if not names:
        return [{}]
    values = substitution_values(alphabet, bound)
    total = len(values) ** len(names)
    if total <= cap:
        return [
            dict(zip(names, combo))
            for combo in itertools.product(values, repeat=len(names))
        ]
    family: list[Substitution] = []
    seen: set[tuple[int, ...]] = set()
    # Single-variable-active maps first: one variable gets each value, the
    # others are end.  These carry the separating probes of the open case.
    for vi, name in enumerate(names):
        for ci, value in enumerate(values):
            key = tuple(ci if i == vi else 0 for i in range(len(names)))
            if key not in seen:
                seen.add(key)
                family.append(
                    {n: (value if n == name else END) for n in names}
                )
    rng = random.Random(seed)
    attempts = 0
    while len(family) < cap and attempts < 20 * cap:
        attempts += 1
        key = tuple(rng.randrange(len(values)) for _ in names)
        if key in seen:
            continue
        seen.add(key)
        family.append({n: values[i] for n, i in zip(names, key)})
    return family


def _family_pairs(m, n, alphabet, bound, cap, seed):
    """The pairs of each substitution of the oracle's family for ``m`` and
    ``n``, in family order."""
    if not alphabet.is_finite:
        raise ValueError("the oracle needs a finite alphabet")
    if bound is None:
        bound = depth(m) + depth(n) + 2
    variables = vars_of(m) | vars_of(n)
    for sigma in substitution_family(variables, alphabet, bound, cap=cap, seed=seed):
        yield tuple(sorted(sigma.items()))


def oracle_counterexample(
    m: Monitor,
    n: Monitor,
    alphabet: Alphabet,
    mode: str = VERDICT,
    bound: int | None = None,
    cap: int = 4096,
    seed: int = 0,
) -> Counterexample | None:
    """Brute-force search over the substitution family.

    The reported counterexample is minimal: shortest separating trace
    first, ties broken by the position of the substitution in the family.
    The result is therefore independent of evaluation order.  After the
    first failure, each later search is cut off below the length of the
    best trace so far.
    """
    best: Counterexample | None = None
    for pairs in _family_pairs(m, n, alphabet, bound, cap, seed):
        limit = None if best is None else len(best.trace) - 1
        cex = closed_search(m, n, alphabet, mode, pairs, limit)
        if cex is not None:
            best = cex
            if not best.trace:
                break
    return best


def oracle_equiv_open(
    m: Monitor,
    n: Monitor,
    alphabet: Alphabet,
    mode: str = VERDICT,
    bound: int | None = None,
    cap: int = 4096,
    seed: int = 0,
) -> bool:
    """Whether the oracle finds no separating substitution (stops at the
    first failure)."""
    return all(
        closed_search(m, n, alphabet, mode, pairs) is None
        for pairs in _family_pairs(m, n, alphabet, bound, cap, seed)
    )


# ---------------------------------------------------------------------------
# Open-term decision procedures (canonical forms)


def fresh_substitution(m: Monitor, n: Monitor) -> dict[str, Monitor]:
    """Map each variable to ``a_x.(yes + no)`` for pairwise-distinct fresh
    actions absent from both terms (the infinite-alphabet reduction)."""
    used = set(actions_of(m) | actions_of(n))
    sigma: dict[str, Monitor] = {}
    for v in sorted(vars_of(m) | vars_of(n)):
        a = semantics.fresh_action(used, stem=f"_fx_{v}")
        used.add(a)
        sigma[v] = Prefix(a, Sum(YES, NO))
    return sigma


def open_form(mode: str, alphabet: Alphabet):
    """The canonical-form pipeline that decides ``mode`` equivalence of open
    terms over ``alphabet``, by the completeness result for its cardinality.

    ``None`` for an open-ended alphabet: there the two equivalences coincide
    and open terms are decided under :func:`fresh_substitution` instead.
    """
    _require_mode(mode)
    if not alphabet.is_finite:
        return None
    from . import normalize

    unary = len(alphabet) == 1
    if mode == VERDICT:
        kind = normalize.UNARY_RNF if unary else normalize.FIN_RNF
    else:
        kind = normalize.UNARY_OMEGA_NF if unary else normalize.OPEN_OMEGA_NF
    return normalize.PIPELINES[kind]


def _open_equal(m: Monitor, n: Monitor, alphabet: Alphabet, mode: str) -> bool:
    form = open_form(mode, alphabet)
    if form is None:
        pairs = tuple(fresh_substitution(m, n).items())
        return closed_search(m, n, alphabet, VERDICT, pairs) is None
    return ac_equal(form(m, alphabet).term, form(n, alphabet).term)


def verdict_equiv_open(m: Monitor, n: Monitor, alphabet: Alphabet) -> bool:
    """Verdict equivalence of (possibly) open monitors."""
    return _open_equal(m, n, alphabet, VERDICT)


def omega_equiv_open(m: Monitor, n: Monitor, alphabet: Alphabet) -> bool:
    """Omega-verdict equivalence of (possibly) open monitors."""
    return _open_equal(m, n, alphabet, OMEGA)


@dataclass(frozen=True, slots=True)
class Decision:
    """The answer of :func:`decide`.

    ``counterexample`` replays the disagreement when one was found: always
    for inequivalent closed terms, and for open terms over a finite alphabet
    when the substitution oracle finds one within its bound.
    """

    equal: bool
    counterexample: Counterexample | None


def decide(
    m: Monitor,
    n: Monitor,
    alphabet: Alphabet,
    mode: str,
    bound: int | None = None,
    seed: int = 0,
) -> Decision:
    """Decide ``mode`` equivalence of two monitors.

    Closed pairs go to the product search, open pairs to the canonical form
    of :func:`open_form`; ``bound`` and ``seed`` steer only the oracle search
    for an open pair's counterexample.
    """
    _require_mode(mode)
    if is_closed(m) and is_closed(n):
        cex = closed_search(m, n, alphabet, mode)
        return Decision(cex is None, cex)
    if mode == VERDICT:
        equal = verdict_equiv_open(m, n, alphabet)
    else:
        equal = omega_equiv_open(m, n, alphabet)
    if equal or not alphabet.is_finite:
        return Decision(equal, None)
    cex = oracle_counterexample(m, n, alphabet, mode, bound=bound, seed=seed)
    return Decision(False, cex)
