"""Operational semantics: transitions, trace acceptance and trace languages.

The transition rules are the least relation with

* ``a.m --a--> m``
* ``m + n --l--> m'`` whenever ``m --l--> m'`` (and symmetrically)
* ``v --l--> v`` for every verdict ``v`` and every label, including the
  silent label

Variables have no transitions.  Acceptance and rejection go through the weak
transition relation, which closes each visible step under silent steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .terms import (
    NO,
    YES,
    Alphabet,
    Monitor,
    Prefix,
    Sum,
    Trace,
    actions_of,
    depth,
    is_identifier,
    is_verdict,
    require_closed,
)


class _Tau:
    """The silent label; never a member of any alphabet."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "tau"


TAU = _Tau()

Label = str | _Tau


def strong_steps(m: Monitor, label) -> frozenset[Monitor]:
    """One-step successors of ``m`` under ``label``."""
    if is_verdict(m):
        return frozenset((m,))
    match m:
        case Prefix(action, body):
            if label == action:
                return frozenset((body,))
            return frozenset()
        case Sum(left, right):
            return strong_steps(left, label) | strong_steps(right, label)
        case _:  # variables have no transitions
            return frozenset()


@lru_cache(maxsize=None)
def _tau_successors(m: Monitor) -> frozenset[Monitor]:
    return strong_steps(m, TAU)


def tau_closure(states: Iterable[Monitor]) -> frozenset[Monitor]:
    """Reflexive-transitive closure under silent steps."""
    closed = set(states)
    frontier = list(closed)
    while frontier:
        m = frontier.pop()
        for succ in _tau_successors(m):
            if succ not in closed:
                closed.add(succ)
                frontier.append(succ)
    return frozenset(closed)


@lru_cache(maxsize=None)
def _action_step(m: Monitor, action: str) -> frozenset[Monitor]:
    return strong_steps(m, action)


def step_state(state: frozenset[Monitor], action: str) -> frozenset[Monitor]:
    """Advance a silent-closed state set by one visible action."""
    nxt: set[Monitor] = set()
    for m in state:
        nxt.update(_action_step(m, action))
    return tau_closure(nxt)


def initial_state(m: Monitor) -> frozenset[Monitor]:
    return tau_closure((m,))


def weak_reach(m: Monitor, trace: Trace) -> frozenset[Monitor]:
    """All monitors reachable from ``m`` by weakly performing ``trace``."""
    state = initial_state(m)
    for action in trace:
        state = step_state(state, action)
    return state


def accepts(m: Monitor, trace: Trace) -> bool:
    require_closed(m, "accepts")
    return YES in weak_reach(m, trace)


def rejects(m: Monitor, trace: Trace) -> bool:
    require_closed(m, "rejects")
    return NO in weak_reach(m, trace)


# ---------------------------------------------------------------------------
# Trace languages as antichains


@dataclass(frozen=True, slots=True)
class TraceLang:
    """Minimal accepted / rejected traces of a closed monitor.

    Both components are prefix-free; the denoted languages are the upward
    closures ``accept_min . Act*`` and ``reject_min . Act*``.
    """

    accept_min: frozenset[Trace]
    reject_min: frozenset[Trace]


def covered_by(trace: Trace, antichain: frozenset[Trace]) -> bool:
    """Whether some member of the antichain is a prefix of ``trace``."""
    return any(trace[: len(t)] == t for t in antichain)


def fresh_action(avoid: Iterable[str], stem: str = "_f") -> str:
    taken = set(avoid)
    candidate = stem
    i = 0
    while candidate in taken or not is_identifier(candidate):
        i += 1
        candidate = f"{stem}{i}"
    return candidate


def exploration_actions(m: Monitor, alphabet: Alphabet) -> list[str]:
    """Actions to enumerate when exploring ``m``.

    For a finite alphabet this is the whole alphabet.  Open-ended alphabets
    cannot be enumerated; the actions occurring in the monitor plus a single
    fresh one characterize its behavior on all unseen actions.
    """
    if alphabet.is_finite:
        return alphabet.sorted_actions()
    occurring = actions_of(m)
    return sorted(occurring) + [fresh_action(occurring)]


def lang_of(m: Monitor, alphabet: Alphabet) -> TraceLang:
    """Antichain representation of the acceptance and rejection sets."""
    require_closed(m, "lang_of")
    actions = exploration_actions(m, alphabet)
    bound = depth(m)
    accept_min: set[Trace] = set()
    reject_min: set[Trace] = set()
    # Breadth-first over traces; a branch is closed once both verdicts are
    # covered (every extension is then non-minimal on both sides).
    frontier: list[tuple[Trace, frozenset[Monitor], bool, bool]] = [
        ((), initial_state(m), False, False)
    ]
    while frontier:
        nxt: list[tuple[Trace, frozenset[Monitor], bool, bool]] = []
        for trace, state, acc_seen, rej_seen in frontier:
            if not acc_seen and YES in state:
                accept_min.add(trace)
                acc_seen = True
            if not rej_seen and NO in state:
                reject_min.add(trace)
                rej_seen = True
            if acc_seen and rej_seen:
                continue
            if len(trace) >= bound:
                continue
            for action in actions:
                nxt.append(
                    (trace + (action,), step_state(state, action), acc_seen, rej_seen)
                )
        frontier = nxt
    return TraceLang(frozenset(accept_min), frozenset(reject_min))


def trace_key(trace: Trace):
    return (len(trace), trace)


def omega_canon(antichain: frozenset[Trace], alphabet: Alphabet) -> frozenset[Trace]:
    """Minimal antichain with the same omega-cone over a finite alphabet.

    Whenever every one-action extension of some trace belongs to the
    antichain, those members fold into their parent; repeated to fixpoint.
    """
    actions = alphabet.sorted_actions()
    current = set(antichain)
    changed = True
    while changed:
        changed = False
        parents = {t[:-1] for t in current if t}
        for parent in sorted(parents, key=trace_key, reverse=True):
            children = {parent + (a,) for a in actions}
            if children <= current:
                current -= children
                current.add(parent)
                changed = True
    return frozenset(current)
