"""Operational semantics: transitions, trace acceptance and trace languages.

The transition rules are the least relation with

* ``a.m --a--> m``
* ``m + n --l--> m'`` whenever ``m --l--> m'`` (and symmetrically)
* ``v --l--> v`` for every verdict ``v`` and every label, including the
  silent label

Variables have no transitions.  Acceptance and rejection go through the weak
transition relation, which closes each visible step under silent steps.
Each term memoises its weak successors on its own node (see
:class:`.terms.Monitor`): on its first step, one walk of its summands fills
a flat tuple with its verdict summands ``V`` and, for each action a summand
carries, its successors under that action; every other action reads ``V``.
This module keeps no table of terms.

:func:`initial_state` and :func:`step_state` also step an open term under a
closed substitution without building the instance: :func:`closing`
tabulates the images of each open node's variable summands for one search,
an open member ``t`` of a state stands for ``t[sigma]``, and the images are
stepped as the search reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .terms import (
    NO,
    YES,
    Alphabet,
    Monitor,
    Prefix,
    Substitution,
    Trace,
    Var,
    actions_of,
    is_identifier,
    is_verdict,
    require_closed,
    summands,
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


def strong_steps(m: Monitor, label) -> frozenset[Monitor]:
    """One-step successors of ``m`` under ``label``: the verdict summands of
    ``m`` and the bodies of its ``label``-prefixed summands (variables have
    no transitions)."""
    out = set()
    for p in summands(m):
        if is_verdict(p):
            out.add(p)
        elif isinstance(p, Prefix) and p.action == label:
            out.add(p.body)
    return frozenset(out)


def tau_closure(states: Iterable[Monitor]) -> frozenset[Monitor]:
    """Reflexive-transitive closure under silent steps.  One step from each
    member closes the set: a silent step only reaches a verdict summand, and
    a verdict's only silent step leads back to itself."""
    closed = set(states)
    for m in tuple(closed):
        closed |= strong_steps(m, TAU)
    return frozenset(closed)


def _successors(m: Monitor) -> tuple:
    """``m``'s weak successors, from one walk of its summands: the flat tuple
    ``(V, a1, S1, a2, S2, ...)``.  ``V`` holds ``m``'s verdict summands, which
    are its silent successors and its weak successors under every action that
    no summand carries.  Each action ``a`` that a summand carries comes with
    ``S``: ``V``, the bodies of the ``a``-prefixed summands and the verdict
    summands of those bodies, without repeats."""
    verdicts: dict[Monitor, None] = {}
    bodies: dict[str, list[Monitor]] = {}
    for p in summands(m):
        if is_verdict(p):
            verdicts[p] = None
        elif isinstance(p, Prefix):
            bodies.setdefault(p.action, []).append(p.body)
    table = [tuple(verdicts)]
    for action, heads in bodies.items():
        succ = dict(verdicts)
        for body in heads:
            succ[body] = None
            for q in summands(body):
                if is_verdict(q):
                    succ[q] = None
        table += (action, tuple(succ))
    return tuple(table)


def _weak_step(m: Monitor, label) -> tuple[Monitor, ...]:
    """``m``'s weak ``label`` successors, read from the table memoised on
    its node.  The table holds subterms of ``m`` (or ``m`` itself, a
    verdict), so it keeps nothing alive that ``m`` does not; threads that
    race store equal tables."""
    table = m._steps
    if table is None:
        table = _successors(m)
        object.__setattr__(m, "_steps", table)
    # Only an action slot can equal a label: ``V`` and each ``S`` are tuples.
    if label in table:
        return table[table.index(label) + 1]
    return table[0]


def closing(monitors: Iterable[Monitor], substitution: Substitution) -> dict | None:
    """``substitution`` tabulated for stepping ``monitors`` under it, by one
    walk of their open nodes: each of ``monitors`` and each open prefix body
    in them maps to the images of its variable summands.  ``None`` when
    ``substitution`` leaves a variable of ``monitors`` unmapped or maps it to
    an open term."""
    table: dict = {}
    stack = [m for m in monitors if not m.closed]
    while stack:
        t = stack.pop()
        if t in table:
            continue
        images = []
        for p in summands(t):
            if isinstance(p, Var):
                image = substitution.get(p.name)
                if image is None or not image.closed:
                    return None
                images.append(image)
            elif isinstance(p, Prefix) and not p.body.closed:
                stack.append(p.body)
        table[t] = tuple(images)
    return table


def step_state(
    state: frozenset[Monitor], action: str, substitution: dict | None = None
) -> frozenset[Monitor]:
    """Advance a silent-closed state set by one visible action.  Silent
    closure distributes over union, so this is the union of the members'
    weak steps.

    With ``substitution``, from :func:`closing`, an open member ``t``
    stands for its instance under it.  Its weak steps are its own, those of
    the images of its variable summands, and the verdict summands of the
    images of the variable summands of each open body it reaches."""
    nxt: set[Monitor] = set()
    for m in state:
        succ = _weak_step(m, action)
        nxt.update(succ)
        if substitution is None or m.closed:
            continue
        for image in substitution[m]:
            nxt.update(_weak_step(image, action))
        for body in succ:
            if not body.closed:
                for image in substitution[body]:
                    nxt.update(_weak_step(image, TAU))
    return frozenset(nxt)


def initial_state(m: Monitor, substitution: dict | None = None) -> frozenset[Monitor]:
    """``m`` and its silent successors: ``V`` of its table, which is what
    every label that no summand carries reads.  With ``substitution`` (see
    :func:`step_state`), an open ``m`` also gets the verdict summands of the
    images of its variable summands."""
    state = (m, *_weak_step(m, TAU))
    if substitution is None or m.closed:
        return frozenset(state)
    for image in substitution[m]:
        state += _weak_step(image, TAU)
    return frozenset(state)


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
    return _exploration_actions((m,), alphabet)


def _exploration_actions(monitors: Iterable[Monitor], alphabet: Alphabet) -> list[str]:
    """:func:`exploration_actions` of the sum of ``monitors``, without
    building that sum."""
    if alphabet.is_finite:
        return alphabet.sorted_actions()
    occurring = frozenset().union(*map(actions_of, monitors))
    return sorted(occurring) + [fresh_action(occurring)]


def lang_of(m: Monitor, alphabet: Alphabet) -> TraceLang:
    """Antichain representation of the acceptance and rejection sets."""
    require_closed(m, "lang_of")
    actions = exploration_actions(m, alphabet)
    accept_min: set[Trace] = set()
    reject_min: set[Trace] = set()
    # Breadth-first over traces; a branch closes once both verdicts are
    # covered or its state holds only verdicts (extensions add nothing).
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
            if acc_seen and rej_seen or all(map(is_verdict, state)):
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
