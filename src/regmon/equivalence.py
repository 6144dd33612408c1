"""Decision procedures for verdict and omega-verdict equivalence.

The entry point is :func:`decide`.  Closed terms are compared by a product
search over determinized reachable state sets; the omega variant
additionally folds the trace antichains to their minimal omega-cone
generators.  Open terms go through the canonical form that
:func:`open_form` picks by mode and alphabet cardinality.  An independent
brute-force substitution oracle is provided for validation.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from . import normalize, semantics
from .semantics import (
    initial_state,
    lang_of,
    omega_canon,
    step_state,
    trace_key,
)
from .terms import (
    END,
    NO,
    YES,
    Alphabet,
    Monitor,
    Substitution,
    Sum,
    Trace,
    ac_equal,
    actions_of,
    apply_subst,
    depth,
    is_closed,
    require_closed,
    vars_of,
)
from .axioms import prefix_seq, traces_upto

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


def _flag_mismatch(sa, sb) -> str | None:
    a_yes, b_yes = YES in sa, YES in sb
    if a_yes != b_yes:
        return ACCEPTED_ONLY_BY_LEFT if a_yes else ACCEPTED_ONLY_BY_RIGHT
    a_no, b_no = NO in sa, NO in sb
    if a_no != b_no:
        return REJECTED_ONLY_BY_LEFT if a_no else REJECTED_ONLY_BY_RIGHT
    return None


def closed_counterexample(
    m: Monitor, n: Monitor, alphabet: Alphabet
) -> tuple[Trace, str] | None:
    """Shortest (then lexicographically least) trace separating two closed
    monitors, or ``None`` if they are verdict equivalent."""
    require_closed(m, "verdict equivalence")
    require_closed(n, "verdict equivalence")
    actions = semantics.exploration_actions(Sum(m, n), alphabet)
    start = (initial_state(m), initial_state(n))
    seen = {start}
    queue: deque[tuple[tuple, Trace]] = deque([(start, ())])
    while queue:
        (sa, sb), trace = queue.popleft()
        side = _flag_mismatch(sa, sb)
        if side is not None:
            return trace, side
        for action in actions:
            nxt = (step_state(sa, action), step_state(sb, action))
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, trace + (action,)))
    return None


def verdict_equiv_closed(m: Monitor, n: Monitor, alphabet: Alphabet) -> bool:
    return closed_counterexample(m, n, alphabet) is None


def omega_closed_counterexample(
    m: Monitor, n: Monitor, alphabet: Alphabet
) -> tuple[Trace, str] | None:
    """A trace whose omega-cone membership separates two closed monitors.

    With an open-ended alphabet the notions coincide, so this delegates to
    the verdict comparison.
    """
    require_closed(m, "omega-verdict equivalence")
    require_closed(n, "omega-verdict equivalence")
    if not alphabet.is_finite:
        return closed_counterexample(m, n, alphabet)
    if verdict_equiv_closed(m, n, alphabet):
        return None
    lm, ln = lang_of(m, alphabet), lang_of(n, alphabet)
    acc_m = omega_canon(lm.accept_min, alphabet)
    acc_n = omega_canon(ln.accept_min, alphabet)
    rej_m = omega_canon(lm.reject_min, alphabet)
    rej_n = omega_canon(ln.reject_min, alphabet)
    witnesses = [
        (t, side)
        for mine, theirs, side in (
            (acc_m, acc_n, ACCEPTED_ONLY_BY_LEFT),
            (acc_n, acc_m, ACCEPTED_ONLY_BY_RIGHT),
            (rej_m, rej_n, REJECTED_ONLY_BY_LEFT),
            (rej_n, rej_m, REJECTED_ONLY_BY_RIGHT),
        )
        for t in mine - theirs
        if not semantics.covered_by(t, theirs)
    ]
    if not witnesses:
        return None
    return min(witnesses, key=lambda w: trace_key(w[0]))


def omega_equiv_closed(m: Monitor, n: Monitor, alphabet: Alphabet) -> bool:
    return omega_closed_counterexample(m, n, alphabet) is None


def closed_search(
    m: Monitor, n: Monitor, alphabet: Alphabet, mode: str, substitution=()
) -> Counterexample | None:
    """Run the product search of ``mode`` on two closed monitors; a
    separating trace comes back as a counterexample under ``substitution``
    (the pairs that closed the two monitors, if any)."""
    if mode == VERDICT:
        found = closed_counterexample(m, n, alphabet)
    else:
        found = omega_closed_counterexample(m, n, alphabet)
    return None if found is None else Counterexample(substitution, *found)


# ---------------------------------------------------------------------------
# The substitution oracle for open terms


def substitution_values(
    alphabet: Alphabet, bound: int, max_values: int = 2048
) -> list[Monitor]:
    """The probe values: the three verdicts plus ``t.yes``, ``t.no`` and
    ``t.(yes + no)`` for every trace ``t`` of length at most ``bound``,
    enumerated shortest-first and truncated at ``max_values``."""
    values: list[Monitor] = [END, YES, NO]
    seen = set(values)
    for t in traces_upto(bound, alphabet, limit=max_values):
        for leaf in (YES, NO, Sum(YES, NO)):
            v = prefix_seq(t, leaf)
            if v not in seen:
                seen.add(v)
                values.append(v)
        if len(values) >= max_values:
            break
    return values


def substitution_family(
    variables,
    alphabet: Alphabet,
    bound: int,
    cap: int = 4096,
    seed: int = 0,
    max_values: int = 2048,
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
    values = substitution_values(alphabet, bound, max_values=max_values)
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


def _oracle_failures(m, n, alphabet, mode, bound, cap, seed):
    if not alphabet.is_finite:
        raise ValueError("the oracle needs a finite alphabet")
    if bound is None:
        bound = depth(m) + depth(n) + 2
    variables = vars_of(m) | vars_of(n)
    for sigma in substitution_family(variables, alphabet, bound, cap=cap, seed=seed):
        cex = closed_search(
            apply_subst(sigma, m),
            apply_subst(sigma, n),
            alphabet,
            mode,
            tuple(sorted(sigma.items())),
        )
        if cex is not None:
            yield cex


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
    The result is therefore independent of evaluation order.
    """
    best: Counterexample | None = None
    for cex in _oracle_failures(m, n, alphabet, mode, bound, cap, seed):
        if best is None or len(cex.trace) < len(best.trace):
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
    for _ in _oracle_failures(m, n, alphabet, mode, bound, cap, seed):
        return False
    return True


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
        sigma[v] = prefix_seq((a,), Sum(YES, NO))
    return sigma


def open_form(mode: str, alphabet: Alphabet):
    """The canonical-form pipeline that decides ``mode`` equivalence of open
    terms over ``alphabet``, by the completeness result for its cardinality.

    ``None`` for an open-ended alphabet: there the two equivalences coincide
    and open terms are decided under :func:`fresh_substitution` instead.
    """
    if not alphabet.is_finite:
        return None
    unary = len(alphabet) == 1
    if mode == VERDICT:
        kind = normalize.UNARY_RNF if unary else normalize.FIN_RNF
    else:
        kind = normalize.UNARY_OMEGA_NF if unary else normalize.OPEN_OMEGA_NF
    return normalize.PIPELINES[kind]


def _open_equal(m: Monitor, n: Monitor, alphabet: Alphabet, mode: str) -> bool:
    form = open_form(mode, alphabet)
    if form is None:
        sigma = fresh_substitution(m, n)
        return verdict_equiv_closed(
            apply_subst(sigma, m), apply_subst(sigma, n), alphabet
        )
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
