"""Size-targeted, seed-deterministic monitor generator for the benchmark.

``sized_term`` draws a term with an exact node count (as ``size_of`` counts
them), a cap on prefix depth, a variable pool and an alphabet.  Equivalent
partners come from random instances of the sound ``Ev`` axioms (A1-A4, E_a,
Y_a, N_a, D_a) applied at random positions; near-miss partners flip one
leaf.  Long-pattern chains are ``s.v`` for a random trace ``s``.  Every function
takes a ``random.Random`` and touches no other state, so the same seed
gives the same terms.
"""

from __future__ import annotations

import random

from regmon.terms import END, NO, YES, Monitor, Prefix, Sum, Var

VERDICTS = (END, YES, NO)
# Chance that a node with room for either becomes a prefix rather than a sum;
# above one half, so that terms reach their depth cap on the larger sizes.
P_PREFIX = 0.55


def _feasible(n: int, depth_left: int) -> bool:
    # Sums alone cannot spend an even number of nodes; prefixes can.
    return n >= 1 and (depth_left >= 1 or n % 2 == 1)


def sized_term(
    rng: random.Random,
    nodes: int,
    max_depth: int,
    actions: tuple[str, ...],
    var_pool: tuple[str, ...] = (),
) -> Monitor:
    """A random term of exactly ``nodes`` nodes and prefix depth <= ``max_depth``."""
    if not _feasible(nodes, max_depth):
        raise ValueError(f"no term of {nodes} nodes fits depth {max_depth}")
    leaves = [END] * 6 + [YES, NO] + [Var(v) for v in var_pool] * 2

    def build(n: int, d: int) -> Monitor:
        if n == 1:
            return rng.choice(leaves)
        can_prefix = d >= 1 and _feasible(n - 1, d - 1)
        # A sum splits n - 1 nodes in two; without depth left both halves are odd.
        can_sum = n >= 3 and (d >= 1 or n % 2 == 1)
        if can_prefix and (not can_sum or rng.random() < P_PREFIX):
            return Prefix(rng.choice(actions), build(n - 1, d - 1))
        k = rng.randint(1, n - 2) if d >= 1 else 2 * rng.randint(0, (n - 3) // 2) + 1
        return Sum(build(k, d), build(n - 1 - k, d))

    return build(nodes, max_depth)


def chain(rng: random.Random, length: int, actions: tuple[str, ...], leaf: Monitor) -> Monitor:
    """``s.leaf`` for a random trace ``s`` of ``length`` actions.

    The trace is drawn action by action, so that two chains of a stream
    share no long suffix and each pays for its own states.
    """
    out = leaf
    for _ in range(length):
        out = Prefix(rng.choice(actions), out)
    return out


# ---------------------------------------------------------------------------
# Positions


def _positions(m: Monitor) -> list[tuple[tuple[int, ...], Monitor]]:
    out = []
    stack = [((), m)]
    while stack:
        path, t = stack.pop()
        out.append((path, t))
        if isinstance(t, Prefix):
            stack.append((path + (0,), t.body))
        elif isinstance(t, Sum):
            stack.append((path + (0,), t.left))
            stack.append((path + (1,), t.right))
    return out


def _replace(m: Monitor, path: tuple[int, ...], new: Monitor) -> Monitor:
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(m, Prefix):
        return Prefix(m.action, _replace(m.body, rest, new))
    if head == 0:
        return Sum(_replace(m.left, rest, new), m.right)
    return Sum(m.left, _replace(m.right, rest, new))


def _size(m: Monitor) -> int:
    return len(_positions(m))


# ---------------------------------------------------------------------------
# Sound Ev rewrites, each at one node; None when the node does not match.


def _rewrite(rng: random.Random, t: Monitor, actions: tuple[str, ...]) -> Monitor | None:
    a = rng.choice(actions)
    rule = rng.choice(("A1", "A2", "A3", "A4", "E_a", "Y_a", "N_a", "D_a"))
    forward = rng.random() < 0.5
    if rule == "A1":
        return Sum(t.right, t.left) if isinstance(t, Sum) else None
    if rule == "A2":
        if forward and isinstance(t, Sum) and isinstance(t.right, Sum):
            return Sum(Sum(t.left, t.right.left), t.right.right)
        if not forward and isinstance(t, Sum) and isinstance(t.left, Sum):
            return Sum(t.left.left, Sum(t.left.right, t.right))
        return None
    if rule == "A3":
        if isinstance(t, Sum) and t.left == t.right:
            return t.left
        return Sum(t, t) if forward and _size(t) <= 5 else None
    if rule == "A4":
        if isinstance(t, Sum) and t.right == END:
            return t.left
        return Sum(t, END) if forward else None
    if rule == "E_a":
        if isinstance(t, Prefix) and t.body == END:
            return END
        return Prefix(a, END) if t == END else None
    if rule in ("Y_a", "N_a"):
        v = YES if rule == "Y_a" else NO
        if t == v:
            return Sum(v, Prefix(a, v))
        if isinstance(t, Sum) and t.left == v and isinstance(t.right, Prefix) and t.right.body == v:
            return v
        return None
    # D_a
    if isinstance(t, Prefix) and isinstance(t.body, Sum):
        return Sum(Prefix(t.action, t.body.left), Prefix(t.action, t.body.right))
    if (
        isinstance(t, Sum)
        and isinstance(t.left, Prefix)
        and isinstance(t.right, Prefix)
        and t.left.action == t.right.action
    ):
        return Prefix(t.left.action, Sum(t.left.body, t.right.body))
    return None


def equivalent_partner(
    rng: random.Random, m: Monitor, actions: tuple[str, ...], rewrites: int
) -> Monitor:
    """Apply ``rewrites`` random sound Ev axiom instances at random positions."""
    done = 0
    while done < rewrites:
        path, t = rng.choice(_positions(m))
        new = _rewrite(rng, t, actions)
        if new is not None:
            m = _replace(m, path, new)
            done += 1
    return m


def flip_leaf(rng: random.Random, m: Monitor) -> Monitor:
    """Replace one verdict leaf by another verdict (a near-miss)."""
    leaves = [(p, t) for p, t in _positions(m) if t in VERDICTS]
    if not leaves:
        leaves = [(p, t) for p, t in _positions(m) if isinstance(t, Var)]
    path, t = rng.choice(leaves)
    return _replace(m, path, rng.choice([v for v in (YES, NO) if v != t]))
