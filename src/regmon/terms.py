"""Core term algebra for recursion-free regular monitors.

Monitors are finite trees built from the three verdicts (``yes``, ``no``,
``end``), action prefixing, binary sum and variables.  Everything in this
module is an immutable value; all functions are pure.

Terms are hash-consed (Filliatre & Conchon, *Type-safe modular
hash-consing*, 2006): a constructor returns the existing node for a term
that is still alive, so structurally equal terms are one object and compare
and hash by identity.  Iterating a set of terms therefore follows memory
addresses, and nothing that is printed may depend on that order.  Each node
also carries two private memos, freed with the node: its successors, which
:mod:`.semantics` fills the first time the node is stepped, and its
:func:`sort_key`.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from typing import Iterator, Mapping

RESERVED_WORDS = frozenset({"yes", "no", "end"})

IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT_PATTERN + r"\Z")

Trace = tuple[str, ...]


class NonClosedInput(ValueError):
    """An operation that requires a closed monitor was given an open one."""


class InternalError(RuntimeError):
    """A broken invariant of the rewriting, such as a fixpoint loop that ran
    out of fuel or a proof chain whose ends do not meet: a bug, not a bad
    input.  Raised explicitly, so that it survives ``python -O``.  Defined
    here, and re-exported by :mod:`.normalize`, so that the command line can
    catch it without importing the rewriting."""


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

# The interning table: constructor fields -> the one node built from them.
# Keys hold the children themselves, so a key can only match while those
# very objects are alive (a freed object's ``id`` may be reused).
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# The live node for a key, or None: one probe of the table's dict of weak
# references and a call of the reference found, or of ``type(None)`` where
# none is.  A dead node's reference leaves that dict through the table's own
# callback, which deletes an entry only while it still holds a dead
# reference, so it never drops the entry of a node built again since.
_live = _TABLE.data.get
_NO_REF = type(None)
# Held while a node is built, so that two threads never build two nodes for
# one term.  The table's callback never takes it: a collection can run the
# callback inside ``_intern`` while the lock is held.
_LOCK = threading.Lock()
_set = object.__setattr__


def _intern(key: tuple, **fields) -> "Monitor":
    """The live node for ``key``, or a new one of class ``key[0]`` with
    ``fields``."""
    with _LOCK:
        node = _live(key, _NO_REF)()
        if node is None:
            node = object.__new__(key[0])
            _set(node, "_steps", None)
            _set(node, "_key", None)
            for name, value in fields.items():
                _set(node, name, value)
            _TABLE[key] = node
        return node


class Monitor:
    """Base class of monitor terms.

    Terms are hash-consed: the constructors return one shared node per
    structurally distinct term, so ``==`` and ``hash`` are the identity
    defaults and cost O(1) at any depth.  Nodes are immutable; each carries
    ``closed`` (no variable occurs in it) and ``depth`` (see :func:`depth`),
    computed once from its children.  Two private slots are memos: ``_steps``
    holds the node's weak successors once :mod:`.semantics` has stepped it,
    as one flat tuple ``(V, a1, S1, a2, S2, ...)`` of its verdict summands
    and, per action a summand carries, the successors under it (filled by
    one walk of the summands), and ``_key`` its :func:`sort_key` once asked
    for, sharing the children's keys.  They play no part in ``==``,
    ``hash``, copies or pickles, and are freed with the node.
    """

    __slots__ = ("__weakref__", "_steps", "_key")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from . import syntax

        return f"<{syntax.print_monitor(self)}>"


class _Verdict(Monitor):
    __slots__ = ()
    closed = True
    depth = 0

    def __new__(cls):
        return _VERDICT_OF[cls]

    def __reduce__(self):
        return type(self), ()


class End(_Verdict):
    __slots__ = ()


class Yes(_Verdict):
    __slots__ = ()


class No(_Verdict):
    __slots__ = ()


class Prefix(Monitor):
    __slots__ = ("action", "body", "closed", "depth")
    __match_args__ = ("action", "body")
    action: str
    body: Monitor

    def __new__(cls, action: str, body: Monitor):
        key = (cls, action, body)
        return _live(key, _NO_REF)() or _intern(
            key, action=action, body=body, closed=body.closed, depth=body.depth + 1
        )

    def __reduce__(self):
        return Prefix, (self.action, self.body)


class Sum(Monitor):
    __slots__ = ("left", "right", "closed", "depth")
    __match_args__ = ("left", "right")
    left: Monitor
    right: Monitor

    def __new__(cls, left: Monitor, right: Monitor):
        key = (cls, left, right)
        return _live(key, _NO_REF)() or _intern(
            key,
            left=left,
            right=right,
            closed=left.closed and right.closed,
            depth=max(left.depth, right.depth),
        )

    def __reduce__(self):
        return Sum, (self.left, self.right)


class Var(Monitor):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    closed = False
    depth = 0
    name: str

    def __new__(cls, name: str):
        key = (cls, name)
        return _live(key, _NO_REF)() or _intern(key, name=name)

    def __reduce__(self):
        return Var, (self.name,)


END = _intern((End,), _key=(0,))
YES = _intern((Yes,), _key=(1,))
NO = _intern((No,), _key=(2,))
_VERDICT_OF = {End: END, Yes: YES, No: NO}

VERDICTS = (END, YES, NO)


def is_verdict(m: Monitor) -> bool:
    return isinstance(m, _Verdict)


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
#
# Terms may nest far deeper than Python's recursion limit, so every walk
# below is a loop over an explicit stack.


def depth(m: Monitor) -> int:
    """Syntactic depth.  Variables count as depth 0 (like verdicts)."""
    return m.depth


def size_of(m: Monitor, sizes: dict[Monitor, int] | None = None) -> int:
    """Number of AST nodes, as if ``m`` were written out as a tree.  Each
    distinct node is sized once and kept in ``sizes``, which a caller may
    share across calls."""
    sizes = {} if sizes is None else sizes
    get = sizes.get
    stack = [m]
    while stack:
        t = stack.pop()
        kids = (t.body,) if isinstance(t, Prefix) else (t.left, t.right) if isinstance(t, Sum) else ()
        known = [get(c) for c in kids]
        if None in known:
            stack += (t, *kids)
        else:
            sizes[t] = sum(known, 1)
    return sizes[m]


def nodes(m: Monitor) -> Iterator[Monitor]:
    """Each distinct node of ``m`` once, parents before their children."""
    seen = {m}
    stack = [m]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Prefix):
            children = (t.body,)
        elif isinstance(t, Sum):
            children = (t.right, t.left)
        else:
            continue
        for c in children:
            if c not in seen:
                seen.add(c)
                stack.append(c)


def vars_of(m: Monitor) -> frozenset[str]:
    if m.closed:
        return frozenset()
    return frozenset(t.name for t in nodes(m) if isinstance(t, Var))


def actions_of(m: Monitor) -> frozenset[str]:
    return frozenset(t.action for t in nodes(m) if isinstance(t, Prefix))


def is_closed(m: Monitor) -> bool:
    return m.closed


def require_closed(m: Monitor, context: str = "operation") -> None:
    if not m.closed:
        raise NonClosedInput(
            f"{context} requires a closed monitor; free variables: "
            + ", ".join(sorted(vars_of(m)))
        )


def contains_verdict(m: Monitor, v: Monitor) -> bool:
    """Whether the verdict ``v`` occurs anywhere in ``m``."""
    return any(t is v for t in nodes(m))


def summands(m: Monitor) -> Iterator[Monitor]:
    """Iterate the non-Sum leaves of the sum tree, left to right."""
    stack = [m]
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack += (t.right, t.left)
        else:
            yield t


def sum_of(parts) -> Monitor:
    """Left-associated sum of ``parts``, dropping ``end`` summands.

    The empty sum denotes ``end``.
    """
    acc: Monitor | None = None
    for p in parts:
        if p is END:
            continue
        acc = p if acc is None else Sum(acc, p)
    return END if acc is None else acc


# ---------------------------------------------------------------------------
# Substitutions

Substitution = Mapping[str, Monitor]


def apply_subst(sigma: Substitution, m: Monitor) -> Monitor:
    """Replace every variable leaf by its image; unmapped variables stay.

    Closed subterms come back unchanged, and each distinct open subterm is
    rebuilt once.
    """
    done: dict[Monitor, Monitor] = {}
    stack = [m]
    while stack:
        t = stack[-1]
        if t.closed:
            done[t] = t
        elif isinstance(t, Var):
            done[t] = sigma.get(t.name, t)
        elif isinstance(t, Prefix):
            body = done.get(t.body)
            if body is None:
                stack.append(t.body)
                continue
            done[t] = Prefix(t.action, body)
        else:
            left, right = done.get(t.left), done.get(t.right)
            if left is None or right is None:
                if right is None:
                    stack.append(t.right)
                if left is None:
                    stack.append(t.left)
                continue
            done[t] = Sum(left, right)
        stack.pop()
    return done[m]


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
    canonical sum, but both can appear in other positions.  A prefix's key
    holds its body's and a sum's its summands', so comparing two keys that
    differ deep down still recurses (in C).

    The key is memoised in the node's ``_key`` slot (set at birth for the
    verdicts), filled bottom-up over an explicit stack, so no nesting depth
    recurses here.
    """
    try:
        key = m._key
    except AttributeError:
        raise TypeError(f"not a monitor: {m!r}") from None
    if key is not None:
        return key
    stack = [m]
    while stack:
        t = stack[-1]
        if t._key is not None:
            stack.pop()
            continue
        if isinstance(t, Prefix):
            body = t.body._key
            if body is None:
                stack.append(t.body)
                continue
            key = (3, t.action, body)
        elif isinstance(t, Sum):
            parts = list(summands(t))
            missing = [p for p in parts if p._key is None]
            if missing:
                stack += missing
                continue
            key = (5, tuple([p._key for p in parts]))
        else:
            key = (4, t.name)
        _set(t, "_key", key)
        stack.pop()
    return m._key


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
