"""Canonicalization pipelines with optional equational derivations.

Each pipeline rewrites a monitor into the canonical shape of one
completeness result and can emit a derivation in the matching axiom system,
validated by the independent checker in :mod:`regmon.prooflog`.  Recording
on or off runs the same code path, so the pure result and the proved result
coincide by construction.

Rewriting is innermost-first (children before parents) and terms are kept
in the AC-canonical order of :func:`regmon.terms.ac_normalize` between
stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import axioms
from .prooflog import (
    AxiomUse,
    CongruencePrefix,
    CongruenceSum,
    Derivation,
    Reflexivity,
    Step,
    Symmetry,
    Transitivity,
)
from .semantics import accepts, rejects
from .terms import (
    END,
    NO,
    YES,
    Alphabet,
    Equation,
    Monitor,
    Prefix,
    Sum,
    Trace,
    Var,
    ac_normalize,
    actions_of,
    apply_subst,
    contains_verdict,
    depth,
    is_closed,
    require_closed,
    sort_key,
    summands,
    vars_of,
)

NF = "nf"
RNF = "rnf"
OMEGA_NF = "omega-nf"
OPEN_NF = "open-nf"
OPEN_RNF = "open-rnf"
FIN_RNF = "fin-rnf"
UNARY_RNF = "unary-rnf"
UNARY_OMEGA_NF = "unary-omega-nf"
OPEN_OMEGA_NF = "open-omega-nf"


class AlphabetTooSmall(ValueError):
    pass


class InternalError(RuntimeError):
    """A rewriting loop missed its fixpoint: a bug, not a bad input."""


# Rounds that the fixpoint loops of fin-rnf and open-omega-nf may take.
_FUEL = 199


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    term: Monitor
    form_kind: str
    derivation: Derivation | None = None


def _ln(parts) -> Monitor:
    """Left-nested sum keeping every part verbatim (no ``end`` dropping)."""
    acc: Monitor | None = None
    for p in parts:
        acc = p if acc is None else Sum(acc, p)
    return END if acc is None else acc


def _parts(t: Monitor) -> list[Monitor]:
    return list(summands(t))


def _opposite(v: Monitor) -> Monitor:
    return NO if v == YES else YES


def _grow_axiom(v: Monitor) -> str:
    return "Y_a" if v == YES else "N_a"


def _fan_axiom(v: Monitor) -> str:
    return "Y_w" if v == YES else "N_w"


def _free_of(m: Monitor, v: Monitor) -> bool:
    return not contains_verdict(m, v)


def _decompose(t: Monitor):
    """Flags, action map, and variable names of a canonical sum."""
    has_yes = has_no = False
    acts: dict[str, Monitor] = {}
    variables: list[str] = []
    for p in _parts(t):
        if p == YES:
            has_yes = True
        elif p == NO:
            has_no = True
        elif isinstance(p, Prefix):
            acts[p.action] = p.body
        elif isinstance(p, Var):
            variables.append(p.name)
    return has_yes, has_no, acts, variables


# ---------------------------------------------------------------------------
# Proof-carrying rewriting


@dataclass(frozen=True, slots=True)
class Pf:
    """A proved rewrite ``src = dst``; ``sid`` cites the emitted step.

    Reflexive proofs keep ``sid`` None and are only materialized when a
    congruence rule must reference them.
    """

    src: Monitor
    dst: Monitor
    sid: int | None


class Prover:
    """Emits checkable steps while rewriting; ``record=False`` runs the same
    operations without building the step list."""

    def __init__(self, system: str, alphabet: Alphabet, record: bool):
        self.system = system
        self.alphabet = alphabet
        self.record = record
        self.steps: list[Step] = []

    # -- primitives ---------------------------------------------------------

    def _emit(self, src: Monitor, dst: Monitor, just) -> Pf:
        if not self.record:
            return Pf(src, dst, None)
        sid = len(self.steps) + 1
        self.steps.append(Step(sid, Equation(src, dst), just))
        return Pf(src, dst, sid)

    def refl(self, t: Monitor) -> Pf:
        return Pf(t, t, None)

    def _materialize(self, pf: Pf) -> Pf:
        if pf.sid is not None or not self.record:
            return pf
        assert pf.src == pf.dst
        return self._emit(pf.src, pf.dst, Reflexivity())

    def ax(self, name: str, bindings=None, subst=None) -> Pf:
        inst = axioms.instantiate(name, bindings or {}, self.alphabet)
        sigma = dict(subst or {})
        lhs = apply_subst(sigma, inst.equation.lhs)
        rhs = apply_subst(sigma, inst.equation.rhs)
        return self._emit(
            lhs, rhs, AxiomUse(inst.schema, inst.bindings, tuple(sorted(sigma.items())))
        )

    def ax_rev(self, name: str, bindings=None, subst=None) -> Pf:
        return self.sym(self.ax(name, bindings, subst))

    def sym(self, pf: Pf) -> Pf:
        if pf.src == pf.dst:
            return pf
        if not self.record:
            return Pf(pf.dst, pf.src, None)
        pf = self._materialize(pf)
        return self._emit(pf.dst, pf.src, Symmetry(pf.sid))

    def trans(self, *pfs: Pf) -> Pf:
        assert pfs
        acc = pfs[0]
        for nxt in pfs[1:]:
            assert acc.dst == nxt.src, f"broken chain:\n  {acc.dst!r}\n  {nxt.src!r}"
            if nxt.src == nxt.dst:
                continue
            if acc.src == acc.dst:
                acc = nxt
                continue
            if self.record:
                a = self._materialize(acc)
                b = self._materialize(nxt)
                acc = self._emit(a.src, b.dst, Transitivity(a.sid, b.sid))
            else:
                acc = Pf(acc.src, nxt.dst, None)
        return acc

    def congsum(self, left: Pf, right: Pf) -> Pf:
        src = Sum(left.src, right.src)
        dst = Sum(left.dst, right.dst)
        if src == dst:
            return self.refl(src)
        if not self.record:
            return Pf(src, dst, None)
        a = self._materialize(left)
        b = self._materialize(right)
        return self._emit(src, dst, CongruenceSum(a.sid, b.sid))

    def congpre(self, action: str, inner: Pf) -> Pf:
        src = Prefix(action, inner.src)
        dst = Prefix(action, inner.dst)
        if src == dst:
            return self.refl(src)
        if not self.record:
            return Pf(src, dst, None)
        a = self._materialize(inner)
        return self._emit(src, dst, CongruencePrefix(action, a.sid))

    def congpre_seq(self, trace: Trace, inner: Pf) -> Pf:
        for action in reversed(trace):
            inner = self.congpre(action, inner)
        return inner

    # -- sum-list rewriting --------------------------------------------------
    # A sum is the list of its summands in left-nested order; rewrites happen
    # at a spine node (a left-nested prefix of the list) and sum congruences
    # wrap them back into the full term.

    def rw_spine(self, term: Monitor, i: int, inner: Pf) -> Pf:
        parts = _parts(term)
        assert _ln(parts[: i + 1]) == inner.src, "spine mismatch"
        pf = inner
        for part in parts[i + 1 :]:
            pf = self.congsum(pf, self.refl(part))
        return pf

    def rw_part(self, term: Monitor, i: int, inner: Pf) -> Pf:
        parts = _parts(term)
        assert parts[i] == inner.src, "part mismatch"
        if i == 0:
            return self.rw_spine(term, 0, inner)
        spine = _ln(parts[:i])
        return self.rw_spine(term, i, self.congsum(self.refl(spine), inner))

    def rw_pair(self, term: Monitor, i: int, inner) -> Pf:
        """Rewrite the adjacent parts ``a``, ``b`` at ``i``, ``i + 1`` by the
        proof ``inner(a, b)`` about ``a + b``, regrouping with A2 around it
        when ``i > 0`` (also after it, for a two-part result).  ``inner`` is
        called after the first regrouping step is emitted; a caller whose
        proof must come first passes a closure over it."""
        parts = _parts(term)
        a, b = parts[i], parts[i + 1]
        if i == 0:
            return self.rw_spine(term, 1, inner(a, b))
        p = _ln(parts[:i])
        pfs = [self.ax_rev("A2", subst={"x": p, "y": a, "z": b})]
        pf = inner(a, b)
        pfs.append(self.congsum(self.refl(p), pf))
        if isinstance(pf.dst, Sum):
            pfs.append(self.ax("A2", subst={"x": p, "y": pf.dst.left, "z": pf.dst.right}))
        return self.rw_spine(term, i + 1, self.trans(*pfs))

    def swap(self, term: Monitor, i: int) -> Pf:
        return self.rw_pair(term, i, lambda a, b: self.ax("A1", subst={"x": a, "y": b}))

    def bubble(self, term: Monitor, i: int, j: int) -> Pf:
        """Move part ``i`` to position ``j`` by adjacent swaps."""
        pf = self.refl(term)
        pos = i
        while pos < j:
            pf = self.trans(pf, self.swap(pf.dst, pos))
            pos += 1
        while pos > j:
            pf = self.trans(pf, self.swap(pf.dst, pos - 1))
            pos -= 1
        return pf

    def drop_end(self, term: Monitor, i: int) -> Pf:
        parts = _parts(term)
        assert parts[i] == END and len(parts) > 1
        if i == 0:
            nxt = parts[1]
            inner = self.trans(
                self.ax("A1", subst={"x": END, "y": nxt}),
                self.ax("A4", subst={"x": nxt}),
            )
            return self.rw_spine(term, 1, inner)
        return self.rw_spine(term, i, self.ax("A4", subst={"x": _ln(parts[:i])}))

    def dedupe_adjacent(self, term: Monitor, i: int) -> Pf:
        return self.rw_pair(term, i, lambda t, _: self.ax("A3", subst={"x": t}))

    def _append(self, left: Monitor, right: Monitor) -> Pf:
        if not isinstance(right, Sum):
            return self.refl(Sum(left, right))
        s1 = self.ax("A2", subst={"x": left, "y": right.left, "z": right.right})
        s2 = self.congsum(self._append(left, right.left), self.refl(right.right))
        return self.trans(s1, s2)

    def flatten(self, term: Monitor) -> Pf:
        if not isinstance(term, Sum):
            return self.refl(term)
        pl = self.flatten(term.left)
        pr = self.flatten(term.right)
        pf = self.congsum(pl, pr)
        return self.trans(pf, self._append(pl.dst, pr.dst))

    def shallow_canon(self, term: Monitor) -> Pf:
        """Flatten, drop ``end`` summands, sort, remove duplicates."""
        pf = self.flatten(term)
        while True:
            parts = _parts(pf.dst)
            if len(parts) <= 1 or END not in parts:
                break
            pf = self.trans(pf, self.drop_end(pf.dst, parts.index(END)))
        n = len(_parts(pf.dst))
        for limit in range(1, n):
            pos = limit
            while pos > 0:
                parts = _parts(pf.dst)
                if sort_key(parts[pos]) >= sort_key(parts[pos - 1]):
                    break
                pf = self.trans(pf, self.swap(pf.dst, pos - 1))
                pos -= 1
        while True:
            parts = _parts(pf.dst)
            dup = next(
                (i for i in range(len(parts) - 1) if parts[i] == parts[i + 1]), None
            )
            if dup is None:
                break
            pf = self.trans(pf, self.dedupe_adjacent(pf.dst, dup))
        return pf

    def canon(self, term: Monitor) -> Pf:
        """``term = ac_normalize(term)`` through explicit A1-A4 steps."""
        match term:
            case Prefix(action, body):
                pf = self.congpre(action, self.canon(body))
            case Sum(left, right):
                inner = self.congsum(self.canon(left), self.canon(right))
                pf = self.trans(inner, self.shallow_canon(inner.dst))
            case _:
                pf = self.refl(term)
        assert pf.dst == ac_normalize(term)
        return pf

    def align(self, src: Monitor, dst: Monitor) -> Pf:
        """Proof of ``src = dst`` for AC-equal terms."""
        if src == dst:
            return self.refl(src)
        p1 = self.canon(src)
        p2 = self.canon(dst)
        assert p1.dst == p2.dst, "align on non-AC-equal terms"
        return self.trans(p1, self.sym(p2))

    def distribute(self, action: str, body: Monitor) -> Pf:
        """``a.body = a.p1 + ... + a.pn`` over the summands of ``body``."""
        if not isinstance(body, Sum):
            return self.refl(Prefix(action, body))
        s1 = self.ax(
            "D_a", {"action": action}, subst={"x": body.left, "y": body.right}
        )
        s2 = self.congsum(
            self.distribute(action, body.left),
            self.refl(Prefix(action, body.right)),
        )
        return self.trans(s1, s2)

    def distribute_seq(self, trace: Trace, u1: Monitor, u2: Monitor) -> Pf:
        """``s.(u1 + u2) = s.u1 + s.u2`` for a prefix sequence ``s``."""
        if not trace:
            return self.refl(Sum(u1, u2))
        head, rest = trace[0], trace[1:]
        inner = self.congpre(head, self.distribute_seq(rest, u1, u2))
        step = self.ax(
            "D_a",
            {"action": head},
            subst={
                "x": axioms.prefix_seq(rest, u1),
                "y": axioms.prefix_seq(rest, u2),
            },
        )
        return self.trans(inner, step)


class Edit:
    """A term being rewritten, with the accumulated proof from its origin."""

    __slots__ = ("pv", "pf")

    def __init__(self, pv: Prover, origin: Monitor):
        self.pv = pv
        self.pf = pv.refl(origin)

    @property
    def term(self) -> Monitor:
        return self.pf.dst

    @property
    def parts(self) -> list[Monitor]:
        return _parts(self.term)

    def step(self, pf: Pf) -> None:
        assert pf.src == self.term
        self.pf = self.pv.trans(self.pf, pf)

    def canon(self) -> None:
        self.step(self.pv.shallow_canon(self.term))

    def map_bodies(self, f) -> None:
        """Rewrite the body of every prefix summand by ``f`` (a function from
        a body to a proof about it), then canonicalize the sum."""
        pv = self.pv
        for p in list(self.parts):
            if isinstance(p, Prefix):
                inner = f(p.body)
                if inner.src != inner.dst:
                    idx = self.parts.index(p)
                    self.step(pv.rw_part(self.term, idx, pv.congpre(p.action, inner)))
        self.canon()


# ---------------------------------------------------------------------------
# Unfolding: v = v + s.v (Y_a / N_a) and x = x + a^d.x (V1)


def _unfold(pv: Prover, leaf: Monitor, trace: Trace, grow) -> Pf:
    """``leaf = leaf + s.leaf`` for a nonempty trace ``s``, where
    ``grow(a)`` proves the one-step case ``leaf = leaf + a.leaf``."""
    assert trace
    head, rest = trace[0], trace[1:]
    s1 = grow(head)
    if not rest:
        return s1
    tail = axioms.prefix_seq(rest, leaf)
    s2 = pv.congsum(pv.refl(leaf), pv.congpre(head, _unfold(pv, leaf, rest, grow)))
    s3 = pv.congsum(
        pv.refl(leaf), pv.ax("D_a", {"action": head}, subst={"x": leaf, "y": tail})
    )
    s4 = pv.ax(
        "A2", subst={"x": leaf, "y": Prefix(head, leaf), "z": Prefix(head, tail)}
    )
    s5 = pv.congsum(pv.sym(grow(head)), pv.refl(Prefix(head, tail)))
    return pv.trans(s1, s2, s3, s4, s5)


def _prefix_index(parts: list[Monitor], action: str) -> int | None:
    """Position of the ``action`` prefix among ``parts``, if there is one."""
    return next(
        (i for i, p in enumerate(parts) if isinstance(p, Prefix) and p.action == action),
        None,
    )


def _find_verdict_path(t: Monitor, trace: Trace, v: Monitor) -> Trace | None:
    """Shortest prefix of ``trace`` whose node has ``v`` as a summand."""
    node = t
    for i in range(len(trace) + 1):
        parts = _parts(node)
        if v in parts:
            return trace[:i]
        j = None if i == len(trace) else _prefix_index(parts, trace[i])
        if j is None:
            return None
        node = parts[j].body


def _dup_path_verdict(pv: Prover, t: Monitor, path: Trace, v: Monitor) -> Pf:
    """``t = t + path.v`` when the node at ``path`` carries ``v``."""
    if not path:
        if t == v:
            return pv.ax_rev("A3", subst={"x": v})
        parts = _parts(t)
        i = parts.index(v)
        pf = pv.rw_part(t, i, pv.ax_rev("A3", subst={"x": v}))
        pf = pv.trans(pf, pv.flatten(pf.dst))
        pf = pv.trans(pf, pv.bubble(pf.dst, i + 1, len(parts)))
        assert pf.dst == Sum(t, v)
        return pf
    head, rest = path[0], path[1:]
    parts = _parts(t)
    i = _prefix_index(parts, head)
    body = parts[i].body
    inner = _dup_path_verdict(pv, body, rest, v)  # body = body + rest.v
    pf = pv.rw_part(t, i, pv.congpre(head, inner))
    split = pv.ax(
        "D_a",
        {"action": head},
        subst={"x": body, "y": axioms.prefix_seq(rest, v)},
    )
    pf = pv.trans(pf, pv.rw_part(pf.dst, i, split))
    pf = pv.trans(pf, pv.flatten(pf.dst))
    pf = pv.trans(pf, pv.bubble(pf.dst, i + 1, len(parts)))
    assert pf.dst == Sum(t, axioms.prefix_seq(path, v))
    return pf


def _add_trace_verdict(pv: Prover, t: Monitor, trace: Trace, v: Monitor) -> Pf:
    """``t = t + trace.v`` when ``t`` reaches ``v`` along ``trace`` ignoring
    variables (i.e. a syntactic prefix of ``trace`` hits a ``v`` summand)."""
    path = _find_verdict_path(t, trace, v)
    assert path is not None, "verdict not syntactically reachable"
    pf = _dup_path_verdict(pv, t, path, v)
    rest = trace[len(path):]
    if not rest:
        return pf
    base_len = len(_parts(t))
    unfold = _unfold(pv, v, rest, lambda a: pv.ax(_grow_axiom(v), {"action": a}))
    grow = pv.congpre_seq(path, unfold)
    pf = pv.trans(pf, pv.rw_part(pf.dst, base_len, grow))
    dist = pv.distribute_seq(path, v, axioms.prefix_seq(rest, v))
    if path:
        pf = pv.trans(pf, pv.rw_part(pf.dst, base_len, dist))
    pf = pv.trans(pf, pv.flatten(pf.dst))
    collapse = pv.sym(_dup_path_verdict(pv, t, path, v))
    pf = pv.trans(pf, pv.rw_spine(pf.dst, base_len, collapse))
    assert pf.dst == Sum(t, axioms.prefix_seq(trace, v))
    return pf


# ---------------------------------------------------------------------------
# Normal form (closed and open share the code; variables are leaves)


def _nf(pv: Prover, m: Monitor) -> Pf:
    match m:
        case Prefix(action, body):
            inner = _nf(pv, body)
            pf = pv.congpre(action, inner)
            if inner.dst == END:
                pf = pv.trans(pf, pv.ax("E_a", {"action": action}))
            return pf
        case Sum(left, right):
            pf = pv.congsum(_nf(pv, left), _nf(pv, right))
            return pv.trans(pf, _merge_nf(pv, pf.dst))
        case _:
            return pv.refl(m)


def _rnf(pv: Prover, m: Monitor, use_o1: bool) -> Pf:
    """``m`` to its (open) normal form, then to its reduced normal form."""
    pf = _nf(pv, m)
    return pv.trans(pf, _reduce(pv, pf.dst, use_o1))


def _merge_nf(pv: Prover, t: Monitor) -> Pf:
    """Canonicalize a sum of normal forms, merging same-action summands."""
    pf = pv.shallow_canon(t)
    while True:
        parts = _parts(pf.dst)
        pair = next(
            (
                i
                for i in range(len(parts) - 1)
                if isinstance(parts[i], Prefix)
                and isinstance(parts[i + 1], Prefix)
                and parts[i].action == parts[i + 1].action
            ),
            None,
        )
        if pair is None:
            return pf
        a = parts[pair].action
        b1, b2 = parts[pair].body, parts[pair + 1].body
        combined = pv.trans(
            pv.ax_rev("D_a", {"action": a}, subst={"x": b1, "y": b2}),
            pv.congpre(a, _nf(pv, Sum(b1, b2))),
        )
        if combined.dst == Prefix(a, END):
            combined = pv.trans(combined, pv.ax("E_a", {"action": a}))
        pf = pv.trans(pf, pv.rw_pair(pf.dst, pair, lambda *_: combined))
        pf = pv.trans(pf, pv.shallow_canon(pf.dst))


# ---------------------------------------------------------------------------
# Reduction to (open) reduced normal form


def _push_verdict(pv: Prover, v: Monitor, action: str, body: Monitor) -> Pf:
    """``v + a.body = v + a.(v + body)``."""
    grow = _grow_axiom(v)
    s1 = pv.congsum(pv.ax(grow, {"action": action}), pv.refl(Prefix(action, body)))
    s2 = pv.ax_rev(
        "A2", subst={"x": v, "y": Prefix(action, v), "z": Prefix(action, body)}
    )
    s3 = pv.congsum(
        pv.refl(v), pv.ax_rev("D_a", {"action": action}, subst={"x": v, "y": body})
    )
    return pv.trans(s1, s2, s3)


def _pop_verdict(pv: Prover, v: Monitor, action: str, body: Monitor) -> Pf:
    """``v + a.(v + body) = v + a.body``."""
    return pv.sym(_push_verdict(pv, v, action, body))


def _absorb(pv: Prover, v: Monitor, action: str, body: Monitor) -> Pf:
    """``v + a.body = v`` for closed ``body`` free of the opposite verdict."""
    grow = _grow_axiom(v)
    if body == END:
        return pv.trans(
            pv.congsum(pv.refl(v), pv.ax("E_a", {"action": action})),
            pv.ax("A4", subst={"x": v}),
        )
    if body == v:
        return pv.ax_rev(grow, {"action": action})
    if isinstance(body, Prefix):
        push = _push_verdict(pv, v, action, body)
        inner = _absorb(pv, v, body.action, body.body)
        mid = pv.congsum(pv.refl(v), pv.congpre(action, inner))
        return pv.trans(push, mid, pv.ax_rev(grow, {"action": action}))
    return _strip(pv, v, action, body)


def _strip(pv: Prover, v: Monitor, action: str, body: Monitor) -> Pf:
    """``v + a.body = v + a.body'`` with ``body'`` free of ``v``.

    Pieces that are closed and free of the opposite verdict are absorbed
    outright; open pieces survive with their own ``v`` occurrences removed.
    When every piece is absorbed the result is ``v + a.body = v``.
    """
    opp = _opposite(v)
    if isinstance(body, Prefix):
        push = _push_verdict(pv, v, action, body)
        inner = _strip(pv, v, body.action, body.body)
        mid = pv.congsum(pv.refl(v), pv.congpre(action, inner))
        stripped = inner.dst.right
        return pv.trans(push, mid, _pop_verdict(pv, v, action, stripped))
    assert isinstance(body, Sum), f"strip on {body!r}"
    pf = pv.congsum(pv.refl(v), pv.distribute(action, body))
    pf = pv.trans(pf, pv.flatten(pf.dst))
    rounds = len(_parts(pf.dst)) - 1
    for _ in range(rounds):
        parts = _parts(pf.dst)
        target = parts[1]
        assert isinstance(target, Prefix) and target.action == action
        piece = target.body
        if piece == v or (is_closed(piece) and _free_of(piece, opp)):
            pf = pv.trans(
                pf, pv.rw_spine(pf.dst, 1, _absorb(pv, v, action, piece))
            )
            continue
        if contains_verdict(piece, v):
            pf = pv.trans(
                pf, pv.rw_spine(pf.dst, 1, _strip(pv, v, action, piece))
            )
        parts = _parts(pf.dst)
        pf = pv.trans(pf, pv.bubble(pf.dst, 1, len(parts) - 1))
    pf = pv.trans(pf, _fold_prefixes(pv, pf.dst, action))
    parts = _parts(pf.dst)
    if len(parts) == 1:
        return pf
    inner = pv.congpre(action, pv.shallow_canon(parts[1].body))
    return pv.trans(pf, pv.rw_part(pf.dst, 1, inner))


def _fold_prefixes(pv: Prover, term: Monitor, action: str) -> Pf:
    """``v + a.n1 + ... + a.nk  =  v + a.(n1 + ... + nk)``."""
    pf = pv.refl(term)
    while len(_parts(pf.dst)) > 2:
        fold = pv.rw_pair(
            pf.dst,
            1,
            lambda u, w: pv.ax_rev("D_a", {"action": action}, subst={"x": u.body, "y": w.body}),
        )
        pf = pv.trans(pf, fold)
    return pf


def _pair_with_flag(pv: Prover, ed: Edit, v: Monitor, target: Monitor, inner: Pf) -> None:
    """Bring the flag ``v`` to the front and ``target`` next to it, then
    rewrite their pair with ``inner`` (a proof about ``v + target``)."""
    vpos = ed.parts.index(v)
    if vpos != 0:
        ed.step(pv.bubble(ed.term, vpos, 0))
    idx = ed.parts.index(target)
    if idx != 1:
        ed.step(pv.bubble(ed.term, idx, 1))
    ed.step(pv.rw_spine(ed.term, 1, inner))


def _rewrite_beside_flag(pv: Prover, ed: Edit, flag: Monitor, rewrite) -> None:
    """Pair the first prefix summand ``p`` that ``rewrite`` applies to with
    ``flag``, rewrite the pair by ``rewrite(p)`` (a proof about ``flag + p``,
    None where it does not apply) and canonicalize, until none is left."""
    while True:
        for p in ed.parts:
            inner = rewrite(p) if isinstance(p, Prefix) else None
            if inner is not None:
                break
        else:
            return
        _pair_with_flag(pv, ed, flag, p, inner)
        ed.canon()


def _needs_prune(body: Monitor, opp: Monitor) -> bool:
    """A node reached through prefixes has ``opp`` next to other content."""
    parts = _parts(body)
    if opp in parts and len(parts) > 1:
        return True
    return any(isinstance(p, Prefix) and _needs_prune(p.body, opp) for p in parts)


def _prune(pv: Prover, v: Monitor, action: str, body: Monitor) -> Pf:
    """``v + a.body = v + a.body'`` where every node of ``body'`` that can
    issue the opposite verdict is that bare verdict (O1 pruning)."""
    opp = _opposite(v)
    parts = _parts(body)
    push = _push_verdict(pv, v, action, body)
    if opp in parts:
        rest = [p for p in parts if p != opp]
        inner = pv.align(Sum(v, body), Sum(Sum(YES, NO), _ln(rest)))
        inner = pv.trans(inner, pv.ax_rev("O1", subst={"x": _ln(rest)}))
        inner = pv.trans(inner, pv.align(inner.dst, Sum(v, opp)))
        mid = pv.congsum(pv.refl(v), pv.congpre(action, inner))
        return pv.trans(push, mid, _pop_verdict(pv, v, action, opp))
    # recurse into the sub-parts that still reach the opposite verdict
    work = Edit(pv, Sum(v, body))
    work.step(pv.flatten(work.term))
    changed = True
    while changed:
        changed = False
        for p in work.parts:
            if isinstance(p, Prefix) and _needs_prune(p.body, opp):
                idx = work.parts.index(p)
                if idx != 1:
                    work.step(pv.bubble(work.term, idx, 1))
                work.step(
                    pv.rw_spine(work.term, 1, _prune(pv, v, p.action, p.body))
                )
                changed = True
                break
    new_parts = work.parts
    body2 = ac_normalize(_ln(new_parts[1:]))
    work.step(pv.align(work.term, Sum(v, body2)))
    mid = pv.congsum(pv.refl(v), pv.congpre(action, work.pf))
    return pv.trans(push, mid, _pop_verdict(pv, v, action, body2))


def _reduce(pv: Prover, t: Monitor, use_o1: bool) -> Pf:
    """Canonical (open) NF to canonical (open) reduced NF.

    With ``use_o1`` off the input must be closed and only E_v steps are
    emitted; with it on, O1 removes summands under a double verdict and
    prunes residue next to reachable opposite verdicts.
    """
    ed = Edit(pv, t)
    has_yes, has_no, acts, _ = _decompose(t)
    if has_yes and has_no:
        rest = [p for p in ed.parts if p not in (YES, NO)]
        if not rest:
            return ed.pf
        if use_o1:
            target = Sum(Sum(YES, NO), _ln(rest))
            ed.step(pv.align(ed.term, target))
            ed.step(pv.ax_rev("O1", subst={"x": _ln(rest)}))
        else:
            while True:
                target = next(
                    (p for p in ed.parts if isinstance(p, Prefix)), None
                )
                if target is None:
                    break
                body = target.body
                if _free_of(body, NO):
                    _pair_with_flag(
                        pv, ed, YES, target, _absorb(pv, YES, target.action, body)
                    )
                elif _free_of(body, YES):
                    _pair_with_flag(
                        pv, ed, NO, target, _absorb(pv, NO, target.action, body)
                    )
                else:
                    inner = _strip(pv, YES, target.action, body)
                    _pair_with_flag(pv, ed, YES, target, inner)
                    new_target = inner.dst.right
                    _pair_with_flag(
                        pv,
                        ed,
                        NO,
                        new_target,
                        _absorb(pv, NO, new_target.action, new_target.body),
                    )
        ed.canon()
        return ed.pf
    # innermost first: reduce every body in its own right
    ed.map_bodies(lambda body: _reduce(pv, body, use_o1))
    has_yes, has_no, acts, _ = _decompose(ed.term)
    if has_yes and has_no:
        # safety net: the double-verdict branch must win over the flag loop
        return pv.trans(ed.pf, _reduce(pv, ed.term, use_o1))
    flag = YES if has_yes else NO if has_no else None
    if flag is None:
        return ed.pf
    opp = _opposite(flag)

    def absorb_or_strip(p: Prefix) -> Pf | None:
        if is_closed(p.body) and _free_of(p.body, opp):
            return _absorb(pv, flag, p.action, p.body)
        if contains_verdict(p.body, flag):
            return _strip(pv, flag, p.action, p.body)
        return None

    def prune(p: Prefix) -> Pf | None:
        return _prune(pv, flag, p.action, p.body) if _needs_prune(p.body, opp) else None

    _rewrite_beside_flag(pv, ed, flag, absorb_or_strip)
    if use_o1:
        _rewrite_beside_flag(pv, ed, flag, prune)
    return ed.pf


# ---------------------------------------------------------------------------
# Omega collapse (closed and open share the fold)


def _try_fold(pv: Prover, ed: Edit, alphabet: Alphabet) -> bool:
    """Fold a full fan ``sum of a.(v + rest_a)`` into ``v + sum of a.rest_a``."""
    actions = alphabet.sorted_actions()
    for v in (YES, NO):
        has_yes, has_no, acts, _ = _decompose(ed.term)
        if (v == YES and has_yes) or (v == NO and has_no):
            continue
        if set(acts) != set(actions):
            continue
        if not all(b == v or v in _parts(b) for b in acts.values()):
            continue
        # split each a.(v + rest) into a.v + a.rest
        for a in actions:
            body = acts[a]
            if body == v:
                continue
            rest = _ln([p for p in _parts(body) if p != v])
            idx = ed.parts.index(Prefix(a, body))
            inner = pv.trans(
                pv.congpre(a, pv.align(body, Sum(v, rest))),
                pv.ax("D_a", {"action": a}, subst={"x": v, "y": rest}),
            )
            ed.step(pv.rw_part(ed.term, idx, inner))
            ed.step(pv.flatten(ed.term))
        # gather the fan at the front, in sorted action order
        for rank, a in enumerate(actions):
            idx = ed.parts.index(Prefix(a, v))
            ed.step(pv.bubble(ed.term, idx, rank))
        ed.step(pv.rw_spine(ed.term, len(actions) - 1, pv.ax_rev(_fan_axiom(v))))
        ed.canon()
        return True
    return False


def _omega_closed(pv: Prover, t: Monitor, alphabet: Alphabet) -> Pf:
    """Omega-collapse a canonical closed RNF over a finite alphabet."""
    ed = Edit(pv, t)
    while True:
        ed.map_bodies(lambda body: _omega_closed(pv, body, alphabet))
        if not _try_fold(pv, ed, alphabet):
            return ed.pf
        ed.step(_reduce(pv, ed.term, use_o1=False))


# ---------------------------------------------------------------------------
# Finite-alphabet open forms: covering k and O2 elimination


def _min_nonprefixes(u: Trace, actions: list[str]) -> list[Trace]:
    """Minimal traces that are not prefixes of ``u``."""
    out: list[Trace] = []
    for i in range(len(u) + 1):
        for c in actions:
            if i == len(u) or c != u[i]:
                out.append(u[:i] + (c,))
    return sorted(out, key=lambda t: (len(t), t))


def both_verdict_members(s: Trace, k: int, alphabet: Alphabet) -> list[Trace]:
    """Minimal traces both accepted and rejected by ``bar_k(s, k, yes+no)``."""
    actions = alphabet.sorted_actions()
    if k == 1:
        return _min_nonprefixes(s, actions)
    return sorted(
        [s + w for w in _min_nonprefixes(s * (k - 1), actions)],
        key=lambda t: (len(t), t),
    )


def covering_k(m: Monitor, s: Trace, alphabet: Alphabet) -> int | None:
    """Least ``k`` such that every trace both accepted and rejected by
    ``bar_k(s, k, yes+no)`` is both accepted and rejected by ``m`` with all
    variables mapped to ``end``; searched up to the depth bound."""
    if not s:
        raise ValueError("covering_k requires a nonempty trace")
    m_end = apply_subst({x: END for x in vars_of(m)}, m)
    k_bound = depth(m) // len(s) + 2
    for k in range(1, k_bound + 1):
        members = both_verdict_members(s, k, alphabet)
        if all(accepts(m_end, t) and rejects(m_end, t) for t in members):
            return k
    return None


def _var_occurrences(t: Monitor) -> list[tuple[Trace, str]]:
    """``(s, x)`` for each variable ``x`` that occurs as a summand after the
    trace ``s``, shortest trace first."""
    out: list[tuple[Trace, str]] = []

    def walk(node: Monitor, path: Trace) -> None:
        for p in _parts(node):
            if isinstance(p, Var):
                out.append((path, p.name))
            elif isinstance(p, Prefix):
                walk(p.body, path + (p.action,))

    walk(t, ())
    return sorted(set(out), key=lambda sx: (len(sx[0]), sx[0], sx[1]))


def _extract_var(pv: Prover, t: Monitor, s: Trace, name: str) -> Pf:
    """``t = R + s.x`` (or ``t = s.x`` when nothing else remains)."""
    x = Var(name)
    head, rest = s[0], s[1:]
    parts = _parts(t)
    i = _prefix_index(parts, head)
    body = parts[i].body
    n = len(parts)
    if rest:
        inner = _extract_var(pv, body, rest, name)
    elif body == x:
        inner = pv.refl(x)
    else:
        inner = pv.align(body, Sum(_ln([p for p in _parts(body) if p != x]), x))
    if inner.dst == axioms.prefix_seq(rest, x):
        # the part is a.s'.x already: move it last
        pf = pv.rw_part(t, i, pv.congpre(head, inner)) if inner.src != inner.dst else pv.refl(t)
        return pf if n == 1 else pv.trans(pf, pv.bubble(pf.dst, i, n - 1))
    # a.(R' + s'.x) = a.R' + a.s'.x, with the new summand moved last
    split = pv.trans(
        pv.congpre(head, inner),
        pv.ax("D_a", {"action": head}, subst={"x": inner.dst.left, "y": inner.dst.right}),
    )
    pf = pv.rw_part(t, i, split)
    pf = pv.trans(pf, pv.flatten(pf.dst))
    return pv.trans(pf, pv.bubble(pf.dst, i + 1, n))


def _saturate_to(pv: Prover, base: Monitor, members: list[Trace], guard: Monitor) -> Pf:
    """``base = base + guard`` where ``guard`` is the bar-family monitor whose
    minimal both-verdict traces are ``members``, all of them already both
    accepted and rejected by ``base`` independently of its variables."""
    pf = pv.refl(base)
    added: list[Monitor] = []
    for t0 in members:
        for v in (YES, NO):
            pf = pv.trans(pf, _add_trace_verdict(pv, pf.dst, t0, v))
            added.append(axioms.prefix_seq(t0, v))
    flat = _ln(added)
    pf = pv.trans(pf, pv.align(pf.dst, Sum(base, flat)))
    pf_flat = _rnf(pv, flat, use_o1=False)
    pf_guard = _rnf(pv, guard, use_o1=False)
    assert pf_flat.dst == pf_guard.dst, "saturation summands must match the guard"
    pf = pv.trans(pf, pv.congsum(pv.refl(base), pv.trans(pf_flat, pv.sym(pf_guard))))
    return pf


def _eliminate_occurrence(
    pv: Prover, ed: Edit, s: Trace, name: str, k: int, alphabet: Alphabet
) -> None:
    """Remove the occurrence of the top variable ``name`` after ``s``
    through the O2 instance at ``(s, k)``."""
    t = ed.term
    guard = axioms.bar_k(s, k, Sum(YES, NO), alphabet)
    members = both_verdict_members(s, k, alphabet)
    x = Var(name)
    sx = axioms.prefix_seq(s, x)
    # 1. t = t + guard
    ed.step(_saturate_to(pv, t, members, guard))
    # 2. pull the deep occurrence out: t = R + s.x
    extract = _extract_var(pv, t, s, name)
    ed.step(pv.congsum(extract, pv.refl(guard)))
    r_term = extract.dst.left  # contains the top-level x summand
    rest = [p for p in _parts(r_term) if p != x]
    # 3. shuffle into the O2 redex and apply it
    if rest:
        target = Sum(_ln(rest), Sum(Sum(x, sx), guard))
        ed.step(pv.align(ed.term, target))
        ed.step(
            pv.congsum(
                pv.refl(_ln(rest)), pv.ax("O2", {"s": s, "k": k}, subst={"x": x})
            )
        )
    else:
        ed.step(pv.align(ed.term, Sum(Sum(x, sx), guard)))
        ed.step(pv.ax("O2", {"s": s, "k": k}, subst={"x": x}))
    # 4. drop the guard again
    remainder = ac_normalize(_ln(rest + [x]))
    ed.step(pv.align(ed.term, Sum(remainder, guard)))
    ed.step(pv.sym(_saturate_to(pv, remainder, members, guard)))
    ed.step(_rnf(pv, ed.term, use_o1=True))


def _finite_act_rnf(pv: Prover, m: Monitor, alphabet: Alphabet) -> Pf:
    pf = _rnf(pv, m, use_o1=True)
    for _ in range(_FUEL):
        ed = Edit(pv, pf.dst)
        ed.map_bodies(lambda body: _finite_act_rnf(pv, body, alphabet))
        occurrences = _var_occurrences(ed.term)
        top_vars = {x for s, x in occurrences if not s}
        done = True
        for s, x in occurrences:
            if not s or x not in top_vars:
                continue
            k = covering_k(ed.term, s, alphabet)
            if k is None:
                continue
            _eliminate_occurrence(pv, ed, s, x, k, alphabet)
            done = False
            break
        pf = pv.trans(pf, ed.pf)
        if done and ed.pf.src == ed.pf.dst:
            return pf
    raise InternalError("finite_act_rnf failed to stabilize")


# ---------------------------------------------------------------------------
# Unary forms


def _remove_var_at(t: Monitor, name: str, target: int, d: int = 0) -> Monitor:
    """Drop the ``name`` summand at depth ``target`` of a unary path term."""
    parts = []
    for p in _parts(t):
        if isinstance(p, Var) and p.name == name and d == target:
            continue
        if isinstance(p, Prefix):
            body = _remove_var_at(p.body, name, target, d + 1)
            if body == END:
                continue
            parts.append(Prefix(p.action, body))
        else:
            parts.append(p)
    return ac_normalize(_ln(parts)) if parts else END


def _unfold_var_at(
    pv: Prover, t: Monitor, name: str, at_depth: int, delta: int, action: str
) -> Pf:
    """Rewrite the ``x`` at depth ``at_depth`` into ``x + a^delta.x``."""
    if at_depth == 0:
        x = Var(name)
        unfold = _unfold(
            pv, x, (action,) * delta, lambda _: pv.ax("V1", subst={"x": x})
        )
        pf = pv.rw_part(t, _parts(t).index(x), unfold)
        return pv.trans(pf, pv.flatten(pf.dst))
    parts = _parts(t)
    i = _prefix_index(parts, action)
    inner = _unfold_var_at(pv, parts[i].body, name, at_depth - 1, delta, action)
    return pv.rw_part(t, i, pv.congpre(action, inner))


def _unary_rnf(pv: Prover, m: Monitor, alphabet: Alphabet) -> Pf:
    action = alphabet.sorted_actions()[0]
    pf = _rnf(pv, m, use_o1=True)
    while True:
        t = pf.dst
        depths: dict[str, list[int]] = {}
        for s, x in _var_occurrences(t):
            depths.setdefault(x, []).append(len(s))
        repeated = sorted(x for x, ds in depths.items() if len(ds) > 1)
        if not repeated:
            return pf
        name = repeated[0]
        d0, d1 = depths[name][0], depths[name][-1]
        without = _remove_var_at(t, name, d1)
        grow = _unfold_var_at(pv, without, name, d0, d1 - d0, action)
        grow = pv.trans(grow, _nf(pv, grow.dst))
        grow = pv.trans(grow, pv.align(grow.dst, t))
        pf = pv.trans(pf, pv.sym(grow))
        pf = pv.trans(pf, _reduce(pv, pf.dst, use_o1=True))


def _strip_prefixes(pv: Prover, m: Monitor) -> Pf:
    """Erase every prefix with ``x = a.x`` (sound over a singleton alphabet
    modulo omega-verdict equivalence)."""
    match m:
        case Prefix(action, body):
            inner = _strip_prefixes(pv, body)
            pf = pv.congpre(action, inner)
            return pv.trans(pf, pv.ax_rev("V1_w", subst={"x": inner.dst}))
        case Sum(_, _):
            ed = Edit(pv, m)
            ed.step(pv.flatten(ed.term))
            while True:
                target = next((p for p in ed.parts if isinstance(p, Prefix)), None)
                if target is None:
                    break
                inner = _strip_prefixes(pv, target)
                ed.step(pv.rw_part(ed.term, ed.parts.index(target), inner))
                ed.step(pv.flatten(ed.term))
            ed.canon()
            return ed.pf
        case _:
            return pv.refl(m)


def _unary_omega(pv: Prover, m: Monitor) -> Pf:
    pf = _strip_prefixes(pv, m)
    pf = pv.trans(pf, pv.shallow_canon(pf.dst))
    has_yes, has_no, _, _ = _decompose(pf.dst)
    if has_yes and has_no:
        rest = [p for p in _parts(pf.dst) if p not in (YES, NO)]
        if rest:
            pf = pv.trans(pf, pv.align(pf.dst, Sum(Sum(YES, NO), _ln(rest))))
            pf = pv.trans(pf, pv.ax_rev("O1", subst={"x": _ln(rest)}))
            pf = pv.trans(pf, pv.shallow_canon(pf.dst))
    return pf


def _omega_open(pv: Prover, m: Monitor, alphabet: Alphabet) -> Pf:
    pf = _finite_act_rnf(pv, m, alphabet)
    for _ in range(_FUEL):
        ed = Edit(pv, pf.dst)
        ed.map_bodies(lambda body: _omega_open_body(pv, body, alphabet))
        folded = _try_fold(pv, ed, alphabet)
        pf = pv.trans(pf, ed.pf)
        if folded:
            pf = pv.trans(pf, _reduce(pv, pf.dst, use_o1=True))
            pf = pv.trans(pf, _finite_act_rnf(pv, pf.dst, alphabet))
        elif ed.pf.src == ed.pf.dst:
            return pf
    raise InternalError("omega_open_nf failed to stabilize")


def _omega_open_body(pv: Prover, t: Monitor, alphabet: Alphabet) -> Pf:
    ed = Edit(pv, t)
    ed.map_bodies(lambda body: _omega_open_body(pv, body, alphabet))
    if _try_fold(pv, ed, alphabet):
        ed.step(_reduce(pv, ed.term, use_o1=True))
    return ed.pf


# ---------------------------------------------------------------------------
# Public pipelines


def _infer_alphabet(m: Monitor, alphabet: Alphabet | None) -> Alphabet:
    if alphabet is not None:
        if alphabet.is_finite:
            missing = actions_of(m) - alphabet.actions
            if missing:
                raise ValueError(
                    f"monitor uses actions outside the alphabet: {sorted(missing)}"
                )
        return alphabet
    acts = actions_of(m)
    return Alphabet.finite(sorted(acts)) if acts else Alphabet.open_ended()


def _finish(
    pv: Prover, source: Monitor, pf: Pf, kind: str, emit: bool
) -> CanonicalForm:
    if not emit:
        return CanonicalForm(pf.dst, kind, None)
    if pf.src == pf.dst:
        pv.steps = []
        pv._emit(source, source, Reflexivity())
    else:
        last = pv.steps[-1]
        want = Equation(pf.src, pf.dst)
        if last.equation != want:
            tail = pv._emit(pf.dst, pf.dst, Reflexivity())
            pv._emit(pf.src, pf.dst, Transitivity(pf.sid, tail.sid))
    return CanonicalForm(
        pf.dst, kind, Derivation(pv.system, pv.alphabet, tuple(pv.steps))
    )


def normal_form_closed(
    m: Monitor, alphabet: Alphabet | None = None, emit_proof: bool = False
) -> CanonicalForm:
    require_closed(m, "normal_form_closed")
    pv = Prover("Ev", _infer_alphabet(m, alphabet), emit_proof)
    return _finish(pv, m, _nf(pv, m), NF, emit_proof)


def reduced_nf_closed(
    m: Monitor, alphabet: Alphabet | None = None, emit_proof: bool = False
) -> CanonicalForm:
    require_closed(m, "reduced_nf_closed")
    pv = Prover("Ev", _infer_alphabet(m, alphabet), emit_proof)
    return _finish(pv, m, _rnf(pv, m, use_o1=False), RNF, emit_proof)


def omega_nf_closed(
    m: Monitor, alphabet: Alphabet, emit_proof: bool = False
) -> CanonicalForm:
    require_closed(m, "omega_nf_closed")
    alphabet = _infer_alphabet(m, alphabet)
    if not alphabet.is_finite:
        raise ValueError("omega_nf_closed needs a finite alphabet")
    pv = Prover("Eomega", alphabet, emit_proof)
    pf = _rnf(pv, m, use_o1=False)
    pf = pv.trans(pf, _omega_closed(pv, pf.dst, alphabet))
    return _finish(pv, m, pf, OMEGA_NF, emit_proof)


def open_nf(
    m: Monitor, alphabet: Alphabet | None = None, emit_proof: bool = False
) -> CanonicalForm:
    pv = Prover("Ev", _infer_alphabet(m, alphabet), emit_proof)
    return _finish(pv, m, _nf(pv, m), OPEN_NF, emit_proof)


def open_rnf(
    m: Monitor, alphabet: Alphabet | None = None, emit_proof: bool = False
) -> CanonicalForm:
    pv = Prover("Ev'", _infer_alphabet(m, alphabet), emit_proof)
    return _finish(pv, m, _rnf(pv, m, use_o1=True), OPEN_RNF, emit_proof)


def finite_act_rnf(
    m: Monitor, alphabet: Alphabet, emit_proof: bool = False
) -> CanonicalForm:
    alphabet = _infer_alphabet(m, alphabet)
    if not alphabet.is_finite or len(alphabet) < 2:
        raise AlphabetTooSmall("finite_act_rnf needs a finite alphabet with >= 2 actions")
    pv = Prover("Evf'", alphabet, emit_proof)
    return _finish(pv, m, _finite_act_rnf(pv, m, alphabet), FIN_RNF, emit_proof)


def unary_rnf(
    m: Monitor, alphabet: Alphabet, emit_proof: bool = False
) -> CanonicalForm:
    alphabet = _infer_alphabet(m, alphabet)
    if not alphabet.is_finite or len(alphabet) != 1:
        raise ValueError("unary_rnf needs a one-action alphabet")
    pv = Prover("Ev1'", alphabet, emit_proof)
    return _finish(pv, m, _unary_rnf(pv, m, alphabet), UNARY_RNF, emit_proof)


def unary_omega_nf(
    m: Monitor, alphabet: Alphabet, emit_proof: bool = False
) -> CanonicalForm:
    alphabet = _infer_alphabet(m, alphabet)
    if not alphabet.is_finite or len(alphabet) != 1:
        raise ValueError("unary_omega_nf needs a one-action alphabet")
    pv = Prover("Eomega1'", alphabet, emit_proof)
    return _finish(pv, m, _unary_omega(pv, m), UNARY_OMEGA_NF, emit_proof)


def omega_open_nf(
    m: Monitor, alphabet: Alphabet, emit_proof: bool = False
) -> CanonicalForm:
    alphabet = _infer_alphabet(m, alphabet)
    if not alphabet.is_finite or len(alphabet) < 2:
        raise AlphabetTooSmall("omega_open_nf needs a finite alphabet with >= 2 actions")
    pv = Prover("Eomegaf'", alphabet, emit_proof)
    return _finish(pv, m, _omega_open(pv, m, alphabet), OPEN_OMEGA_NF, emit_proof)


PIPELINES = {
    NF: normal_form_closed,
    RNF: reduced_nf_closed,
    OMEGA_NF: omega_nf_closed,
    OPEN_NF: open_nf,
    OPEN_RNF: open_rnf,
    FIN_RNF: finite_act_rnf,
    UNARY_RNF: unary_rnf,
    UNARY_OMEGA_NF: unary_omega_nf,
    OPEN_OMEGA_NF: omega_open_nf,
}


# ---------------------------------------------------------------------------
# Structural form predicates (used by tests and assertions)


def is_normal_form(t: Monitor, allow_vars: bool = True) -> bool:
    if t == END:
        return True
    has_yes = has_no = False
    seen_actions: set[str] = set()
    for p in _parts(t):
        if p == YES:
            if has_yes:
                return False
            has_yes = True
        elif p == NO:
            if has_no:
                return False
            has_no = True
        elif isinstance(p, Prefix):
            if p.action in seen_actions or p.body == END:
                return False
            seen_actions.add(p.action)
            if not is_normal_form(p.body, allow_vars):
                return False
        elif isinstance(p, Var):
            if not allow_vars:
                return False
        else:
            return False
    return True


def is_reduced_nf(t: Monitor, allow_vars: bool = True) -> bool:
    if not is_normal_form(t, allow_vars):
        return False
    has_yes, has_no, acts, variables = _decompose(t)
    if has_yes and has_no:
        return not acts and not variables
    for v, flag in ((YES, has_yes), (NO, has_no)):
        if flag and any(contains_verdict(b, v) for b in acts.values()):
            return False
    return all(is_reduced_nf(b, allow_vars) for b in acts.values())
