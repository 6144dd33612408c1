"""Canonicalization pipelines with optional equational derivations.

Each pipeline rewrites a monitor into the canonical shape of one
completeness result and can emit a derivation in the matching axiom system,
validated by the independent checker in :mod:`regmon.prooflog`.  ``FORMS``
has one row per form, and the nine public pipelines are built from it.  The
form's axiom system picks the steps: O1 where it has O1, and where it has
O2 or V1 one bodies-first loop that removes the deeper occurrences of each
top variable (:func:`_eliminate`), run again after each omega fold under O2.
Recording on or off runs the same rewriting; without recording, the AC
bookkeeping of :class:`Prover` (flatten, sort, deduplicate, align) is plain
list work, and ``tests/test_normalize.py`` holds the pure and the proved
result equal.

Rewriting is innermost-first (children before parents) and terms are kept
in the AC-canonical order of :func:`regmon.terms.ac_normalize` between
stages.  A rewriting helper that continues a rewrite takes the proof so far
and returns it extended by its own steps, each chained on by one ``trans``.
The reduced forms drop what a verdict makes redundant by one top step,
which also rewrites each prefix summand beside a verdict ``v``: ``v`` is
pushed under the prefix, the step runs there, and ``v`` is pulled back out.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import axioms
from .prooflog import (
    AxiomUse,
    CongruenceSum,
    Context,
    Derivation,
    Reflexivity,
    Step,
    Symmetry,
    Transitivity,
    shared_nodes,
)
from .semantics import accepts, rejects
from .terms import (
    END,
    NO,
    YES,
    Alphabet,
    Equation,
    InternalError,
    Monitor,
    Prefix,
    Sum,
    Trace,
    Var,
    ac_equal,
    ac_normalize,
    actions_of,
    apply_subst,
    contains_verdict,
    depth,
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


# Rounds that a fixpoint loop (elimination or omega collapse) may take.
_FUEL = 199


def _unstable(pv: Prover) -> InternalError:
    """The error of a fixpoint loop out of fuel, naming the public pipeline
    of the system of ``pv``."""
    name = next(f.name for f in FORMS.values() if f.system == pv.system)
    return InternalError(f"{name} failed to stabilize")


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


def _decompose(t: Monitor):
    """Flags and action map of a canonical sum."""
    has_yes = has_no = False
    acts: dict[str, Monitor] = {}
    for p in _parts(t):
        if p == YES:
            has_yes = True
        elif p == NO:
            has_no = True
        elif isinstance(p, Prefix):
            acts[p.action] = p.body
    return has_yes, has_no, acts


# ---------------------------------------------------------------------------
# Proof-carrying rewriting


@dataclass(eq=False, slots=True)
class Pf:
    """A proved rewrite ``src = dst``; ``sid`` cites its step once emitted.

    While recording, a rule that cites other proofs (``rule`` applied to the
    step ids of ``cited``) is emitted only when it is cited in turn or is
    the conclusion (:meth:`Prover._materialize`); a reflexive proof never
    is.  A lift under a one-hole context cites the innermost proof that is
    not one, and a chain of ``trans`` is emitted as one step over every link.
    """

    src: Monitor
    dst: Monitor
    sid: int | None = None
    rule: type | None = None
    cited: tuple[Pf, ...] = ()


class Prover:
    """Emits checkable steps while rewriting; ``record=False`` runs the same
    rewriting without building the step list, and the AC bookkeeping
    (:meth:`flatten`, :meth:`shallow_canon`, :meth:`align`, :meth:`bubble`)
    as plain list operations."""

    def __init__(self, system: str, alphabet: Alphabet, record: bool):
        self.system = system
        self.alphabet = alphabet
        self.record = record
        self.steps: list[Step] = []
        # Axiom instances built so far, by schema and bindings.
        self.instances: dict = {}
        # Each axiom use so far, by schema, bindings and sorted mapping: its
        # two sides and its justification.
        self.uses: dict = {}
        # The step of each equation stated so far: each is stated once.
        self.known: dict[tuple[Monitor, Monitor], int] = {}
        # The proof of ``t = NF(t)`` for each term normalized so far, and a
        # reflexive one for each normal form reached.
        self.nfs: dict[Monitor, Pf] = {}

    # -- primitives ---------------------------------------------------------

    def _emit(self, src: Monitor, dst: Monitor, just) -> Pf:
        if not self.record:
            return Pf(src, dst)
        sid = self.known.get((src, dst))
        if sid is None:
            sid = self.known[src, dst] = len(self.steps) + 1
            self.steps.append(Step(sid, Equation(src, dst), just))
        return Pf(src, dst, sid)

    def _rule(self, src: Monitor, dst: Monitor, rule: type, *cited: Pf) -> Pf:
        return Pf(src, dst, None, rule, cited) if self.record else Pf(src, dst)

    def _materialize(self, pf: Pf) -> int:
        """Emit ``pf`` and what it cites, innermost first, each equation
        once; its step id."""
        todo = [pf]
        while todo:
            node = todo[-1]
            if node.sid is None:
                node.sid = self.known.get((node.src, node.dst))
            if node.sid is not None:
                todo.pop()
                continue
            if node.rule is Transitivity:
                node.cited = self._links(node)
            pending = [c for c in node.cited if c.sid is None]
            if pending:
                todo += reversed(pending)
                continue
            todo.pop()
            just = node.rule(*(c.sid for c in node.cited))
            node.sid = self._emit(node.src, node.dst, just).sid
        return pf.sid

    def _links(self, chain: Pf) -> tuple[Pf, ...]:
        """The links of ``chain``, with the chains among them that are not
        stated yet spliced in."""
        links: list[Pf] = []
        stack = list(reversed(chain.cited))
        while stack:
            node = stack.pop()
            if node.rule is not Transitivity or node.sid is not None:
                links.append(node)
            elif (node.src, node.dst) in self.known:
                links.append(node)
            else:
                stack += reversed(node.cited)
        return tuple(links)

    def refl(self, t: Monitor) -> Pf:
        return Pf(t, t)

    def ax(self, name: str, bindings=None, subst=None) -> Pf:
        bindings = bindings or {}
        key = (name, *bindings.items())
        mapping = tuple(sorted(subst.items())) if subst else ()
        use = self.uses.get((key, mapping))
        if use is None:
            inst = self.instances.get(key)
            if inst is None:
                inst = self.instances[key] = axioms.instantiate(name, bindings, self.alphabet)
            sigma = dict(mapping)
            use = self.uses[key, mapping] = (
                apply_subst(sigma, inst.equation.lhs),
                apply_subst(sigma, inst.equation.rhs),
                AxiomUse(inst.schema, inst.bindings, mapping),
            )
        return self._emit(*use)

    def ax_rev(self, name: str, bindings=None, subst=None) -> Pf:
        return self.sym(self.ax(name, bindings, subst))

    def sym(self, pf: Pf) -> Pf:
        return pf if pf.src == pf.dst else self._rule(pf.dst, pf.src, Symmetry, pf)

    def trans(self, *pfs: Pf) -> Pf:
        if not pfs:
            raise InternalError("transitivity of no proofs")
        acc = pfs[0]
        for nxt in pfs[1:]:
            if acc.dst != nxt.src:
                raise InternalError(f"broken chain:\n  {acc.dst!r}\n  {nxt.src!r}")
            if nxt.src == nxt.dst:
                continue
            if acc.src == acc.dst:
                acc = nxt
            elif acc.src == nxt.dst:
                acc = Pf(acc.src, nxt.dst)
            else:
                acc = self._rule(acc.src, nxt.dst, Transitivity, acc, nxt)
        return acc

    def lift(self, src: Monitor, dst: Monitor, inner: Pf) -> Pf:
        """``src = dst`` where the two sides are one context around the two
        sides of ``inner``."""
        if src == inner.src:
            return inner
        if src == dst:
            return Pf(src, dst)
        return self._rule(src, dst, Context, inner.cited[0] if inner.rule is Context else inner)

    def congsum(self, left: Pf, right: Pf) -> Pf:
        src = Sum(left.src, right.src)
        dst = Sum(left.dst, right.dst)
        if left.src == left.dst:
            return self.lift(src, dst, right)
        if right.src == right.dst:
            return self.lift(src, dst, left)
        return self._rule(src, dst, CongruenceSum, left, right)

    def congpre(self, action: str, inner: Pf) -> Pf:
        return self.lift(Prefix(action, inner.src), Prefix(action, inner.dst), inner)

    # -- sum-list rewriting --------------------------------------------------
    # A sum is the list of its summands in left-nested order; rewrites happen
    # at a spine node (a left-nested prefix of the list) and sum congruences
    # wrap them back into the full term.

    def rw_spine(self, term: Monitor, i: int, inner: Pf) -> Pf:
        parts = _parts(term)
        if _ln(parts[: i + 1]) != inner.src:
            raise InternalError("spine mismatch")
        return self.lift(term, _ln([inner.dst, *parts[i + 1 :]]), inner)

    def rw_part(self, term: Monitor, i: int, inner: Pf) -> Pf:
        parts = _parts(term)
        if parts[i] != inner.src:
            raise InternalError("part mismatch")
        parts[i] = inner.dst
        return self.lift(term, _ln(parts), inner)

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
        if not self.record:
            parts = _parts(term)
            parts.insert(j, parts.pop(i))
            return Pf(term, _ln(parts))
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
        if parts[i] != END or len(parts) < 2:
            raise InternalError(f"no end summand to drop at {i}")
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
        node = term
        while isinstance(node, Sum) and not isinstance(node.right, Sum):
            node = node.left
        if not isinstance(node, Sum):  # left-nested already
            return self.refl(term)
        if not self.record:
            return Pf(term, _ln(_parts(term)))
        pl = self.flatten(term.left)
        pr = self.flatten(term.right)
        pf = self.congsum(pl, pr)
        return self.trans(pf, self._append(pl.dst, pr.dst))

    def shallow_canon(self, term: Monitor) -> Pf:
        """Flatten, drop ``end`` summands, sort, remove duplicates."""
        if not self.record:
            parts = sorted([p for p in _parts(term) if p != END] or [END], key=sort_key)
            return Pf(term, _ln([p for i, p in enumerate(parts) if not i or p != parts[i - 1]]))
        pf = self.flatten(term)
        parts = _parts(pf.dst)
        while len(parts) > 1 and END in parts:
            pf = self.trans(pf, self.drop_end(pf.dst, parts.index(END)))
            parts = _parts(pf.dst)
        keys = [sort_key(p) for p in parts]
        for limit in range(1, len(keys)):
            pos = limit
            while pos > 0 and keys[pos] < keys[pos - 1]:
                pf = self.trans(pf, self.swap(pf.dst, pos - 1))
                keys[pos - 1], keys[pos] = keys[pos], keys[pos - 1]
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
        if pf.dst != ac_normalize(term):
            raise InternalError(f"canon missed the AC normal form of {term!r}")
        return pf

    def align(self, src: Monitor, dst: Monitor) -> Pf:
        """Proof of ``src = dst`` for AC-equal terms."""
        if src == dst or not self.record and ac_equal(src, dst):
            return Pf(src, dst)
        p1 = self.canon(src)
        p2 = self.canon(dst)
        if p1.dst != p2.dst:
            raise InternalError("align on non-AC-equal terms")
        return self.trans(p1, self.sym(p2))


def _map_bodies(pv: Prover, pf: Pf, rewrite) -> Pf:
    """``pf`` extended by rewriting the body of every prefix summand of its
    result with ``rewrite(pv, body)``.  That result must be a canonical sum
    of (open) normal forms: no two of its prefix summands share an action,
    so the action alone keeps each in its place and the sum stays canonical."""
    for p in _parts(pf.dst):
        if isinstance(p, Prefix):
            inner = rewrite(pv, p.body)
            if inner.src != inner.dst:
                idx = _parts(pf.dst).index(p)
                pf = pv.trans(pf, pv.rw_part(pf.dst, idx, pv.congpre(p.action, inner)))
    return pf


# ---------------------------------------------------------------------------
# Unfolding: v = v + s.v (Y_a / N_a) and x = x + a^d.x (V1)


def _unfold(pv: Prover, leaf: Monitor, trace: Trace, grow) -> Pf:
    """``leaf = leaf + s.leaf`` for a nonempty trace ``s``, where
    ``grow(a)`` proves the one-step case ``leaf = leaf + a.leaf``."""
    if not trace:
        raise InternalError("unfold along the empty trace")
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


def _split_prefix(pv: Prover, action: str, inner: Pf) -> Pf:
    """``a.t = a.u + a.w`` from ``inner``, a proof of ``t = u + w``."""
    pf = pv.congpre(action, inner)
    u, w = inner.dst.left, inner.dst.right
    return pv.trans(pf, pv.ax("D_a", {"action": action}, subst={"x": u, "y": w}))


def _pull_last(pv: Prover, t: Monitor, i: int, split: Pf) -> Pf:
    """Rewrite part ``i`` of ``t`` by ``split``, a proof of ``p = p' + u``,
    and move the new summand ``u`` last."""
    n = len(_parts(t))
    pf = pv.rw_part(t, i, split)
    pf = pv.trans(pf, pv.flatten(pf.dst))
    return pv.trans(pf, pv.bubble(pf.dst, i + 1, n))


def _add_trace_verdict(pv: Prover, t: Monitor, trace: Trace, v: Monitor) -> Pf:
    """``t = t + trace.v`` when a syntactic prefix ``path`` of ``trace``
    leads to a ``v`` summand: that summand becomes ``v + rest.v`` for the
    rest of the trace, and the new summand is lifted out along ``path``."""
    parts = _parts(t)
    if v in parts:
        if trace:
            grow = _unfold(pv, v, trace, lambda a: pv.ax(_grow_axiom(v), {"action": a}))
        else:
            grow = pv.ax_rev("A3", subst={"x": v})
        pf = _pull_last(pv, t, parts.index(v), grow)
    else:
        i = _prefix_index(parts, trace[0]) if trace else None
        if i is None:
            raise InternalError("verdict not syntactically reachable")
        inner = _add_trace_verdict(pv, parts[i].body, trace[1:], v)
        pf = _pull_last(pv, t, i, _split_prefix(pv, trace[0], inner))
    if pf.dst != Sum(t, axioms.prefix_seq(trace, v)):
        raise InternalError("trace verdict addition missed its target")
    return pf


# ---------------------------------------------------------------------------
# Normal form (closed and open share the code; variables are leaves)


def _nf(pv: Prover, m: Monitor) -> Pf:
    """``m = NF(m)``.  The left spine of a sum is walked in a loop, bottom-up,
    so only right children and prefix bodies recurse."""
    spine = []
    while isinstance(m, Sum) and m not in pv.nfs:
        spine.append(m)
        m = m.left
    pf = pv.nfs.get(m)
    if pf is None:
        if isinstance(m, Prefix):
            inner = _nf(pv, m.body)
            pf = pv.congpre(m.action, inner)
            if inner.dst == END:
                pf = pv.trans(pf, pv.ax("E_a", {"action": m.action}))
        else:
            pf = pv.refl(m)
        _memo_nf(pv, m, pf)
    for node in reversed(spine):
        pf = pv.congsum(pf, _nf(pv, node.right))
        pf = pv.trans(pf, _merge_nf(pv, pf.dst))
        _memo_nf(pv, node, pf)
    return pf


def _memo_nf(pv: Prover, m: Monitor, pf: Pf) -> None:
    pv.nfs[m] = pf
    pv.nfs.setdefault(pf.dst, pv.refl(pf.dst))


def _rnf(pv: Prover, m: Monitor) -> Pf:
    """``m`` to its (open) normal form, then to its reduced normal form."""
    pf = _nf(pv, m)
    return pv.trans(pf, _reduce(pv, pf.dst))


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


def _pair_with_flag(pv: Prover, pf: Pf, v: Monitor, target: Monitor, inner: Pf) -> Pf:
    """``pf`` extended by bringing the flag ``v`` to the front and ``target``
    next to it, then rewriting their pair with ``inner`` (a proof about
    ``v + target``)."""
    vpos = _parts(pf.dst).index(v)
    if vpos != 0:
        pf = pv.trans(pf, pv.bubble(pf.dst, vpos, 0))
    idx = _parts(pf.dst).index(target)
    if idx != 1:
        pf = pv.trans(pf, pv.bubble(pf.dst, idx, 1))
    return pv.trans(pf, pv.rw_spine(pf.dst, 1, inner))


def _needs_prune(body: Monitor, opp: Monitor) -> bool:
    """A node reached through prefixes has ``opp`` next to other content."""
    parts = _parts(body)
    if opp in parts and len(parts) > 1:
        return True
    return any(isinstance(p, Prefix) and _needs_prune(p.body, opp) for p in parts)


def _beside(pv: Prover, v: Monitor, action: str, body: Monitor) -> Pf:
    """``v + a.body = v + a.rest``, or ``= v`` when nothing is left, where
    ``v + rest`` is ``v + body`` after the top step of the reduction: ``v``
    is pushed under the prefix, rewrites the sum it joins there, and is
    pulled back out.  ``body`` is a prefix body of a normal form."""
    grow = _grow_axiom(v)
    if body == v:
        return pv.ax_rev(grow, {"action": action})
    push = _push_verdict(pv, v, action, body)
    inner = _reduce_top(pv, pv.shallow_canon(Sum(v, body)))
    if inner.dst == v:
        pull = pv.ax_rev(grow, {"action": action})
    else:
        rest = _ln([p for p in _parts(inner.dst) if p != v])
        if _parts(inner.dst)[0] == v:
            inner = pv.trans(inner, pv.sym(pv.flatten(Sum(v, rest))))
        else:  # ``no`` beside ``yes``
            inner = pv.trans(inner, pv.align(inner.dst, Sum(v, rest)))
        pull = pv.sym(_push_verdict(pv, v, action, rest))
    mid = pv.congsum(pv.refl(v), pv.congpre(action, inner))
    return pv.trans(push, mid, pull)


def _reduce(pv: Prover, t: Monitor) -> Pf:
    """Canonical (open) NF to canonical (open) reduced NF: every body is
    reduced in its own right, innermost first, and then the top step
    :func:`_reduce_top` runs on the sum.  A double verdict needs no reduced
    bodies, since its top step drops or absorbs every other summand."""
    pf = pv.refl(t)
    has_yes, has_no, _ = _decompose(t)
    if not (has_yes and has_no):
        # This adds and drops no top-level verdict, so the flags still hold.
        pf = _map_bodies(pv, pf, _reduce)
    return _reduce_top(pv, pf)


def _reduce_top(pv: Prover, pf: Pf) -> Pf:
    """``pf`` extended by the top step of the reduction, on a canonical sum
    whose prefix bodies are reduced (or that holds both verdicts).

    Where the system of ``pv`` has O1, O1 removes the summands under a
    double verdict.  Where it has not, the input must be closed, and each
    prefix summand under a double verdict is stripped of ``yes`` if it holds
    ``yes`` and then absorbed by ``no``: E_a removed the ``end`` bodies, so
    a closed body free of ``no`` holds ``yes``.  Beside one verdict ``v``,
    each prefix summand that holds ``v`` or, with O1, reaches the opposite
    verdict next to other content is rewritten by :func:`_beside`, which
    drops the repeats of ``v`` (Y_a/N_a) and prunes that content (O1).
    """
    t = pf.dst
    has_yes, has_no, _ = _decompose(t)
    o1 = "O1" in axioms.SYSTEM_SCHEMAS[pv.system]
    if has_yes and has_no:
        rest = [p for p in _parts(t) if p not in (YES, NO)]
        if not rest:
            return pf
        if o1:
            pf = pv.trans(pf, pv.align(t, Sum(Sum(YES, NO), _ln(rest))))
            pf = pv.trans(pf, pv.ax_rev("O1", subst={"x": _ln(rest)}))
        else:
            for target in rest:
                if contains_verdict(target.body, YES):
                    inner = _beside(pv, YES, target.action, target.body)
                    pf = _pair_with_flag(pv, pf, YES, target, inner)
                    if inner.dst == YES:
                        continue
                    target = inner.dst.right
                inner = _beside(pv, NO, target.action, target.body)
                pf = _pair_with_flag(pv, pf, NO, target, inner)
        return pv.trans(pf, pv.shallow_canon(pf.dst))
    v = YES if has_yes else NO if has_no else None
    if v is None:
        return pf
    opp = _opposite(v)

    def holds(p: Monitor) -> bool:
        if not isinstance(p, Prefix):
            return False
        return contains_verdict(p.body, v) or o1 and _needs_prune(p.body, opp)

    while (p := next(filter(holds, _parts(pf.dst)), None)) is not None:
        pf = _pair_with_flag(pv, pf, v, p, _beside(pv, v, p.action, p.body))
        pf = pv.trans(pf, pv.shallow_canon(pf.dst))
    return pf


# ---------------------------------------------------------------------------
# Omega collapse (closed and open share the fold)


def _try_fold(pv: Prover, pf: Pf) -> Pf | None:
    """``pf`` extended by folding a full fan ``sum of a.(v + rest_a)`` into
    ``v + sum of a.rest_a``; None if there is none."""
    actions = pv.alphabet.sorted_actions()
    for v in (YES, NO):
        has_yes, has_no, acts = _decompose(pf.dst)
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
            idx = _parts(pf.dst).index(Prefix(a, body))
            split = _split_prefix(pv, a, pv.align(body, Sum(v, rest)))
            pf = pv.trans(pf, pv.rw_part(pf.dst, idx, split))
            pf = pv.trans(pf, pv.flatten(pf.dst))
        # gather the fan at the front, in sorted action order
        for rank, a in enumerate(actions):
            idx = _parts(pf.dst).index(Prefix(a, v))
            pf = pv.trans(pf, pv.bubble(pf.dst, idx, rank))
        pf = pv.trans(pf, pv.rw_spine(pf.dst, len(actions) - 1, pv.ax_rev(_fan_axiom(v))))
        return pv.trans(pf, pv.shallow_canon(pf.dst))
    return None


def _omega_closed(pv: Prover, t: Monitor) -> Pf:
    """Omega-collapse a canonical (open) RNF over a finite alphabet, bodies
    first.  After each fold the sum is reduced again and, where the system
    of ``pv`` has O2, its variables are eliminated again."""
    pf = pv.refl(t)
    for _ in range(_FUEL):
        pf = _map_bodies(pv, pf, _omega_closed)
        folded = _try_fold(pv, pf)
        if folded is None:
            return pf
        pf = pv.trans(folded, _reduce(pv, folded.dst))
        if "O2" in axioms.SYSTEM_SCHEMAS[pv.system]:
            pf = pv.trans(pf, _finite_act_rnf(pv, pf.dst))
    raise _unstable(pv)


def _omega_nf(pv: Prover, m: Monitor) -> Pf:
    pf = _finite_act_rnf(pv, m)
    return pv.trans(pf, _omega_closed(pv, pf.dst))


# ---------------------------------------------------------------------------
# Finite-alphabet open forms: O2 elimination and V1 absorption


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
    """``(s, x)`` for each top variable ``x`` of ``t`` that occurs again as a
    summand after a nonempty trace ``s``, shortest trace first."""
    top = {p.name for p in _parts(t) if isinstance(p, Var)}
    out: list[tuple[Trace, str]] = []

    def walk(node: Monitor, path: Trace) -> None:
        for p in _parts(node):
            if isinstance(p, Var) and path and p.name in top:
                out.append((path, p.name))
            elif isinstance(p, Prefix):
                walk(p.body, path + (p.action,))

    if top:
        walk(t, ())
    return sorted(set(out), key=lambda sx: (len(sx[0]), sx[0], sx[1]))


def _extract_var(pv: Prover, t: Monitor, s: Trace, name: str) -> Pf:
    """``t = R + s.x``.  The node after ``s`` is never ``x`` alone:
    ``covering_k`` found both verdicts after each ``s.c`` with the variables
    mapped to ``end``, and no path of a reduced normal form passes both
    verdicts and goes on."""
    x = Var(name)
    head, rest = s[0], s[1:]
    parts = _parts(t)
    i = _prefix_index(parts, head)
    body = parts[i].body
    if rest:
        inner = _extract_var(pv, body, rest, name)
    elif body == x:
        raise InternalError(f"the node after {s!r} holds only {name}")
    else:
        inner = pv.align(body, Sum(_ln([p for p in _parts(body) if p != x]), x))
    return _pull_last(pv, t, i, _split_prefix(pv, head, inner))


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
    pf_flat = _rnf(pv, flat)
    pf_guard = _rnf(pv, guard)
    if pf_flat.dst != pf_guard.dst:
        raise InternalError("saturation summands must match the guard")
    pf = pv.trans(pf, pv.congsum(pv.refl(base), pv.trans(pf_flat, pv.sym(pf_guard))))
    return pf


def _eliminate_occurrence(pv: Prover, pf: Pf, s: Trace, name: str, k: int) -> Pf:
    """``pf`` extended by removing the occurrence of the top variable
    ``name`` after ``s`` through the O2 instance at ``(s, k)``."""
    t = pf.dst
    guard = axioms.bar_k(s, k, Sum(YES, NO), pv.alphabet)
    members = both_verdict_members(s, k, pv.alphabet)
    x = Var(name)
    sx = axioms.prefix_seq(s, x)
    # 1. t = t + guard
    pf = pv.trans(pf, _saturate_to(pv, t, members, guard))
    # 2. pull the deep occurrence out: t = R + s.x
    extract = _extract_var(pv, t, s, name)
    pf = pv.trans(pf, pv.congsum(extract, pv.refl(guard)))
    r_term = extract.dst.left  # contains the top-level x summand
    rest = [p for p in _parts(r_term) if p != x]
    # 3. shuffle into the O2 redex and apply it; with x mapped to end the
    # verdicts that covering_k found come from ``rest``, so it is not empty
    if not rest:
        raise InternalError(f"nothing but {name} is left beside {sx!r}")
    pf = pv.trans(pf, pv.align(pf.dst, Sum(_ln(rest), Sum(Sum(x, sx), guard))))
    o2 = pv.ax("O2", {"s": s, "k": k}, subst={"x": x})
    pf = pv.trans(pf, pv.congsum(pv.refl(_ln(rest)), o2))
    # 4. drop the guard again
    remainder = ac_normalize(_ln(rest + [x]))
    pf = pv.trans(pf, pv.align(pf.dst, Sum(remainder, guard)))
    pf = pv.trans(pf, pv.sym(_saturate_to(pv, remainder, members, guard)))
    return pv.trans(pf, _rnf(pv, pf.dst))


def _remove_var_at(t: Monitor, s: Trace, name: str) -> Monitor:
    """The canonical sum ``t`` without its ``name`` summand after ``s``; a
    prefix whose body is left empty goes too."""
    parts = _parts(t)
    if not s:
        parts.remove(Var(name))
    else:
        i = _prefix_index(parts, s[0])
        body = _remove_var_at(parts[i].body, s[1:], name)
        if body == END:
            del parts[i]
        else:
            parts[i] = Prefix(s[0], body)
    return _ln(sorted(parts, key=sort_key)) if parts else END


def _absorb(pv: Prover, pf: Pf, s: Trace, name: str) -> Pf:
    """``pf`` extended by removing the occurrence of the top variable
    ``name`` after ``s`` over one action: the top ``x`` of the term without
    it grows into ``x + s.x`` by V1, which merges back into the term."""
    x = Var(name)
    without = _remove_var_at(pf.dst, s, name)
    unfold = _unfold(pv, x, s, lambda _: pv.ax("V1", subst={"x": x}))
    grow = pv.rw_part(without, _parts(without).index(x), unfold)
    grow = pv.trans(grow, pv.flatten(grow.dst))
    grow = pv.trans(grow, _nf(pv, grow.dst))
    grow = pv.trans(grow, pv.align(grow.dst, pf.dst))
    pf = pv.trans(pf, pv.sym(grow))
    return pv.trans(pf, _reduce(pv, pf.dst))


def _finite_act_rnf(pv: Prover, m: Monitor) -> Pf:
    """``m`` to its (open) reduced normal form and, where the system of
    ``pv`` has O2 or V1, on through :func:`_eliminate`."""
    pf = _rnf(pv, m)
    if {"O2", "V1"}.isdisjoint(axioms.SYSTEM_SCHEMAS[pv.system]):
        return pf
    return pv.trans(pf, _eliminate(pv, pf.dst))


def _eliminate(pv: Prover, t: Monitor) -> Pf:
    """Remove, bodies first, the occurrences below the top of a top variable
    that the system of ``pv`` lets go: O2 eliminates one that a guard covers
    (:func:`covering_k`), V1 absorbs every one.  ``t`` is an (open) RNF and
    so is each of its bodies, so none is reduced again first."""
    o2 = "O2" in axioms.SYSTEM_SCHEMAS[pv.system]
    pf = pv.refl(t)
    for _ in range(_FUEL):
        rd = _map_bodies(pv, pv.refl(pf.dst), _eliminate)
        for s, x in _var_occurrences(rd.dst):
            if not o2:
                rd = _absorb(pv, rd, s, x)
                break
            k = covering_k(rd.dst, s, pv.alphabet)
            if k is not None:
                rd = _eliminate_occurrence(pv, rd, s, x, k)
                break
        else:
            if rd.src == rd.dst:
                return pf
        pf = pv.trans(pf, rd)
    raise _unstable(pv)


# ---------------------------------------------------------------------------
# Unary omega form


def _strip_prefixes(pv: Prover, m: Monitor) -> Pf:
    """Erase every prefix with ``x = a.x`` (sound over a singleton alphabet
    modulo omega-verdict equivalence), bodies first.  As in :func:`_nf`, the
    left spine of a sum is walked in a loop and joined by sum congruence,
    and each sum is canonicalized once."""
    spine = []
    while isinstance(m, Sum):
        spine.append(m)
        m = m.left
    if isinstance(m, Prefix):
        inner = _strip_prefixes(pv, m.body)
        pf = pv.trans(pv.congpre(m.action, inner), pv.ax_rev("V1_w", subst={"x": inner.dst}))
    else:
        pf = pv.refl(m)
    for node in reversed(spine):
        pf = pv.congsum(pf, _strip_prefixes(pv, node.right))
    return pv.trans(pf, pv.shallow_canon(pf.dst)) if spine else pf


def _unary_omega(pv: Prover, m: Monitor) -> Pf:
    pf = _strip_prefixes(pv, m)
    return pv.trans(pf, _reduce(pv, pf.dst))


# ---------------------------------------------------------------------------
# Public pipelines


def _finish(
    pv: Prover, source: Monitor, pf: Pf, kind: str, emit: bool
) -> CanonicalForm:
    if not emit:
        return CanonicalForm(pf.dst, kind, None)
    if pf.src == pf.dst:
        pv.steps = [Step(1, Equation(source, source), Reflexivity())]
    elif pv._materialize(pf) != pv.steps[-1].sid:
        # The conclusion was stated before: restate it last, by the empty context.
        pv.steps.append(Step(len(pv.steps) + 1, Equation(pf.src, pf.dst), Context(pf.sid)))
    steps = tuple(pv.steps)
    return CanonicalForm(
        pf.dst, kind, Derivation(pv.system, pv.alphabet, steps, shared_nodes(steps))
    )


# What a form may need of its alphabet: a test, the error that a failed test
# raises, and the need as that error words it.
_FINITE = (lambda a: a.is_finite, ValueError, "a finite alphabet")
_TWO = (
    lambda a: a.is_finite and len(a) >= 2, AlphabetTooSmall, "a finite alphabet with >= 2 actions"
)
_ONE = (lambda a: a.is_finite and len(a) == 1, ValueError, "a one-action alphabet")


@dataclass(frozen=True, slots=True)
class Form:
    """A canonical form: its ``--form`` name, the name of its public
    pipeline, the axiom system of its derivations, whether it takes closed
    terms only, what it needs of its alphabet, and its rewriting (which
    reads the alphabet off the :class:`Prover`)."""

    option: str
    name: str
    system: str
    closed: bool
    needs: tuple | None
    rewrite: Callable[[Prover, Monitor], Pf]


FORMS = {
    NF: Form("nf", "normal_form_closed", "Ev", True, None, _nf),
    RNF: Form("rnf", "reduced_nf_closed", "Ev", True, None, _rnf),
    OMEGA_NF: Form("omega", "omega_nf_closed", "Eomega", True, _FINITE, _omega_nf),
    OPEN_NF: Form("open-nf", "open_nf", "Ev", False, None, _nf),
    OPEN_RNF: Form("open-rnf", "open_rnf", "Ev'", False, None, _rnf),
    FIN_RNF: Form("fin-rnf", "finite_act_rnf", "Evf'", False, _TWO, _finite_act_rnf),
    UNARY_RNF: Form("unary-rnf", "unary_rnf", "Ev1'", False, _ONE, _finite_act_rnf),
    UNARY_OMEGA_NF: Form("unary-omega", "unary_omega_nf", "Eomega1'", False, _ONE, _unary_omega),
    OPEN_OMEGA_NF: Form("open-omega", "omega_open_nf", "Eomegaf'", False, _TWO, _omega_nf),
}


def _pipeline(kind: str) -> Callable[..., CanonicalForm]:
    """The public pipeline of ``FORMS[kind]``: the input is checked against
    the form's contract (closedness first, then the alphabet's actions, then
    its size), rewritten, and its derivation recorded if ``emit_proof``.
    Without an alphabet, the term's actions are the alphabet."""
    form = FORMS[kind]

    def pipeline(
        m: Monitor, alphabet: Alphabet | None = None, emit_proof: bool = False
    ) -> CanonicalForm:
        if form.closed:
            require_closed(m, form.name)
        if alphabet is None:
            acts = actions_of(m)
            alphabet = Alphabet.finite(sorted(acts)) if acts else Alphabet.open_ended()
        elif alphabet.is_finite and not actions_of(m) <= alphabet.actions:
            missing = sorted(actions_of(m) - alphabet.actions)
            raise ValueError(f"monitor uses actions outside the alphabet: {missing}")
        if form.needs is not None:
            fits, error, need = form.needs
            if not fits(alphabet):
                raise error(f"{form.name} needs {need}")
        pv = Prover(form.system, alphabet, emit_proof)
        return _finish(pv, m, form.rewrite(pv, m), kind, emit_proof)

    pipeline.__name__ = pipeline.__qualname__ = form.name
    return pipeline


PIPELINES = {kind: _pipeline(kind) for kind in FORMS}
normal_form_closed = PIPELINES[NF]
reduced_nf_closed = PIPELINES[RNF]
omega_nf_closed = PIPELINES[OMEGA_NF]
open_nf = PIPELINES[OPEN_NF]
open_rnf = PIPELINES[OPEN_RNF]
finite_act_rnf = PIPELINES[FIN_RNF]
unary_rnf = PIPELINES[UNARY_RNF]
unary_omega_nf = PIPELINES[UNARY_OMEGA_NF]
omega_open_nf = PIPELINES[OPEN_OMEGA_NF]
