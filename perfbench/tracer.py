"""Per-layer tracing from outside the program.

The tracer rebinds public functions of the ``regmon`` modules to timing
wrappers in every ``regmon`` namespace that holds them (a function imported
into several modules is rebound in each, and so are module-level dicts such
as ``normalize.PIPELINES``), and puts the originals back on exit.  Spans
stay in memory: per query, each function aggregates its call count, self
time and total time.  A recursive function counts only its outermost entry.
Hashing and ``__eq__`` of terms cannot be wrapped from outside and show up
in their callers' self time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = (
    "cli",
    "syntax",
    "prooflog",
    "normalize",
    "equivalence",
    "semantics",
    "terms",
    "axioms",
)

# Public functions timed per layer, as "<module>.<function>".
TRACED = (
    "cli.main",
    "cli.cmd_equiv",
    "cli.cmd_prove",
    "cli.cmd_check_proof",
    "syntax.parse_monitor",
    "syntax.print_monitor",
    "syntax.parse_equation",
    "prooflog.print_derivation",
    "prooflog.parse_derivation",
    "prooflog.check_derivation",
    "equivalence.closed_counterexample",
    "equivalence.omega_closed_counterexample",
    "equivalence.oracle_counterexample",
    "equivalence.oracle_equiv_open",
    "equivalence.verdict_equiv_open",
    "equivalence.omega_equiv_open",
    "semantics.step_state",
    "semantics.lang_of",
    "semantics.omega_canon",
    "semantics.accepts",
    "semantics.rejects",
    "terms.apply_subst",
    "terms.ac_normalize",
    "terms.is_closed",
    "terms.require_closed",
    "axioms.soundness_fuzz",
    "axioms.instantiate",
    "axioms.list_system",
)

ORACLES = ("equivalence.oracle_counterexample", "equivalence.oracle_equiv_open")
CLOSED_CHECKS = ("equivalence.closed_counterexample", "equivalence.omega_closed_counterexample")


def _modules():
    pkg = importlib.import_module("regmon")
    mods = {name: importlib.import_module(f"regmon.{name}") for name in MODULES}
    return pkg, mods


def _alphabet_size(m, n, alphabet) -> int:
    from regmon.terms import actions_of

    if alphabet.is_finite:
        return len(alphabet)
    return len(actions_of(m) | actions_of(n)) + 1


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.query: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child_s]
        self._active: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- per-query records -------------------------------------------------

    def take_query(self) -> tuple[dict[str, list], dict[str, float]]:
        """Spans and counts of the query just finished; starts a fresh record."""
        done = (self.query, dict(self.counts))
        self.query = {}
        self.counts.clear()
        self._stack.clear()  # left over only if a timeout hit the bookkeeping
        self._active.clear()
        return done

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        pkg, mods = _modules()
        targets: dict[int, tuple[object, str]] = {}
        for dotted in TRACED:
            mod, fn = dotted.split(".")
            obj = getattr(mods[mod], fn)
            targets[id(obj)] = (obj, self._wrap(dotted, obj))
        normalize = mods["normalize"]
        for kind, fn in normalize.PIPELINES.items():
            targets[id(fn)] = (fn, self._wrap_pipeline(kind, fn))
        namespaces = [pkg, *mods.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        hit = targets.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._restore.append((value, key, item))
                            value[key] = hit[1]
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # -- wrappers --------------------------------------------------------------

    def _enter(self, name):
        self._active.add(name)
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, name, frame, elapsed):
        # Pop down to this call's own frame: a timeout that lands between
        # pushing a frame and entering the ``try`` leaves that frame behind.
        while self._stack and self._stack.pop() is not frame:
            pass
        self._active.discard(name)
        rec = self.query.get(name)
        if rec is None:
            rec = self.query[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed - frame[1]
        rec[2] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, name, fn):
        tracer = self
        counts = self.counts
        active = self._active
        perf = time.perf_counter
        under_oracle = name == "terms.apply_subst"
        closed_check = name in CLOSED_CHECKS
        product = name == "equivalence.closed_counterexample"
        step = name == "semantics.step_state"
        printer = name == "prooflog.print_derivation"

        def wrapper(*args, **kwargs):
            if name in active:  # recursive entry: counted in the outermost
                return fn(*args, **kwargs)
            if step and "equivalence.closed_counterexample" in active:
                counts["product_step_calls"] += 1
            if under_oracle and (ORACLES[0] in active or ORACLES[1] in active):
                counts["oracle_subst_calls"] += 1
            oracle_probe = closed_check and tracer._parent() in ORACLES
            before = counts["product_step_calls"] if product else 0.0
            frame = tracer._enter(name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, perf() - start)
            if product:
                k = _alphabet_size(*args[:3])
                counts["product_states"] += (counts["product_step_calls"] - before) / (2 * k)
            if printer:
                counts["proof_bytes"] += len(result)
            if oracle_probe:
                counts["oracle_probes"] += 1
                counts["oracle_useful"] += result is not None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_pipeline(self, kind, fn):
        tracer = self
        counts = self.counts
        perf = time.perf_counter

        def wrapper(m, alphabet=None, emit_proof=False):
            name = f"normalize.{kind}.{'proof' if emit_proof else 'pure'}"
            frame = tracer._enter(name)
            start = perf()
            try:
                cf = fn(m, alphabet, emit_proof=emit_proof)
            finally:
                tracer._leave(name, frame, perf() - start)
            if cf.derivation is not None:
                counts["proof_steps"] += len(cf.derivation.steps)
            return cf

        wrapper.__wrapped__ = fn
        return wrapper
