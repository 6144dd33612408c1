"""Per-layer metrics and reports from the traced run's per-query records."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import TRACED

PIPELINE_KINDS = (
    "nf",
    "rnf",
    "omega-nf",
    "open-nf",
    "open-rnf",
    "fin-rnf",
    "open-omega-nf",
    "unary-rnf",
    "unary-omega-nf",
)
CACHES = {"action_step": "_action_step", "tau_successors": "_tau_successors"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    fns = list(TRACED) + [
        f"normalize.{k}.{side}" for k in PIPELINE_KINDS for side in ("pure", "proof")
    ]
    for fn in fns:
        names += [(f"{fn}.calls", "count/query"), (f"{fn}.self_ms", "ms/query")]
    names += [
        ("cli.self_ms", "ms/query"),
        ("prooflog.proof_kb_p50", "KiB"),
        ("prooflog.parse_check_ratio", "ratio"),
        ("normalize.proof_steps", "count/query"),
        ("equivalence.product_states", "count/query"),
        ("equivalence.oracle.substitutions", "count/query"),
        ("equivalence.oracle.useful_ratio", "ratio"),
    ]
    for short in CACHES:
        names += [(f"semantics.{short}.hit_ratio", "ratio"), (f"semantics.{short}.entries", "count")]
    names += [("probe.recursion_errors", "count"), ("probe.overruns", "count")]
    names += [("trace.overhead_frac", "ratio"), ("trace.overhead_ms", "ms/query")]
    return names


def cache_stats() -> dict[str, tuple[int, int, int]]:
    """Hits, misses and entries of each semantics memo table."""
    from regmon import semantics

    out = {}
    for short, attr in CACHES.items():
        fn = getattr(semantics, attr, None)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[short] = (info.hits, info.misses, info.currsize)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _totals(records):
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(float)
    for q_spans, q_counts in records:
        for name, (calls, self_s, total_s) in q_spans.items():
            rec = spans[name]
            rec[0] += calls
            rec[1] += self_s
            rec[2] += total_s
        for name, value in q_counts.items():
            counts[name] += value
    return spans, counts


def per_layer(records, caches: dict[str, tuple[int, int, int]]) -> dict:
    n = max(1, len(records))
    spans, counts = _totals(records)
    units = dict(metric_names())
    out = {}
    for name, unit in units.items():
        fn, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = (spans[fn][0] / n, unit)
        elif field == "self_ms" and fn != "cli":
            out[name] = (spans[fn][1] * 1000.0 / n, unit)
    out["cli.self_ms"] = (
        sum(v[1] for k, v in spans.items() if k.startswith("cli.")) * 1000.0 / n,
        "ms/query",
    )
    proof_kb = [c.get("proof_bytes", 0) / 1024.0 for _, c in records if c.get("proof_bytes")]
    out["prooflog.proof_kb_p50"] = (statistics.median(proof_kb) if proof_kb else 0.0, "KiB")
    out["prooflog.parse_check_ratio"] = (
        _ratio(spans["prooflog.parse_derivation"][2], spans["prooflog.check_derivation"][2]),
        "ratio",
    )
    out["normalize.proof_steps"] = (counts["proof_steps"] / n, "count/query")
    out["equivalence.product_states"] = (counts["product_states"] / n, "count/query")
    out["equivalence.oracle.substitutions"] = (counts["oracle_subst_calls"] / 2 / n, "count/query")
    out["equivalence.oracle.useful_ratio"] = (
        _ratio(counts["oracle_useful"], counts["oracle_probes"]),
        "ratio",
    )
    for short in CACHES:
        hits, misses, entries = caches.get(short, (0, 0, 0))
        out[f"semantics.{short}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        out[f"semantics.{short}.entries"] = (entries, "count")
    return {name: out[name] for name in units if name in out}


def probe_metrics(samples) -> dict:
    """Failures of the defect probe, by kind (0 where a workload has none)."""
    kinds = [s.failure for s in samples if s.failure]
    return {
        "probe.recursion_errors": (kinds.count("RecursionError"), "count"),
        "probe.overruns": (kinds.count("timeout"), "count"),
    }


# ---------------------------------------------------------------------------
# Human-readable reports


def _module_self(q_spans) -> dict[str, float]:
    by = defaultdict(float)
    for name, (_, self_s, _) in q_spans.items():
        by[name.split(".")[0]] += self_s
    return by


def _shares(rows, walls) -> str:
    by = defaultdict(float)
    for q_spans in rows:
        for mod, s in _module_self(q_spans).items():
            by[mod] += s
    wall = sum(walls) or 1.0
    by["(outside regmon)"] = max(0.0, wall - sum(by.values()))
    return ", ".join(f"{m} {s / wall:.0%}" for m, s in sorted(by.items(), key=lambda kv: -kv[1]))


def report(wl, runs, records) -> list[str]:
    lines = []
    walls = [s.wall_s for s in runs]
    spans_only = [r[0] for r in records]
    lines.append(f"layer self-time shares, all queries: {_shares(spans_only, walls)}")

    def share_of(q, names):
        return sum(q.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total_of(q, name):
        return q.get(name, (0, 0.0, 0.0))[2]

    if wl.name == "decide":
        cli_names = [n for n in TRACED if n.startswith("cli.")]
        per_q = [
            (s.wall_s, share_of(q, cli_names)) for s, (q, _) in zip(runs, records) if not s.failure
        ]
        if per_q:
            lines.append(
                f"median query: {statistics.median(w for w, _ in per_q) * 1e3:.2f} ms,"
                f" cli self time {statistics.median(c for _, c in per_q) * 1e3:.2f} ms;"
                f" median cli share of a query {statistics.median(c / w for w, c in per_q):.0%}"
            )
        k = max(10, math.ceil(len(runs) / 100))
        order = sorted(range(len(runs)), key=lambda i: (runs[i].latency_s, runs[i].wall_s))[-k:]
        classes = defaultdict(int)
        for i in order:
            classes[wl.query(runs[i]).klass] += 1
        lines.append(
            f"slowest {k} queries (failed ones first): {dict(sorted(classes.items()))};"
            f" layers: {_shares([spans_only[i] for i in order], [walls[i] for i in order])}"
        )
        by_class = defaultdict(list)
        for i, s in enumerate(runs):
            by_class[wl.query(s).klass].append(i)
        for klass, idx in sorted(by_class.items()):
            failed = sum(1 for i in idx if runs[i].failure)
            lines.append(
                f"  {klass}: {len(idx)} queries, {failed} failed,"
                f" p50 {statistics.median(walls[i] for i in idx) * 1e3:.1f} ms;"
                f" layers: {_shares([spans_only[i] for i in idx], [walls[i] for i in idx])}"
            )
    if wl.name == "prove-check":
        buckets = defaultdict(list)
        for i, s in enumerate(runs):
            buckets[wl.query(s).bucket].append(i)
        parse = "prooflog.parse_derivation"
        lines.append("by size bucket (nodes): queries, proof steps p50, proof KiB p50, parse/check")
        for b in sorted(buckets, key=lambda b: int(b.strip("<="))):
            idx = buckets[b]
            steps = statistics.median(records[i][1].get("proof_steps", 0) for i in idx)
            kib = statistics.median(records[i][1].get("proof_bytes", 0) / 1024 for i in idx)
            p = sum(total_of(spans_only[i], parse) for i in idx)
            c = sum(total_of(spans_only[i], "prooflog.check_derivation") for i in idx)
            lines.append(f"  {b}: {len(idx)}, {steps:.0f}, {kib:.1f}, {_ratio(p, c):.2f}")
        total = sum(walls) or 1.0
        parse_total = sum(total_of(q, parse) for q in spans_only)
        lines.append(f"parse_derivation holds {parse_total / total:.0%} of prove-check time")
    if wl.name == "validate":
        total = sum(walls) or 1.0
        names = [n for n in TRACED if n.split(".")[0] in ("equivalence", "semantics")]
        names.append("terms.apply_subst")
        held = sum(share_of(q, names) for q in spans_only)
        lines.append(f"equivalence + semantics + terms.apply_subst self time: {held / total:.0%}")
    proof_self = sum(
        v[1] for q in spans_only for k, v in q.items() if k.startswith("normalize.") and k.endswith(".proof")
    )
    lines.append(f"normalize.*.proof self time: {proof_self * 1e3:.1f} ms")
    return lines


def probe_report(probe, samples, records, limit_s) -> list[str]:
    """One line per probe query: its outcome and the layers that held its time."""
    if not samples:
        return []
    lines = [f"defect probe, per-query limit {limit_s} s:"]
    for q, s, (spans, _) in zip(probe, samples, records):
        outcome = s.failure or f"answered in {s.wall_s * 1e3:.0f} ms"
        lines.append(f"  {q.klass}: {outcome}; layers: {_shares([spans], [s.wall_s])}")
    return lines
