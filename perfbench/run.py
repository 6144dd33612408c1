"""Benchmark of the regmon library: one workload per invocation.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Workloads: ``decide``, ``prove-check``, ``validate`` (see ``workloads.py``).
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the run repeats the same queries with the
per-layer tracer installed and reports per-layer metrics and the tracing
overhead instead; on ``decide`` it then runs the defect probe, the known
blowups, once under the tracer.  Lines before the last one are a
human-readable report.  End-to-end timings are scaled query by query by
the machine's slowdown (``harness.calibrate``); the report gives them as
measured too.  The program is imported from ``src/`` of the checkout this
file sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("decide", "prove-check", "validate")


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and insist on using it."""
    if not os.path.isfile(os.path.join(SRC, "regmon", "__init__.py")):
        sys.exit(f"perfbench: no regmon package under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import regmon

    if not os.path.abspath(regmon.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported regmon from {regmon.__file__}, not {SRC}")


def load_config() -> dict:
    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    def __init__(self, name: str, seed: int, config: dict, workdir: str):
        import workloads as w

        self.name = name
        self.limit_s = config["query_limit_s"][name]
        self.tail_p = config["tail_percentile"][name]
        self.found: set = set()
        # The defect probe: known blowups, run once in the traced run.
        self.probe_limit_s = w.PROBE_LIMIT_S
        if name == "decide":
            self.stream, self.unverified = w.decide_stream(seed)
            self.probe = lambda: w.decide_probe(seed)
        elif name == "prove-check":
            self.stream, self.unverified, aside = w.prove_stream(seed, workdir)
            self.probe = lambda: aside[: w.PROVE_PROBE]
        else:
            self.stream, self.unverified, self.found = w.validate_stream(seed)
            self.probe = list
        self.clear_caches = w.clear_caches

    def query(self, sample):
        return self.stream[sample.index % len(self.stream)]

    def check(self, samples) -> list[str]:
        from harness import check_answers

        errors = check_answers(self.stream, samples)
        if self.name == "validate":
            ran = {self.query(s).klass for s in samples if not s.failure}
            for schema in ("V1", "V1_w"):
                if f"fuzz/{schema}/a,b" in ran and schema not in self.found:
                    errors.append(f"{schema} over a,b: no counterexample found")
        return errors


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def rss_mb() -> float:
    """Resident set size of this process now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def end_to_end(wl: Workload, seconds: float, config: dict) -> dict:
    from harness import closed_loop, measure_setup, percentile, tail_percentile

    # Memory is compared over a fixed number of queries, so that a faster
    # program, which gets further in the same time and so meets more unique
    # terms, is not charged for it.  It is read after successful queries and
    # the median reading is reported: the peak is set by the single largest
    # transient query of the window, or by how far a query cut off by the
    # limit got, and so varies far more from seed to seed.
    rss_queries = config["rss_queries"][wl.name]
    readings: list[float] = []

    def observe(i, sample):
        if i < rss_queries and not sample.failure:
            readings.append(rss_mb())

    # Fresh-process imports before and after the loop, half a minute apart.
    setup_times = measure_setup(ROOT)
    wl.clear_caches()
    samples, elapsed = closed_loop(wl.stream, seconds, wl.limit_s, observe=observe)
    setup_s = statistics.median(setup_times + measure_setup(ROOT))
    errors = wl.check(samples)
    lat = [s.latency_s for s in samples]
    failed = [s for s in samples if s.failure]
    busy = sum(s.wall_s for s in samples)  # the client's time inside queries
    tail = percentile(lat, wl.tail_p)
    beyond = sum(1 for x in lat if x > tail)
    report = [
        f"workload {wl.name}: {len(samples)} queries in {elapsed:.2f} s,"
        f" one closed-loop client, per-query limit {wl.limit_s} s",
        f"failed_frac {len(failed) / len(samples):.5f} ({len(failed)} failed)",
        f"tail percentile p{wl.tail_p:g}: {beyond} samples beyond it"
        f" (for {len(samples)} samples the ladder rule gives p{tail_percentile(len(samples)):g})",
    ]
    kinds = defaultdict(int)
    for s in failed:
        kinds[(wl.query(s).klass, s.failure.split(":")[0])] += 1
    report += [f"  failed: {k} x{v}" for k, v in sorted(kinds.items())]
    by_class = defaultdict(lambda: [0, 0.0])
    for s in samples:
        row = by_class[wl.query(s).klass]
        row[0] += 1
        row[1] += s.wall_s
    report += [
        f"  {k}: {n} queries, {t:.2f} s ({t / busy:.0%} of query time)"
        for k, (n, t) in sorted(by_class.items(), key=lambda kv: -kv[1][1])
    ]
    if wl.name == "prove-check":
        sizes = [s.output[2] / 1024.0 for s in samples if not s.failure]
        report.append(f"proof_kb_p50 {statistics.median(sizes):.3f} KiB")
    report.append(
        f"rss_mb: median of {len(readings)} readings over the first"
        f" {min(rss_queries, len(samples))} queries, peak {max(readings, default=0.0):.1f} MB"
        + ("" if len(samples) >= rss_queries else f" (fewer than the {rss_queries} configured)")
    )
    report += [f"unverified reference answers: {len(wl.unverified)}"]
    report += [f"WRONG: {e}" for e in errors]
    if not math.isfinite(tail):
        report.append("the tail percentile falls among failed queries")
    # The reported timings are scaled query by query by the machine's
    # slowdown (harness.calibrate); the report gives them as measured too.
    scaled = [s.scaled_latency_s for s in samples]
    scaled_tail = percentile(scaled, wl.tail_p)
    ok = len(samples) - len(failed)
    report.append(
        f"machine slowdown median {statistics.median(s.slowdown for s in samples):.4f};"
        f" as measured: p50 {_ms(percentile(lat, 50)):.3f} ms, tail {_ms(tail):.3f} ms,"
        f" throughput {ok / busy:.3f} 1/s"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (_ms(percentile(scaled, 50)), "ms"),
        "latency_tail_ms": (_ms(scaled_tail), "ms"),
        "throughput_qps": (ok / sum(s.scaled_wall_s for s in samples), "1/s"),
        "rss_mb": (statistics.median(readings) if readings else rss_mb(), "MB"),
    }
    return {
        "report": report,
        "correct": not errors and math.isfinite(tail),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }


def traced(wl: Workload, seconds: float) -> dict:
    import layers
    from harness import check_answers, closed_loop
    from tracer import Tracer

    # Half the time untraced, then the same queries traced, so that the run
    # takes about as long as an untraced one.
    wl.clear_caches()
    base, base_elapsed = closed_loop(wl.stream, seconds / 2, wl.limit_s)
    probe = wl.probe()
    tracer = Tracer()
    records: list = []
    probe_records: list = []
    wl.clear_caches()  # the traced pass repeats the same queries from cold
    with tracer:
        runs, _ = closed_loop(
            wl.stream,
            1.5 * seconds,
            wl.limit_s,
            count=len(base),
            observe=lambda i, sample: records.append(tracer.take_query()),
        )
        caches = layers.cache_stats()
        probed, _ = closed_loop(
            probe,
            math.inf,
            wl.probe_limit_s,
            count=len(probe),
            observe=lambda i, sample: probe_records.append(tracer.take_query()),
        )
    errors = wl.check(base + runs) + check_answers(probe, probed)
    k = len(runs)
    untraced_s = sum(s.scaled_wall_s for s in base[:k])
    traced_s = sum(s.scaled_wall_s for s in runs)
    overhead = {
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.overhead_ms": (_ms((traced_s - untraced_s) / k), "ms/query"),
    }
    metrics = layers.per_layer(records, caches) | layers.probe_metrics(probed) | overhead
    report = [
        f"workload {wl.name}: {len(base)} untraced queries in {base_elapsed:.2f} s,"
        f" {k} traced; tracing overhead {traced_s - untraced_s:+.3f} s"
        f" ({overhead['trace.overhead_frac'][0]:+.1%})",
    ]
    report += layers.report(wl, runs, records)
    report += layers.probe_report(probe, probed, probe_records, wl.probe_limit_s)
    report += [f"WRONG: {e}" for e in errors]
    return {
        "report": report,
        "correct": not errors,
        "attempted": len(base) + k,
        "failed": sum(1 for s in base + runs if s.failure),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    config = load_config()
    workdir = os.path.join(ROOT, ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = Workload(args.workload, args.seed, config, workdir)
        result = traced(wl, args.seconds) if args.trace else end_to_end(wl, args.seconds, config)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.pop("report"):
        print(f"# {line}")
    for name, (value, unit) in result["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result, sort_keys=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
