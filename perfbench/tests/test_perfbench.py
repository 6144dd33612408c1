"""Tests of the benchmark harness itself.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import subprocess
import sys
import time

import harness
import layers
import run
import tracer
import workloads
from harness import Query, check_answers, closed_loop, run_query

from regmon.syntax import parse_monitor

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

DIGEST = """
import hashlib, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
h = hashlib.sha256()
for stream in (workloads.decide_stream(7)[0], workloads.prove_stream(7, "w")[0],
               workloads.validate_stream(7, passes=1)[0]):
    for k in range(40):
        h.update(stream[k].inputs.encode() + b"\\n")
print(h.hexdigest())
"""


def _digest(hashseed: str) -> str:
    code = DIGEST.format(src=os.path.join(ROOT, "src"), bench=BENCH)
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_same_seed_gives_byte_identical_inputs():
    assert _digest("1") == _digest("2")
    other = workloads.decide_stream(8)[0]
    assert [other[k].inputs for k in range(40)] != [
        workloads.decide_stream(7)[0][k].inputs for k in range(40)
    ]


CONFIG = {"rss_queries": {"decide": 10}}


def _workload(name, stream, limit_s=3.0):
    wl = run.Workload.__new__(run.Workload)
    wl.name, wl.limit_s, wl.tail_p, wl.found = name, limit_s, 50.0, set()
    wl.stream, wl.unverified, wl.clear_caches = stream, [], workloads.clear_caches
    wl.probe, wl.probe_limit_s = list, 1.0
    return wl


def _pair(left, right, near):
    ab = workloads.AB
    m, n = parse_monitor(left, ab), parse_monitor(right, ab)
    argv = ["equiv", "--alphabet", "a,b", "--mode", "verdict", left, right]
    check = workloads._decide_check(m, n, ab, "verdict", near, [])
    return Query("planted", lambda: workloads.call_cli(argv), check)


def test_planted_wrong_expected_answer_fails_the_run():
    # Declared equivalent by construction, but the pair differs on trace a.
    wrong = _pair("a.yes", "a.no", near=False)
    right = _pair("a.yes", "a.(yes + b.yes)", near=False)
    result = run.end_to_end(_workload("decide", [right, wrong]), 0.3, CONFIG)
    assert result["correct"] is False
    assert any("WRONG" in line and "planted" in line for line in result["report"])
    samples, _ = closed_loop([right], 0.2, 3.0)
    assert check_answers([right], samples) == []


def test_bad_counterexample_is_caught_by_replay():
    ab = workloads.AB
    m, n = parse_monitor("a.yes", ab), parse_monitor("a.no", ab)
    assert workloads.replay(m, n, ("a",), "AcceptedOnlyByLeft", "verdict", ab) is None
    assert workloads.replay(m, n, ("a",), "AcceptedOnlyByRight", "verdict", ab)
    assert workloads.replay(m, n, ("b",), "AcceptedOnlyByLeft", "verdict", ab)


def test_planted_over_limit_query_counts_as_failed():
    def spin():
        while True:
            time.sleep(0.001)

    slow = Query("planted", spin, lambda out: None)
    sample = run_query(slow, 0.05)
    assert sample.failure == "timeout" and sample.latency_s == float("inf")
    fast = _pair("yes", "yes + a.yes", near=False)
    result = run.end_to_end(_workload("decide", [fast, slow], 0.05), 0.5, CONFIG)
    assert result["correct"] is True
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]


def test_recursion_error_counts_as_failed():
    def deep():
        return deep()

    sample = run_query(Query("planted", deep, lambda out: None), 5.0)
    assert sample.failure == "RecursionError"


def _bindings():
    pkg, mods = tracer._modules()
    return {
        (name, attr): value
        for name, ns in [("regmon", pkg), *mods.items()]
        for attr, value in vars(ns).items()
        if callable(value) or isinstance(value, dict)
    } | {
        ("PIPELINES", k): v for k, v in mods["normalize"].PIPELINES.items()
    }


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    stream, _ = workloads.decide_stream(3)
    t = tracer.Tracer()
    with t:
        from regmon import equivalence, normalize, semantics

        assert semantics.step_state is not before[("semantics", "step_state")]
        assert equivalence.step_state is semantics.step_state
        assert normalize.PIPELINES["nf"] is not before[("PIPELINES", "nf")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    result = run.traced(_workload("decide", stream), 1.0)
    assert result["correct"] is True
    assert all(_bindings()[k] is before[k] for k in before)
    names = [n for n, _ in layers.metric_names()]
    assert list(result["metrics"]) == names
    assert result["metrics"]["cli.main.calls"][0] > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.metric_names()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    result = run.end_to_end(
        _workload("decide", [_pair("yes", "yes + a.yes", near=False)]), 0.2, CONFIG
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in result["metrics"].items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_interleave_keeps_the_mix_in_every_stretch():
    order = harness.interleave({"a": 6, "b": 3, "c": 1})
    assert len(order) == 10 and order.count("a") == 6 and order.count("c") == 1
    assert order[:5].count("a") == 3


def test_defect_probe_counts_its_failures_apart_from_the_run():
    def deep():
        return deep()

    ok = _pair("yes", "yes + a.yes", near=False)
    wl = _workload("decide", [ok])
    wl.probe = lambda: [Query("planted", deep, lambda out: None), ok]
    result = run.traced(wl, 0.4)
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["probe.recursion_errors"][0] == 1
    assert result["metrics"]["probe.overruns"][0] == 0
    assert any("planted: RecursionError" in line for line in result["report"])


def test_decide_loop_holds_no_probe_class():
    stream, _ = workloads.decide_stream(5)
    classes = {stream[k].klass for k in range(len(stream))}
    assert classes == set(workloads.DECIDE_CLASSES)
    probe = workloads.decide_probe(5)
    assert {q.klass for q in probe} == set(workloads.PROBE_CLASSES)


def test_proof_screen_sets_aside_terms_over_the_step_budget(monkeypatch):
    m = parse_monitor("a.(yes + b.no) + b.(x + a.yes)", workloads.AB, ("x", "y"))
    assert workloads._within_budget(m, "open-rnf")
    monkeypatch.setattr(workloads, "PROOF_STEP_BUDGET", 0)
    assert not workloads._within_budget(m, "open-rnf")
