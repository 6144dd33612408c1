"""The contract between ``regmon`` and the benchmark's per-layer tracer.

``perfbench/tracer.py`` times the functions named in ``TRACED`` by rebinding
them in every ``regmon`` namespace (and in ``normalize.PIPELINES``), and
``perfbench/layers.py`` reads the memo tables named in ``CACHES``.  A rename
in ``regmon`` passes the rest of this suite and breaks only a traced
benchmark run (``perfbench/run.py --trace 1``); these tests catch it.  They
import the two files and change neither.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from conftest import AB
from regmon import equivalence, normalize, semantics
from regmon.terms import NO, YES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_is_a_module_level_function(bench):
    tracer, _ = bench
    for dotted in tracer.TRACED:
        mod, name = dotted.split(".")
        obj = getattr(importlib.import_module(f"regmon.{mod}"), name, None)
        assert inspect.isfunction(obj), f"{dotted} is not a function of regmon"
        assert obj.__qualname__ == name, f"{dotted} is not module-level"


def test_pipelines_are_the_module_level_functions():
    for kind, pipeline in normalize.PIPELINES.items():
        assert getattr(normalize, pipeline.__name__) is pipeline, kind


def test_semantics_memo_tables_report_cache_info(bench):
    _, layers = bench
    assert set(layers.CACHES.values()) == {"_action_step", "_tau_successors"}
    for attr in layers.CACHES.values():
        assert callable(getattr(getattr(semantics, attr), "cache_info", None)), attr


@pytest.mark.parametrize("mode", [equivalence.VERDICT, equivalence.OMEGA])
def test_the_tracer_times_the_closed_search_under_decide(bench, mode):
    tracer, _ = bench
    with tracer.Tracer() as tr:
        assert not equivalence.decide(YES, NO, AB, mode).equal
    spans, _ = tr.take_query()
    search = "closed_counterexample" if mode == equivalence.VERDICT else "omega_closed_counterexample"
    assert spans[f"equivalence.{search}"][0] == 1
