"""Closed-loop runner, failure accounting and summary statistics.

One client sends the next query only after the previous one returns.  Each
query runs under a ``SIGALRM`` interval timer on the main thread (no threads
are started); a query that overruns the limit, raises, or reports a usage
error counts as failed and as +inf latency.  Between queries the loop times a
fixed reference computation, which gives the machine's slowdown at that
moment.  Answers are checked after the loop, outside the timed region.
"""

from __future__ import annotations

import gc
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

LADDER = (50.0, 90.0, 99.0, 99.9)


class QueryTimeout(BaseException):
    """Raised by the interval timer inside an overrunning query.

    A ``BaseException`` so that no ``except Exception`` in the program under
    test swallows it.
    """


def _on_alarm(signum, frame):
    raise QueryTimeout()


@dataclass
class Query:
    """One benchmark query.

    ``run`` is the timed call; it returns the program's output, or raises
    ``Failed`` for a usage error.  ``check`` takes that output after the loop
    and returns an error message, or None when the answer is right.
    ``inputs`` is the text of what the program receives.
    """

    klass: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    inputs: str = ""
    bucket: str = ""  # size bucket, where the report groups by size


class Stream:
    """A query stream whose entries are built on first use by ``make(k)``,
    so a run pays only for the queries it reaches."""

    def __init__(self, length: int, make: Callable[[int], Query]):
        self.length = length
        self.make = make
        self.built: dict[int, Query] = {}

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, k: int) -> Query:
        q = self.built.get(k)
        if q is None:
            q = self.built[k] = self.make(k)
        return q


class Failed(Exception):
    """The program answered with a usage error (nonzero exit code 2)."""


@dataclass
class Sample:
    index: int  # position in the stream
    latency_s: float  # math.inf for a failed query
    failure: str | None
    output: Any = None
    wall_s: float = 0.0  # time actually spent, also for failed queries
    slowdown: float = 1.0  # the machine's, measured around the query

    @property
    def scaled_latency_s(self) -> float:
        return self.latency_s / self.slowdown

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s / self.slowdown


def run_query(query: Query, limit_s: float) -> Sample:
    failure = None
    output = None
    old = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            output = query.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        failure = "timeout"
    except RecursionError:
        failure = "RecursionError"
    except Failed as exc:
        failure = f"usage error: {exc}"
    except Exception as exc:  # the program's own crash is a failed query
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, old)
    wall = time.perf_counter() - start
    return Sample(-1, math.inf if failure else wall, failure, output, wall)


# The machine's speed changes by up to a third from one second to the next
# on a shared host, and query times change with it.  A fixed pure-Python
# reference computation, timed between queries at most CALIBRATE_EVERY_S
# apart, measures that speed; each query's time is scaled by the slowdown
# measured around it, to what it would be on a machine where the
# reference takes CALIBRATION_REFERENCE_S.  The reference builds, hashes and
# frees small tuples and objects, as the program does, with the cyclic
# collector off so that its time does not depend on how many objects the
# program holds.
CALIBRATE_EVERY_S = 0.01
CALIBRATION_REFERENCE_S = 0.0006


class _Node:
    __slots__ = ("key", "tag", "size")

    def __init__(self, key, tag, size):
        self.key, self.tag, self.size = key, tag, size


def calibrate() -> float:
    """Seconds the reference computation takes now."""
    memo: dict = {}

    def build(n: int, k: int) -> tuple:
        if n <= 1:
            return (k & 3,)
        t = (build(n // 2, k * 3 + 1), build(n - n // 2 - 1, k * 5 + 2))
        memo[t] = memo.get(t, 0) + 1
        _Node(t, k, n)
        return t

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        build(600, 1)
        ",".join(str(v) for v in memo.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def closed_loop(
    stream: Stream | list[Query],
    seconds: float,
    limit_s: float,
    count: int | None = None,
    observe: Callable[[int, Sample], None] | None = None,
) -> tuple[list[Sample], float]:
    """Run the stream cyclically for ``seconds``, stopping early after
    ``count`` queries when a count is given.

    Returns the samples and the elapsed wall time of the loop.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    deadline = start + seconds
    slowdown = calibrate() / CALIBRATION_REFERENCE_S
    calibrated = time.perf_counter()
    i = 0
    while (count is None or i < count) and time.perf_counter() < deadline:
        before = slowdown
        sample = run_query(stream[i % len(stream)], limit_s)
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            slowdown = calibrate() / CALIBRATION_REFERENCE_S
            calibrated = time.perf_counter()
        sample.index = i
        # The speed can change during a long query: take the mean of the
        # slowdowns measured on either side of it.
        sample.slowdown = (before + slowdown) / 2
        if observe is not None:
            observe(i, sample)
        samples.append(sample)
        i += 1
    return samples, time.perf_counter() - start


def check_answers(stream: Stream | list[Query], samples: list[Sample]) -> list[str]:
    """Check every distinct query once, and that repeats answered the same."""
    errors: list[str] = []
    first: dict[int, Any] = {}
    for s in samples:
        if s.failure:
            continue
        k = s.index % len(stream)
        if k in first:
            if s.output != first[k]:
                errors.append(f"query {k}: answer changed between repeats")
            continue
        first[k] = s.output
        problem = stream[k].check(s.output)
        if problem:
            errors.append(f"query {k} ({stream[k].klass}): {problem}")
    return errors


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; inf entries (failed queries) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    best = LADDER[0]
    for p in LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def interleave(weights: dict[str, int]) -> list[str]:
    """A smooth weighted round-robin of class names.

    Any stretch of the result holds the classes in close to their weight
    ratio, so a run that stops part-way through still sees the set mix.
    """
    total = sum(weights.values())
    credit = {k: 0 for k in weights}
    out = []
    for _ in range(total):
        for k, w in weights.items():
            credit[k] += w
        pick = max(credit, key=lambda k: credit[k])
        credit[pick] -= total
        out.append(pick)
    return out


# Fresh-process imports per measurement; the first of them, which may
# compile bytecode, is not counted: users pay that once.
SETUP_REPEATS = 8
# Reference computations a child runs after its import, to measure the speed
# of the processor it ran on: the two processors of a small shared machine
# can differ by a third.
SETUP_CALIBRATIONS = 30


def measure_setup(root: str) -> list[float]:
    """Times to import ``regmon`` and ``regmon.cli`` in fresh processes,
    each scaled by the slowdown its own process measured right after."""
    code = (
        "import statistics, sys, time\n"
        f"sys.path.insert(0, {root + '/src'!r})\n"
        "t = time.perf_counter()\n"
        "import regmon, regmon.cli\n"
        "took = time.perf_counter() - t\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "import harness\n"
        f"ref = statistics.median(harness.calibrate() for _ in range({SETUP_CALIBRATIONS}))\n"
        "print(repr(took), repr(ref))\n"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        took, ref = map(float, out.stdout.split())
        if i:
            times.append(took * CALIBRATION_REFERENCE_S / ref)
    return times
