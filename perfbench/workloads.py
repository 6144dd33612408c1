"""The three workloads: their query streams and their answer checks.

``decide``      ``regmon equiv`` through in-process ``cli.main``.
``prove-check`` ``regmon prove --emit-proof`` then ``regmon check-proof``.
``validate``    library-level soundness fuzzing and substitution-oracle runs.

Every stream is a deterministic function of the seed.  Reference answers
are computed by the checks, which run after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from collections import defaultdict

import gen
from harness import Failed, Query, Stream, interleave, run_query

from regmon import axioms, cli, equivalence, normalize, semantics
from regmon.syntax import parse_monitor, parse_trace, print_monitor
from regmon.terms import Alphabet, ac_equal, apply_subst, is_closed, size_of

AB = Alphabet.finite(["a", "b"])
A = Alphabet.finite(["a"])
INF = Alphabet.open_ended()
ALPHABETS = {"a,b": AB, "a": A, "infinite": INF}
VARS = ("x", "y")

# Per-query limit of the defect probes, whose queries are there to show
# that they blow up: a short one keeps the traced run short.
PROBE_LIMIT_S = 1.0
# Reference answers that cannot be computed within this limit are reported
# as unverified; they never count as right or wrong.
REFERENCE_LIMIT_S = 10.0


def clear_caches() -> None:
    """Empty the semantics memo tables, so that a loop starts cold.

    Within a loop they persist, as for any caller that keeps ``regmon``
    loaded; streams do not repeat a query within a run.
    """
    for name in ("_action_step", "_tau_successors"):
        fn = getattr(semantics, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 2:
        raise Failed(err.getvalue().strip()[:200])
    return rc, out.getvalue()


class Unverified(Exception):
    pass


def reference(fn, *args):
    """Run a reference computation under the harness limit."""
    sample = run_query(Query("reference", lambda: fn(*args), lambda _: None), REFERENCE_LIMIT_S)
    if sample.failure:
        raise Unverified(sample.failure)
    return sample.output


# Recursion limit for the checks, which walk terms as deep as the chains.
CHECK_RECURSION_LIMIT = 20000


@contextlib.contextmanager
def deep_recursion():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, CHECK_RECURSION_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Counterexample replay through the semantics


def _cone(m, trace, verdict, actions) -> bool:
    """Whether every infinite extension of ``trace`` reaches ``verdict``."""
    memo: dict = {}

    def all_reach(state) -> bool:
        if verdict in state:
            return True
        if not state:
            return False
        if state in memo:
            return memo[state]
        memo[state] = False  # a cycle that never shows the verdict
        memo[state] = all(all_reach(semantics.step_state(state, a)) for a in actions)
        return memo[state]

    return all_reach(semantics.weak_reach(m, trace))


def replay(m, n, trace, side, mode, alphabet) -> str | None:
    """Confirm through ``accepts``/``rejects`` that ``trace`` separates the
    closed terms ``m`` and ``n`` on the reported side."""
    want_left = side.endswith("Left")
    accept = side.startswith("Accepted")
    if mode == "omega" and alphabet.is_finite:
        verdict = semantics.YES if accept else semantics.NO
        actions = alphabet.sorted_actions()
        got = (_cone(m, trace, verdict, actions), _cone(n, trace, verdict, actions))
    else:
        probe = semantics.accepts if accept else semantics.rejects
        got = (probe(m, trace), probe(n, trace))
    if got != (want_left, not want_left):
        return f"counterexample {trace} does not separate the terms as {side}"
    return None


def _parse_cex(lines, alphabet, variables):
    sigma, trace, side = {}, None, None
    for line in lines:
        key, _, value = line.partition(": ")
        if key == "substitution":
            for part in value.split(","):
                name, _, term = part.partition(" -> ")
                sigma[name.strip()] = parse_monitor(term, alphabet, variables)
        elif key == "trace":
            trace = parse_trace(value)
        elif key == "side":
            side = value.strip()
    return sigma, trace, side


# ---------------------------------------------------------------------------
# decide


# name: (pairs per block, near-miss share, kind, alphabet, mode)
# No measured usage exists to weight the classes by, so the twelve classes of
# closed and open pairs over {a,b}, {a} and the open-ended alphabet, in
# verdict and omega mode, get equal shares, half of each class near-misses,
# and s.v chains of length 240-300 (0.05-0.25 s each) get 16 per block
# (3.2%), so that p99 falls in their upper part.  These are design choices,
# not measured traffic.  Every query of this loop answers well within the
# per-query limit, so a run fails none of them.
#
# Open near-misses over {a,b} (both modes) and over {a} in verdict mode run
# the oracle's counterexample extraction: up to 0.9 s over {a}, 0-2.6 s over
# {a,b} in verdict mode and mostly over 4 s in omega mode, on 8-16 nodes.
# Deep closed omega near-misses (150-200 nodes) take up to tens of seconds,
# and chains of length 560-640 raise RecursionError today.  Whether such a
# query overruns a limit depends on the machine's speed at the moment, so
# they would make the failure count of a run vary from run to run.  They
# form the defect probe below instead, which the traced run reports.
DECIDE_CLASSES = {
    "closed/ab/verdict": (40, 0.5, "closed", "a,b", "verdict"),
    "closed/ab/omega": (40, 0.5, "closed", "a,b", "omega"),
    "closed/a/verdict": (40, 0.5, "closed", "a", "verdict"),
    "closed/a/omega": (40, 0.5, "closed", "a", "omega"),
    "closed/inf/verdict": (40, 0.5, "closed", "infinite", "verdict"),
    "closed/inf/omega": (40, 0.5, "closed", "infinite", "omega"),
    "open/ab/verdict": (40, 0.0, "open", "a,b", "verdict"),
    "open/ab/omega": (40, 0.0, "open", "a,b", "omega"),
    "open/a/verdict": (40, 0.0, "open", "a", "verdict"),
    "open/a/omega": (40, 0.5, "open", "a", "omega"),
    "open/inf/verdict": (40, 0.5, "open", "infinite", "verdict"),
    "open/inf/omega": (40, 0.5, "open", "infinite", "omega"),
    "chain/ab/verdict": (16, 0.5, "chain", "a,b", "verdict"),
}
# The defect probe: (pairs, near-miss share, kind, alphabet, mode).
PROBE_CLASSES = {
    "open/ab/verdict-near": (2, 1.0, "open", "a,b", "verdict"),
    "open/ab/omega-near": (2, 1.0, "open", "a,b", "omega"),
    "open/a/verdict-near": (2, 1.0, "open", "a", "verdict"),
    "closed/ab/omega-deep": (2, 1.0, "deep", "a,b", "omega"),
    "chain/ab/verdict-long": (2, 0.5, "chain-long", "a,b", "verdict"),
}
CLASSES = DECIDE_CLASSES | PROBE_CLASSES
# Blocks in a stream: more than a run on the current code reaches, so that
# no query repeats within a run.
DECIDE_BLOCKS = 20

# Sizes: "kind": (low, high) node counts (chain lengths for chains).
SIZES = {
    "closed": (20, 200),
    "deep": (150, 200),
    "open": (8, 16),
    "chain": (240, 300),
    "chain-long": (560, 640),
}
GOLDEN = (5**0.5 - 1) / 2


def spread(j: int, low: int, high: int) -> int:
    """The j-th of a golden-ratio sequence over low..high.

    Sizes are drawn by index, not by the seed, so every seed's stream has
    the same sizes in the same proportions and any stretch of it covers the
    range; the seed draws the terms of those sizes.
    """
    return low + int(((j + 1) * GOLDEN) % 1.0 * (high - low + 1))


def _is_near(j: int, share: float) -> bool:
    return math.floor((j + 1) * share) > math.floor(j * share)


def _bucket(nodes: int) -> str:
    for hi in (60, 120, 200):
        if nodes < hi:
            return f"<{hi}"
    return "<=300"


def decide_item(seed: int, klass: str, j: int):
    """The j-th pair of a decide class: (argv, m, n, alphabet, mode, near)."""
    _, share, kind, alpha, mode = CLASSES[klass]
    rng = random.Random(f"{seed}:decide:{klass}:{j}")
    alphabet = ALPHABETS[alpha]
    actions = ("a",) if alpha == "a" else ("a", "b")
    size = spread(j, *SIZES[kind])
    if kind == "closed":
        m = gen.sized_term(rng, size, rng.randint(6, 12), actions)
    elif kind == "deep":
        m = gen.sized_term(rng, size, rng.randint(16, 20), actions)
    elif kind == "open":
        m = gen.sized_term(rng, size, 4, actions, VARS)
    else:
        m = gen.chain(rng, size, actions, rng.choice(gen.VERDICTS[1:]))
    n = gen.equivalent_partner(rng, m, actions, rng.randint(2, 6))
    near = _is_near(j, share)
    if near:
        partner = n
        for _ in range(8):
            n = gen.flip_leaf(rng, partner)
            if klass not in PROBE_CLASSES or _differ(m, n, alphabet):
                break
    argv = ["equiv", "--alphabet", alpha, "--mode", mode, print_monitor(m), print_monitor(n)]
    if alpha == "infinite" and kind == "open":
        argv += ["--vars", ",".join(VARS)]
    return argv, m, n, alphabet, mode, near


def _differ(m, n, alphabet) -> bool:
    """Whether a flip took effect (verdict semantics).

    The probe's near-misses are there for their cost; a flip that another
    summand shadows would make one cheap at random, so such flips are
    redrawn.  A flip too costly to tell within the reference limit is kept.
    """

    def differs() -> bool:
        with deep_recursion():
            if is_closed(m):
                return equivalence.closed_counterexample(m, n, alphabet) is not None
            return not equivalence.verdict_equiv_open(m, n, alphabet)

    try:
        return reference(differs)
    except Unverified:
        return True


def _decide_reference(m, n, alphabet, mode) -> bool:
    """Equivalence by the procedure the CLI did not use for the decision."""
    if is_closed(m) and is_closed(n):
        if mode == "omega" and alphabet.is_finite:
            nf = lambda t: normalize.omega_nf_closed(t, alphabet).term  # noqa: E731
        else:
            nf = lambda t: normalize.reduced_nf_closed(t).term  # noqa: E731
        return ac_equal(nf(m), nf(n))
    if alphabet.is_finite:
        return equivalence.oracle_equiv_open(m, n, alphabet, mode)
    return ac_equal(normalize.open_rnf(m).term, normalize.open_rnf(n).term)


def _decide_check(m, n, alphabet, mode, near, unverified):
    def check(output) -> str | None:
        rc, text = output
        lines = text.splitlines()
        said_equal = lines[0] == "equivalent"
        if rc != (0 if said_equal else 1) or lines[0] not in ("equivalent", "inequivalent"):
            return f"exit code {rc} does not match answer {lines[0]!r}"
        if not near:
            return None if said_equal else "an equivalent-by-construction pair was called inequivalent"
        with deep_recursion():
            if not said_equal and len(lines) > 1:
                # A counterexample that replays proves the pair inequivalent.
                sigma, trace, side = _parse_cex(lines[1:], alphabet, VARS)
                left, right = apply_subst(sigma, m), apply_subst(sigma, n)
                return replay(left, right, trace, side, mode, alphabet)
            try:
                expected = reference(_decide_reference, m, n, alphabet, mode)
            except Unverified:
                unverified.append("decide")
                return None
        if expected != said_equal:
            return f"answered {lines[0]}, reference says equivalent={expected}"
        return None

    return check


def _decide_query(seed: int, klass: str, j: int, unverified: list[str]) -> Query:
    argv, m, n, alphabet, mode, near = decide_item(seed, klass, j)
    return Query(
        klass,
        lambda: call_cli(argv),
        _decide_check(m, n, alphabet, mode, near, unverified),
        "\0".join(argv),
    )


def decide_stream(seed: int) -> tuple[Stream, list[str]]:
    unverified: list[str] = []
    order = interleave({k: v[0] for k, v in DECIDE_CLASSES.items()})
    slots = []  # (class, index within the class)
    used = {k: 0 for k in DECIDE_CLASSES}
    for _ in range(DECIDE_BLOCKS):
        for klass in order:
            slots.append((klass, used[klass]))
            used[klass] += 1
    stream = Stream(len(slots), lambda k: _decide_query(seed, *slots[k], unverified))
    return stream, unverified


def decide_probe(seed: int) -> list[Query]:
    """The defect probe: the known blowups of decide, a fixed number each."""
    return [
        _decide_query(seed, klass, j, [])
        for klass, (count, *_) in PROBE_CLASSES.items()
        for j in range(count)
    ]


# ---------------------------------------------------------------------------
# prove-check

FORMS = {
    # --form: (alphabet, variables)
    "nf": ("a,b", ()),
    "rnf": ("a,b", ()),
    "omega": ("a,b", ()),
    "open-nf": ("a,b", VARS),
    "open-rnf": ("a,b", VARS),
    "fin-rnf": ("a,b", VARS),
    "open-omega": ("a,b", VARS),
    "unary-rnf": ("a", VARS),
    "unary-omega": ("a", VARS),
}


# Node counts log-uniform over 30-300, so that every doubling of size gets
# the same share, drawn by a golden-ratio sequence that is the same for every
# form, so that any stretch of a run covers the range as the whole run does.
# Each seed draws other terms of these sizes.
PROVE_NODES = (30, 300)
PROVE_PER_FORM = 200  # queries per form in a stream; more than a run reaches

# A few terms of every form blow up: a proof of 12 000-30 000 steps, where
# most take under 3 000, takes 5-10 s to check, and one open-omega normal
# form of 264 nodes took over 90 s.  One such query in a 30 s run sets its
# throughput, and whether it overruns a limit depends on the machine's speed
# at the moment.  So each term is first normalized with its proof recorded,
# in a separate process before the loop, so that the screen's memory and
# cache entries stay out of the measured one; a term whose proof takes more
# than PROOF_STEP_BUDGET steps, or whose normalization takes more than
# SCREEN_LIMIT_S, is set aside for the defect probe and another term of the
# same size and form takes its place.  About 2% of terms are set aside.
PROOF_STEP_BUDGET = 6000
SCREEN_LIMIT_S = 5.0
SCREEN_REDRAWS = 16
# Slots screened before the loop: more than a run reaches on the current
# code; any further slot is screened when the loop reaches it.
PROVE_SCREENED = 220
PROVE_PROBE = 4  # set-aside terms the traced run probes
PROVE_SLOTS = [(form, j) for j in range(PROVE_PER_FORM) for form in FORMS]


def prove_item(seed: int, form: str, j: int, redraw: int = 0):
    alpha, variables = FORMS[form]
    low, high = PROVE_NODES
    nodes = round(low * (high / low) ** ((j * GOLDEN) % 1.0))
    rng = random.Random(f"{seed}:prove:{form}:{j}" + (f":{redraw}" if redraw else ""))
    actions = ("a",) if alpha == "a" else ("a", "b")
    return gen.sized_term(rng, nodes, rng.randint(8, 12), actions, variables)


def _within_budget(m, form) -> bool:
    pipeline = normalize.PIPELINES[cli.FORM_ALIASES[form]]
    alphabet = ALPHABETS[FORMS[form][0]]
    screen = Query("screen", lambda: pipeline(m, alphabet, emit_proof=True), lambda _: None)
    sample = run_query(screen, SCREEN_LIMIT_S)
    return not sample.failure and len(sample.output.derivation.steps) <= PROOF_STEP_BUDGET


def first_within_budget(seed: int, k: int) -> int:
    """The first redraw of slot ``k`` whose term is within the budget."""
    form, j = PROVE_SLOTS[k]
    redraw = 0
    while redraw < SCREEN_REDRAWS - 1 and not _within_budget(prove_item(seed, form, j, redraw), form):
        redraw += 1
    return redraw


def screen_in_child(seed: int, count: int) -> list[int]:
    """``first_within_budget`` of the first ``count`` slots, in a fresh process."""
    here = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(os.path.dirname(here), "src"), here]
    code = (
        f"import sys; sys.path[:0] = {paths!r}\n"
        "import workloads\n"
        f"print(*(workloads.first_within_budget({seed}, k) for k in range({count})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=150, check=True
    )
    return [int(r) for r in out.stdout.split()]


def _prove_check(m, form, alphabet):
    def check(output) -> str | None:
        rc1, nf, _size, rc2, verdict = output
        if rc1 != 0:
            return f"prove exited {rc1}"
        if rc2 != 0 or not verdict.startswith("valid:"):
            return f"check-proof said {verdict!r}"
        pipeline = normalize.PIPELINES[cli.FORM_ALIASES[form]]
        try:
            want = reference(lambda: print_monitor(pipeline(m, alphabet).term))
        except Unverified:
            return None
        if nf != want:
            return f"prove printed {nf!r}, normalize gives {want!r}"
        return None

    return check


def prove_stream(seed: int, workdir: str) -> tuple[Stream, list[str], list[Query]]:
    """The stream, its unverified answers (none) and the terms set aside."""
    proof_path = os.path.join(workdir, "proof.txt")
    redraws = screen_in_child(seed, PROVE_SCREENED)
    aside: list[Query] = []

    def query(form: str, m) -> Query:
        alpha = FORMS[form][0]
        text = print_monitor(m)
        argv = ["prove", text, "--form", form, "--alphabet", alpha, "--emit-proof", proof_path]

        def run():
            _, out = call_cli(argv)
            nf = out.splitlines()[0]
            size = os.path.getsize(proof_path)
            rc2, verdict = call_cli(["check-proof", proof_path, "--claim", f"{text} = {nf}"])
            return 0, nf, size, rc2, verdict.strip()[:6]

        check = _prove_check(m, form, ALPHABETS[alpha])
        return Query(form, run, check, "\0".join(argv[:-1]), _bucket(size_of(m)))

    def make(k: int) -> Query:
        form, j = PROVE_SLOTS[k]
        chosen = redraws[k] if k < len(redraws) else first_within_budget(seed, k)
        aside.extend(query(form, prove_item(seed, form, j, r)) for r in range(chosen))
        return query(form, prove_item(seed, form, j, chosen))

    return Stream(len(PROVE_SLOTS), make), [], aside


# ---------------------------------------------------------------------------
# validate

SYSTEMS = (
    ("Ev", "a,b", "verdict"),
    ("Ev'", "a,b", "verdict"),
    ("Evf'", "a,b", "verdict"),
    ("Ev1'", "a", "verdict"),
    ("Eomega", "a,b", "omega"),
    ("Eomega1'", "a", "omega"),
    ("Eomegaf'", "a,b", "omega"),
)
FUZZ_TRIALS = 30
# V1 / V1_w: sound over one action, unsound over two.
ABSORPTION = (("V1", "a", "verdict"), ("V1_w", "a", "omega"), ("V1", "a,b", "verdict"), ("V1_w", "a,b", "omega"))
ORACLE_BOUND, ORACLE_CAP = 4, 256
WITNESS_BOUND, WITNESS_CAP = 4, 64
OPEN_PAIRS = 16


def _fuzz_check(inst, alphabet, mode, expect_sound, found):
    def check(report) -> str | None:
        if expect_sound and report.failures:
            return f"{inst.equation} reported unsound"
        with deep_recursion():
            for f in report.failures:
                sigma = dict(f.substitution)
                lhs = apply_subst(sigma, inst.equation.lhs)
                rhs = apply_subst(sigma, inst.equation.rhs)
                problem = replay(lhs, rhs, f.trace, f.side, mode, alphabet)
                if problem:
                    return problem
        if not expect_sound and report.failures:
            found.add(inst.schema)
        return None

    return check


def _expect_true(what):
    return lambda ok: None if ok is True else f"{what}: oracle found a separating substitution"


def validate_stream(seed: int, passes: int = 30) -> tuple[list[Query], list[str], set]:
    """Each pass lists every query once, with fresh fuzz seeds and fresh open
    pairs, the classes interleaved in proportion so that a run that stops
    part-way through a pass still runs the mix of a whole pass."""
    found: set = set()
    base = []
    for system, alpha, mode in SYSTEMS:
        alphabet = ALPHABETS[alpha]
        for inst in axioms.list_system(system, alphabet, max_trace_len=3, max_k=3):
            base.append(("fuzz", f"fuzz/{system}", inst, alphabet, mode, True))
    for name, alpha, mode in ABSORPTION:
        alphabet = ALPHABETS[alpha]
        inst = axioms.instantiate(name, {}, alphabet)
        base.append(("fuzz", f"fuzz/{name}/{alpha}", inst, alphabet, mode, alpha == "a"))
    for n in range(1, 5):
        eq = axioms.witness_family(n, AB)
        base.append(("oracle", f"witness/{n}", eq.lhs, eq.rhs, "verdict", WITNESS_BOUND, WITNESS_CAP))
    stream = []
    for p in range(passes):
        by_class = defaultdict(list)
        for item in base:
            by_class[item[1]].append(item)
        for j in range(OPEN_PAIRS):
            rng = random.Random(f"{seed}:validate:open:{p}:{j}")
            nodes = spread(p * OPEN_PAIRS + j, *SIZES["open"])
            m = gen.sized_term(rng, nodes, 4, ("a", "b"), VARS)
            n = gen.equivalent_partner(rng, m, ("a", "b"), rng.randint(2, 6))
            mode = ("verdict", "omega")[j % 2]
            klass = f"oracle/open/{mode}"
            by_class[klass].append(("oracle", klass, m, n, mode, ORACLE_BOUND, ORACLE_CAP))
        rng = random.Random(f"{seed}:validate:pass:{p}")
        for items in by_class.values():
            rng.shuffle(items)
        order = interleave({klass: len(items) for klass, items in by_class.items()})
        for item in (by_class[klass].pop() for klass in order):
            if item[0] == "fuzz":
                _, klass, inst, alphabet, mode, sound = item
                fuzz_seed = rng.randrange(1 << 30)
                stream.append(
                    Query(
                        klass,
                        lambda inst=inst, a=alphabet, mode=mode, s=fuzz_seed: axioms.soundness_fuzz(
                            inst, a, mode, FUZZ_TRIALS, seed=s
                        ),
                        _fuzz_check(inst, alphabet, mode, sound, found),
                        f"{inst.equation} {inst.bindings} {alphabet} {mode} seed={fuzz_seed}",
                    )
                )
            else:
                _, klass, m, n, mode, bound, cap = item
                stream.append(
                    Query(
                        klass,
                        lambda m=m, n=n, mode=mode, b=bound, c=cap: equivalence.oracle_equiv_open(
                            m, n, AB, mode, bound=b, cap=c
                        ),
                        _expect_true(klass),
                        f"{print_monitor(m)} = {print_monitor(n)} {mode} {bound} {cap}",
                    )
                )
    return stream, [], found
