"""Command-line front end.

Subcommands: ``parse``, ``lang``, ``equiv``, ``normalize``, ``prove``,
``axioms``, ``check-proof``, ``fuzz``, ``witness``.  Exit codes: 0 for
success (equivalent / valid / no failures), 1 for a negative result
(inequivalent, invalid proof, fuzz failure), 2 for usage or parse errors.

Terms are given inline or as ``@file``; with several named terms in a file,
``@file#name`` picks one.  ``--json`` wraps results in a machine-readable
envelope.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from . import equivalence, semantics, syntax
from .semantics import trace_key
from .syntax import ParseError, print_monitor, print_substitution, print_trace
from .terms import Alphabet, InternalError, Monitor, ac_equal, vars_of

# The rewriting, the proofs, the axiom systems and the random terms are
# imported by the handlers that run them, so that a closed ``equiv``, ``parse``
# or ``lang`` starts without compiling them.  The parser's choices therefore
# name the forms and systems here; tests hold these tables equal to
# ``normalize.FORMS`` and ``axioms.SYSTEM_SCHEMAS``.
FORM_ALIASES = {
    "nf": "nf",
    "rnf": "rnf",
    "omega": "omega-nf",
    "open-nf": "open-nf",
    "open-rnf": "open-rnf",
    "fin-rnf": "fin-rnf",
    "unary-rnf": "unary-rnf",
    "unary-omega": "unary-omega-nf",
    "open-omega": "open-omega-nf",
}
SYSTEMS = ("Eomega", "Eomega1'", "Eomegaf'", "Ev", "Ev'", "Ev1'", "Evf'")
# The deepest ``fuzz --depth``.  A draw grows about 1.05 children per node, so
# its size is exponential in the depth: over two actions, depth 64 draws up to
# some 20,000 nodes, and depth 200 has drawn 3.36M.
FUZZ_MAX_DEPTH = 64
# The largest oracle ``--bound``.  Over one action the substitution values
# ``a^k.(yes + no)`` are capped in number but not in length, so their size,
# and the time to decide each instance, grows with the bound.
ORACLE_MAX_BOUND = 64


class UsageError(ValueError):
    pass


def _load_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _resolve_term(source: str, alphabet: Alphabet | None, variables) -> tuple[Monitor, Alphabet]:
    """Parse an inline term or an ``@file`` reference.

    Returns the term together with the alphabet that governed it: the one
    passed in, or the file's ``alphabet:`` header when none was given.  A
    header that names another alphabet than the one passed in is a usage
    error.
    """
    if not source.startswith("@"):
        if alphabet is None:
            raise UsageError(
                "--alphabet is required for inline terms (e.g. --alphabet a,b)"
            )
        return syntax.parse_monitor(source, alphabet, variables), alphabet
    path, _, name = source[1:].partition("#")
    try:
        tf = syntax.parse_term_file(_load_text(path), alphabet)
    except syntax.AlphabetConflict as err:
        raise UsageError(f"{path}: {err}") from None
    if tf.alphabet is None:  # parse_term_file rejects a file without one
        raise InternalError(f"{path}: term file read without an alphabet")
    if name:
        if name not in tf.terms:
            raise UsageError(f"{path} does not define {name!r}")
        return tf.terms[name], tf.alphabet
    return tf.single(), tf.alphabet


def _alphabet_from(args, required: bool = True) -> Alphabet | None:
    if not args.alphabet:
        if required:
            raise UsageError("--alphabet is required (e.g. --alphabet a,b or infinite)")
        return None
    return syntax.parse_alphabet(args.alphabet)


def _terms_and_alphabet(args, *sources) -> tuple[Alphabet, list[Monitor]]:
    """Resolve terms and the effective alphabet.

    An explicit ``--alphabet`` governs every term, and a file header that
    names another alphabet is a usage error; otherwise the terms must come
    from files whose headers agree on one.
    """
    explicit = _alphabet_from(args, required=False)
    variables = syntax.parse_vars(args.vars or "")
    terms: list[Monitor] = []
    seen: Alphabet | None = explicit
    for source in sources:
        term, used = _resolve_term(source, explicit, variables)
        if explicit is None:
            if seen is not None and used != seen:
                raise UsageError("input files declare different alphabets")
            seen = used
        terms.append(term)
    return seen, terms


def _emit(args, inputs: dict, result, lines: list[str], **extra) -> None:
    """Print ``lines``, or with ``--json`` one line of JSON: ``command`` (the
    subcommand), ``inputs``, ``result`` and the subcommand's ``extra`` fields."""
    if args.json:
        envelope = {"command": args.command, "inputs": inputs, "result": result, **extra}
        print(json.dumps(envelope, sort_keys=True, default=str))
    else:
        for line in lines:
            print(line)


def _cex_payload(cex: equivalence.Counterexample | None):
    if cex is None:
        return None
    return {
        "substitution": {k: print_monitor(v) for k, v in cex.substitution},
        "trace": print_trace(cex.trace),
        "side": cex.side,
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parse(args) -> int:
    alphabet, (term,) = _terms_and_alphabet(args, args.term)
    rendered = print_monitor(term)
    _emit(args, {"term": args.term, "alphabet": str(alphabet)}, rendered, [rendered])
    return 0


def cmd_lang(args) -> int:
    alphabet, (term,) = _terms_and_alphabet(args, args.term)
    lang = semantics.lang_of(term, alphabet)
    result = {
        "accept": [print_trace(t) for t in sorted(lang.accept_min, key=trace_key)],
        "reject": [print_trace(t) for t in sorted(lang.reject_min, key=trace_key)],
    }
    lines = ["accept:", *result["accept"], "reject:", *result["reject"]]
    _emit(args, {"term": args.term, "alphabet": str(alphabet)}, result, lines)
    return 0


def cmd_equiv(args) -> int:
    started = time.monotonic()
    alphabet, (m, n) = _terms_and_alphabet(args, args.left, args.right)
    mode = args.mode
    if args.oracle:
        cex = equivalence.oracle_counterexample(
            m, n, alphabet, mode, bound=args.bound, seed=args.seed
        )
        equal = cex is None
    else:
        decision = equivalence.decide(
            m, n, alphabet, mode, bound=args.bound, seed=args.seed
        )
        equal, cex = decision.equal, decision.counterexample
    result = "equivalent" if equal else "inequivalent"
    lines = [result]
    if cex is not None:
        if cex.substitution:
            lines.append(f"substitution: {print_substitution(cex.substitution)}")
        lines.append(f"trace: {print_trace(cex.trace)}")
        lines.append(f"side: {cex.side}")
    _emit(
        args,
        {"left": args.left, "right": args.right, "alphabet": str(alphabet), "mode": mode},
        result,
        lines,
        counterexample=_cex_payload(cex),
        timing=round(time.monotonic() - started, 6),
    )
    return 0 if equal else 1


def _run_normalize(args, emit_proof: bool) -> int:
    from . import normalize, prooflog

    alphabet, (term,) = _terms_and_alphabet(args, args.term)
    pipeline = normalize.PIPELINES[FORM_ALIASES[args.form]]
    cf = pipeline(term, alphabet, emit_proof=emit_proof)
    rendered = print_monitor(cf.term)
    proof_text = None
    if cf.derivation is not None:
        proof_text = prooflog.print_derivation(
            cf.derivation, vars_of(term) | vars_of(cf.term)
        )
        if args.emit_proof and args.emit_proof != "-":
            with open(args.emit_proof, "w", encoding="utf-8") as fh:
                fh.write(proof_text)
    lines = [rendered]
    if proof_text is not None and (args.emit_proof in (None, "-")):
        lines.append(proof_text.rstrip("\n"))
    _emit(
        args,
        {"term": args.term, "alphabet": str(alphabet), "form": args.form},
        rendered,
        lines,
        steps=len(cf.derivation.steps) if cf.derivation else None,
    )
    return 0


def cmd_normalize(args) -> int:
    return _run_normalize(args, emit_proof=bool(args.emit_proof))


def cmd_prove(args) -> int:
    return _run_normalize(args, emit_proof=True)


def cmd_axioms(args) -> int:
    from . import axioms

    alphabet = _alphabet_from(args)
    instances = axioms.list_system(
        args.system, alphabet, max_trace_len=args.max_s, max_k=args.max_k
    )
    lines = []
    failures = 0
    results = []
    for inst in instances:
        line = f"{inst.equation}"
        report = None
        if args.fuzz:
            report = axioms.soundness_fuzz(
                inst, alphabet, args.mode, args.fuzz, seed=args.seed
            )
            if not report.ok:
                failures += len(report.failures)
                first = report.failures[0]
                line += (
                    f"   # UNSOUND ({args.mode}): trace {print_trace(first.trace)}"
                    f" under {print_substitution(first.substitution)}"
                )
            else:
                line += f"   # sound in {report.trials} trials"
        lines.append(line)
        results.append(
            {
                "schema": inst.schema,
                "equation": str(inst.equation),
                "failures": 0 if report is None else len(report.failures),
            }
        )
    inputs = {
        "system": args.system,
        "alphabet": str(alphabet),
        "mode": args.mode,
        "fuzz": args.fuzz,
        "seed": args.seed,
    }
    _emit(args, inputs, results, lines)
    return 1 if failures else 0


def cmd_check_proof(args) -> int:
    from . import prooflog

    text = _load_text(args.file)
    derivation, variables = prooflog.parse_derivation(text)
    claimed = None
    if args.claim:
        claimed = syntax.parse_equation(args.claim, derivation.alphabet, variables)
    error = prooflog.validate(derivation, claimed)
    inputs = {"file": args.file}
    if error is None:
        conclusion = str(derivation.conclusion)
        _emit(args, inputs, "valid", [f"valid: {conclusion}"], conclusion=conclusion)
        return 0
    line = f"invalid at step {error.step_id}: [{error.reason}] {error.message}"
    details = {"step": error.step_id, "reason": error.reason, "message": error.message}
    _emit(args, inputs, "invalid", [line], error=details)
    return 1


def cmd_fuzz(args) -> int:
    from . import generate

    started = time.monotonic()
    alphabet = _alphabet_from(args)
    if not alphabet.is_finite:
        raise UsageError("fuzz needs a finite alphabet")
    rng = random.Random(args.seed)
    gen = generate.random_open_monitor if args.open else generate.random_closed_monitor
    disagreements = []
    lines = []
    for trial in range(args.trials):
        m = gen(rng, alphabet, args.depth)
        n = gen(rng, alphabet, args.depth)
        syn, sem = _verdicts(m, n, alphabet, args)
        if syn != sem:
            small_m, small_n = _shrink_disagreement(m, n, alphabet, args)
            disagreements.append((trial, small_m, small_n, syn, sem))
            lines.append(
                f"disagreement at trial {trial}: {print_monitor(small_m)}"
                f"  |  {print_monitor(small_n)}  canonical={syn} semantic={sem}"
            )
            if len(disagreements) >= 5:
                break
    summary = (
        f"{args.trials} trials, {len(disagreements)} disagreements"
        f" (mode={args.mode}, depth<={args.depth},"
        f" alphabet={alphabet}, seed={args.seed})"
    )
    lines.append(summary)
    inputs = {
        "trials": args.trials,
        "depth": args.depth,
        "alphabet": str(alphabet),
        "mode": args.mode,
        "open": bool(args.open),
        "seed": args.seed,
    }
    found = [
        {
            "trial": t,
            "left": print_monitor(m),
            "right": print_monitor(n),
            "canonical": syn,
            "semantic": sem,
        }
        for t, m, n, syn, sem in disagreements
    ]
    result = {"disagreements": found, "summary": summary}
    _emit(args, inputs, result, lines, timing=round(time.monotonic() - started, 6))
    return 1 if disagreements else 0


def _verdicts(m: Monitor, n: Monitor, alphabet: Alphabet, args) -> tuple[bool, bool]:
    """Equality of the canonical forms, and the semantic answer it must match:
    the substitution oracle for open terms, the product search for closed."""
    if args.open:
        form = equivalence.open_form(args.mode, alphabet)
        sem = equivalence.oracle_equiv_open(
            m, n, alphabet, args.mode, args.bound, seed=args.seed
        )
    else:
        from . import normalize

        if args.mode == equivalence.VERDICT:
            form = normalize.reduced_nf_closed
        else:
            form = normalize.omega_nf_closed
        sem = equivalence.decide(m, n, alphabet, args.mode).equal
    return ac_equal(form(m, alphabet).term, form(n, alphabet).term), sem


def _disagrees(m: Monitor, n: Monitor, alphabet: Alphabet, args) -> bool:
    syn, sem = _verdicts(m, n, alphabet, args)
    return syn != sem


def _shrink_candidates(m: Monitor):
    """Strictly smaller variants of ``m`` to try while minimizing."""
    from .terms import END, Prefix, Sum, size_of, summands, sum_of

    candidates = [END]
    if isinstance(m, Prefix):
        candidates.append(m.body)
    if isinstance(m, Sum):
        parts = list(summands(m))
        for i in range(len(parts)):
            candidates.append(sum_of(parts[:i] + parts[i + 1 :]))
        for i, p in enumerate(parts):
            if isinstance(p, Prefix):
                candidates.append(sum_of(parts[:i] + [p.body] + parts[i + 1 :]))
    bound = size_of(m)
    for cand in candidates:
        if size_of(cand) < bound:
            yield cand


def _shrink_disagreement(m: Monitor, n: Monitor, alphabet: Alphabet, args):
    changed = True
    while changed:
        changed = False
        for cand in _shrink_candidates(m):
            if _disagrees(cand, n, alphabet, args):
                m = cand
                changed = True
                break
        for cand in _shrink_candidates(n):
            if _disagrees(m, cand, alphabet, args):
                n = cand
                changed = True
                break
    return m, n


def cmd_witness(args) -> int:
    from . import axioms

    alphabet = _alphabet_from(args)
    inst = axioms.witness_instance(args.n, alphabet)
    lines = [str(inst.equation)]
    failures = 0
    if args.fuzz:
        report = axioms.soundness_fuzz(
            inst, alphabet, equivalence.VERDICT, args.fuzz, seed=args.seed
        )
        failures = len(report.failures)
        lines.append(
            f"soundness fuzz: {report.trials} trials, {failures} failures"
        )
    inputs = {"n": args.n, "alphabet": str(alphabet), "fuzz": args.fuzz}
    _emit(args, inputs, {"equation": lines[0], "failures": failures}, lines)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing


def _count(low: int = 0, high: int | None = None):
    """The argparse type of an integer option that must be at least ``low``
    and, if given, at most ``high``."""

    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        if high is not None and int(text) > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {text}")
        return int(text)

    return count


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on the first call."""
    parser = argparse.ArgumentParser(
        prog="regmon",
        description="Algebra of recursion-free regular monitors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alphabet=True, variables=True, seed=False):
        if alphabet:
            p.add_argument("--alphabet", help="comma-separated actions, or 'infinite'")
        if variables:
            p.add_argument("--vars", help="declared variables (open-ended alphabets)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("parse", help="parse a term and print it canonically")
    p.add_argument("term")
    common(p)

    p = sub.add_parser("lang", help="print the acceptance/rejection antichains")
    p.add_argument("term")
    common(p)

    p = sub.add_parser("equiv", help="decide verdict or omega-verdict equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=["verdict", "omega"], default="verdict")
    p.add_argument("--oracle", action="store_true", help="force the substitution oracle")
    p.add_argument(
        "--bound", type=_count(1, ORACLE_MAX_BOUND), help="oracle substitution depth bound"
    )
    common(p, seed=True)

    p = sub.add_parser("normalize", help="rewrite into a canonical form")
    p.add_argument("term")
    p.add_argument("--form", choices=sorted(FORM_ALIASES), required=True)
    p.add_argument("--emit-proof", metavar="PATH", help="write the derivation ('-' for stdout)")
    common(p)

    p = sub.add_parser("prove", help="normalize and print the derivation")
    p.add_argument("term")
    p.add_argument("--form", choices=sorted(FORM_ALIASES), required=True)
    p.add_argument("--emit-proof", metavar="PATH", help="write the derivation to a file")
    common(p)

    p = sub.add_parser("axioms", help="list an axiom system, optionally fuzzing it")
    p.add_argument("--system", choices=SYSTEMS, required=True)
    p.add_argument("--max-s", type=_count(1), help="bound on |s| for the O2 family")
    p.add_argument("--max-k", type=_count(1), help="bound on k for the O2 family")
    p.add_argument("--fuzz", type=_count(), help="random closed substitutions per instance")
    p.add_argument("--mode", choices=["verdict", "omega"], default="verdict")
    common(p, variables=False, seed=True)

    p = sub.add_parser("check-proof", help="validate a derivation file")
    p.add_argument("file")
    p.add_argument("--claim", help="equation the derivation must conclude")
    common(p, alphabet=False, variables=False)

    p = sub.add_parser("fuzz", help="cross-validate canonical forms against the semantics")
    p.add_argument("--trials", type=_count(), default=100)
    p.add_argument("--depth", type=_count(0, FUZZ_MAX_DEPTH), default=4)
    p.add_argument("--mode", choices=["verdict", "omega"], default="verdict")
    p.add_argument("--open", action="store_true", help="generate open terms")
    p.add_argument(
        "--bound", type=_count(1, ORACLE_MAX_BOUND), help="oracle bound for open terms"
    )
    common(p, variables=False, seed=True)

    p = sub.add_parser("witness", help="emit a member of the one-sided witness family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fuzz", type=_count(), help="soundness trials")
    common(p, variables=False, seed=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # Look the subcommand up at call time, so that rebinding a ``cmd_*``
    # function takes effect although the parser is built only once.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except ParseError as err:
        print(f"parse error at {err.span}: {err.message}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError, InternalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: input nests too deeply for {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
