import json
import time
from pathlib import Path

import pytest

from regmon.cli import main
from regmon.prooflog import parse_derivation
from regmon.terms import size_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_round_trips(capsys):
    code, out, _ = run(capsys, "parse", "a.(yes+no) + x", "--alphabet", "a,b")
    assert code == 0
    assert out.strip() == "a.(yes + no) + x"


def test_parse_error_exit_code_and_span(capsys):
    code, _, err = run(capsys, "parse", "a.(yes", "--alphabet", "a,b")
    assert code == 2
    assert "parse error" in err


def test_lang_output_format(capsys):
    code, out, _ = run(capsys, "lang", "a.yes + b.no", "--alphabet", "a,b")
    assert code == 0
    assert out.splitlines() == ["accept:", "a", "reject:", "b"]


def test_lang_epsilon_rendering(capsys):
    code, out, _ = run(capsys, "lang", "yes", "--alphabet", "a,b")
    assert out.splitlines() == ["accept:", "<eps>", "reject:"]


def test_equiv_closed_equivalent(capsys):
    code, out, _ = run(
        capsys, "equiv", "--alphabet", "a,b", "--mode", "verdict",
        "yes", "yes + a.a.a.yes",
    )
    assert code == 0
    assert out.strip() == "equivalent"


def test_equiv_v1_alphabet_split(capsys):
    code, _, _ = run(capsys, "equiv", "--alphabet", "a", "--mode", "verdict", "x", "x + a.x")
    assert code == 0
    code, out, _ = run(capsys, "equiv", "--alphabet", "a,b", "--mode", "verdict", "x", "x + a.x")
    assert code == 1
    assert "inequivalent" in out and "trace:" in out


def test_equiv_counterexample_on_closed(capsys):
    code, out, _ = run(
        capsys, "equiv", "--alphabet", "a,b", "yes", "a.yes + b.yes"
    )
    assert code == 1
    assert "trace: <eps>" in out
    assert "AcceptedOnlyByLeft" in out


def test_equiv_omega_mode(capsys):
    code, out, _ = run(
        capsys, "equiv", "--alphabet", "a,b", "--mode", "omega", "yes", "a.yes + b.yes"
    )
    assert code == 0


def test_equiv_oracle_flag(capsys):
    code, out, _ = run(
        capsys, "equiv", "--alphabet", "a,b", "--oracle", "--bound", "3",
        "yes + no", "yes + no + x",
    )
    assert code == 0


def test_normalize_and_prove(tmp_path, capsys):
    code, out, _ = run(
        capsys, "normalize", "yes + a.a.a.yes", "--form", "rnf", "--alphabet", "a,b"
    )
    assert code == 0 and out.strip() == "yes"
    proof = tmp_path / "proof.txt"
    code, out, _ = run(
        capsys, "prove", "x + yes + a.b.(no + b.a.x)", "--form", "open-rnf",
        "--alphabet", "a,b", "--emit-proof", str(proof),
    )
    assert code == 0
    assert out.splitlines()[0] == "yes + a.b.no + x"
    code, out, _ = run(
        capsys, "check-proof", str(proof), "--claim",
        "x + yes + a.b.(no + b.a.x) = yes + a.b.no + x",
    )
    assert code == 0 and out.startswith("valid")


def test_rewrite_under_three_hundred_prefixes_takes_one_context_step(tmp_path, capsys):
    # One rewrite under d prefixes used to cost d congruence steps, each
    # printing both sides whole: 195 kB at d = 300.
    term = "a." * 300 + "(yes + yes)"
    proof = tmp_path / "proof.txt"
    code, out, _ = run(
        capsys, "prove", term, "--form", "rnf", "--alphabet", "a,b", "--emit-proof", str(proof)
    )
    nf = "a." * 300 + "yes"
    assert code == 0 and out.splitlines()[0] == nf
    assert proof.stat().st_size <= 20_000
    assert "by ctx(" in proof.read_text()
    code, out, _ = run(capsys, "check-proof", str(proof), "--claim", f"{term} = {nf}")
    assert code == 0 and out.startswith("valid")


def test_prove_answers_on_a_chain_400_prefixes_deep(capsys):
    chain = "a." * 400 + "yes"
    code, out, _ = run(capsys, "prove", chain, "--form", "rnf", "--alphabet", "a,b")
    assert code == 0 and out.splitlines()[0] == chain


@pytest.mark.parametrize("emit_proof", [[], ["--emit-proof", "-"]])
@pytest.mark.parametrize("command", ["normalize", "prove"])
def test_json_command_names_the_subcommand(capsys, command, emit_proof):
    argv = [command, "a.yes + a.no", "--form", "nf", "--alphabet", "a,b", *emit_proof]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["command"] == command


def test_check_proof_rejects_corruption(tmp_path, capsys):
    proof = tmp_path / "proof.txt"
    code, _, _ = run(
        capsys, "prove", "yes + a.a.a.yes", "--form", "rnf",
        "--alphabet", "a,b", "--emit-proof", str(proof),
    )
    text = proof.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("step 1:"):
            lines[i] = line.replace("by", "by", 1).replace("yes", "no", 1)
            break
    proof.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "check-proof", str(proof))
    assert code == 1
    assert "invalid" in out


@pytest.mark.parametrize(
    "record",
    ["step 1: yes = yes by refl", "step 1: x + yes = yes + x by axiom(A1; x -> x, y -> yes)"],
    ids=["refl", "axiom"],
)
def test_check_proof_rejects_unknown_system(tmp_path, capsys, record):
    proof = tmp_path / "proof.txt"
    proof.write_text(f"system: Bogus\nalphabet: a,b\nvars: x\n{record}\n")
    code, out, err = run(capsys, "check-proof", str(proof))
    assert code == 1 and err == ""
    assert out == "invalid at step None: [AxiomNotInSystem] unknown axiom system 'Bogus'\n"


@pytest.mark.parametrize(
    "justification", ["axiom(A1; x -> x, x -> y)", "subst(1; x -> x, x -> y)"]
)
def test_check_proof_reports_a_doubly_mapped_variable_as_exit_2(tmp_path, capsys, justification):
    proof = tmp_path / "proof.txt"
    proof.write_text(
        "system: Ev\nalphabet: a,b\nvars: x, y\n"
        "step 1: x + y = y + x by axiom(A1; x -> x, y -> y)\n"
        f"step 2: x + y = y + x by {justification}\n"
    )
    code, out, err = run(capsys, "check-proof", str(proof))
    assert (code, out) == (2, "")
    assert err == (
        "error: line 5: cannot parse step record (variable 'x' is mapped twice)\n"
    )


@pytest.mark.parametrize(
    "records, message",
    [
        (
            "let $1 := x + yes\nstep 1: $1 = $2 by refl\n",
            "line 5: cannot parse step record (1:7: undeclared name '$2')",
        ),
        (
            "let $1 := x + yes\nlet $1 := yes\nstep 1: $1 = $1 by refl\n",
            "line 5: $1 is declared twice",
        ),
        ("let $1 := a.$2\n", "line 4: 1:4: undeclared name '$2'"),
        ("let 1 := yes\n", "line 4: expected 'let $N := term'"),
    ],
    ids=["undeclared", "twice", "undeclared-in-let", "malformed"],
)
def test_check_proof_reports_a_bad_name_with_its_line(tmp_path, capsys, records, message):
    proof = tmp_path / "proof.txt"
    proof.write_text("system: Ev\nalphabet: a,b\nvars: x\n" + records)
    assert run(capsys, "check-proof", str(proof)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("sid", ["x", "", "1.5", "(6)"])
def test_check_proof_reports_a_step_id_that_is_not_a_number_with_its_line(tmp_path, capsys, sid):
    proof = tmp_path / "proof.txt"
    proof.write_text(f"system: Ev\nalphabet: a,b\nstep {sid}: yes = yes by refl\n")
    assert run(capsys, "check-proof", str(proof)) == (
        2, "", f"error: line 3: step id {sid!r} is not a number\n"
    )


def test_check_proof_reports_a_let_before_the_headers(tmp_path, capsys):
    proof = tmp_path / "proof.txt"
    proof.write_text("let $1 := a.yes\nsystem: Ev\nalphabet: a,b\nstep 1: $1 = $1 by refl\n")
    assert run(capsys, "check-proof", str(proof)) == (
        2, "", "error: line 1: let before system/alphabet headers\n"
    )


def test_check_proof_refuses_names_that_spell_out_too_large_a_term(tmp_path, capsys):
    # Each name doubles the term that the next one stands for: $60 would
    # print as 2^61 - 1 nodes.  $20 (2^21 - 1) is under the limit, $21 is not.
    lets = ["let $1 := yes + no"] + [f"let ${k} := ${k - 1} + ${k - 1}" for k in range(2, 61)]
    proof = tmp_path / "proof.txt"
    for records, message in (
        (lets + ["step 1: $60 = $60 by refl"], "line 23: a term with its names spelled"),
        (lets[:20] + ["step 1: $20 + $20 = $20 + $20 by refl"], "line 23: cannot parse step"),
    ):
        proof.write_text("\n".join(["system: Ev", "alphabet: a,b", *records]) + "\n")
        started = time.monotonic()
        code, out, err = run(capsys, "check-proof", str(proof))
        assert time.monotonic() - started < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert err.endswith(" over 2500000 nodes\n") or err.endswith(" over 2500000 nodes)\n")
    proof.write_text("\n".join(["system: Ev", "alphabet: a,b", *lets[:20], "step 1: $20 = $20 by refl"]))
    derivation, _ = parse_derivation(proof.read_text())
    assert size_of(derivation.conclusion.lhs) == 2**21 - 1


def test_a_name_outside_a_derivation_is_undeclared(capsys):
    assert run(capsys, "parse", "$1", "--alphabet", "a") == (
        2, "", "parse error at 1:1: undeclared name '$1'\n"
    )


def test_axioms_listing_counts(capsys):
    code, out, _ = run(capsys, "axioms", "--system", "Ev", "--alphabet", "a")
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_axioms_listing_reparses_as_equations(capsys):
    from regmon.syntax import parse_equation
    from regmon.terms import Alphabet

    _, out, _ = run(
        capsys, "axioms", "--system", "Evf'", "--alphabet", "a,b",
        "--max-s", "1", "--max-k", "2",
    )
    alphabet = Alphabet.finite(["a", "b"])
    for line in out.strip().splitlines():
        parse_equation(line, alphabet)


def test_axioms_fuzz_v1_failure_exit(capsys):
    code, out, _ = run(
        capsys, "axioms", "--system", "Ev1'", "--alphabet", "a,b",
        "--fuzz", "40",
    )
    assert code == 1
    assert "UNSOUND" in out


def test_witness_sound(capsys):
    code, out, _ = run(capsys, "witness", "--n", "2", "--alphabet", "a,b", "--fuzz", "50")
    assert code == 0
    assert "0 failures" in out


@pytest.mark.parametrize("n, alphabet", [(10**6, "a,b"), (10**9, "a,b"), (10**9, "a")])
def test_witness_refuses_an_instance_over_the_limit_before_building_it(capsys, n, alphabet):
    started = time.monotonic()
    code, out, err = run(capsys, "witness", "--n", str(n), "--alphabet", alphabet)
    assert time.monotonic() - started < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: witness_family n={n} over {alphabet}:")
    assert "over the limit of 2500000" in err


def test_fuzz_refuses_a_depth_over_its_cap_at_once(capsys):
    started = time.monotonic()
    code, out, err = run(capsys, "fuzz", "--depth", "1000000", "--trials", "1")
    assert time.monotonic() - started < 1
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --depth: must be <= 64, got 1000000\n")
    code, out, _ = run(capsys, "fuzz", "--alphabet", "a,b", "--trials", "1", "--depth", "64")
    assert code == 0 and out.startswith("1 trials, 0 disagreements (mode=verdict, depth<=64,")


def test_oracle_refuses_a_bound_outside_its_range_at_once(capsys):
    # Over one action the oracle's values grow with the bound.
    pair = ("--alphabet", "a", "x + y", "y + x")
    fuzz = ("fuzz", "--open", "--trials", "1", "--alphabet", "a")
    for argv in (("equiv", "--oracle", *pair), fuzz):
        for bound in ("1000000", "0"):
            started = time.monotonic()
            code, out, err = run(capsys, *argv, "--bound", bound)
            assert time.monotonic() - started < 1
            assert (code, out) == (2, "")
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and "error: argument --bound: " in errors[0]
    assert run(capsys, "equiv", "--oracle", "--bound", "64", *pair) == (0, "equivalent\n", "")


def test_a_term_whose_o2_guard_is_a_wide_sum_answers(capsys):
    # The right-hand draw of trial 14 of ``fuzz --open --depth 48 --seed 2``
    # over a,b.  fin-rnf eliminates its ``y`` at |s| = 10 and k = 2, through a
    # guard whose ``bar_leq`` is a left-nested sum of 2036 summands.
    import random

    from regmon.generate import random_open_monitor
    from regmon.syntax import print_monitor
    from regmon.terms import Alphabet

    ab = Alphabet.finite(["a", "b"])
    rng = random.Random(2)
    for _ in range(15):
        random_open_monitor(rng, ab, 48)
        term = print_monitor(random_open_monitor(rng, ab, 48))
    assert run(capsys, "equiv", "--alphabet", "a,b", term, term) == (0, "equivalent\n", "")
    code, out, err = run(capsys, "normalize", "--form", "fin-rnf", "--alphabet", "a,b", term)
    assert (code, err) == (0, "") and out.startswith("b.(a.(b.(b.(yes + a.(")


def test_witness_names_the_size_that_it_refuses(capsys):
    # n = 16 is the largest over {a,b}: its size is 17 * (2^17 - 1).
    code, _, err = run(capsys, "witness", "--n", "17", "--alphabet", "a,b")
    assert (code, err) == (2, "error: witness_family n=17 over a,b: size 4718574 is over"
                               " the limit of 2500000\n")


def test_witness_over_one_action_is_sized_by_the_instance_it_builds(capsys):
    # Over one action bar_leq lists nothing: the two sides have 9n + 18 nodes.
    from regmon.syntax import parse_equation
    from regmon.terms import Alphabet

    code, out, err = run(capsys, "witness", "--n", "2000", "--alphabet", "a")
    assert (code, err) == (0, "")
    eq = parse_equation(out, Alphabet.finite(["a"]))
    assert size_of(eq.lhs) + size_of(eq.rhs) == 9 * 2000 + 18
    code, out, err = run(capsys, "witness", "--n", "277776", "--alphabet", "a")
    assert (code, out) == (2, "")
    assert err == "error: witness_family n=277776 over a: size 2500002 is over the limit of 2500000\n"


@pytest.mark.parametrize("bounds, named", [
    (("1000000", "1"), "|s| <= 1000000 and k <= 1"),
    (("1", "1000000"), "|s| <= 1 and k <= 1000000"),
])
def test_axioms_refuses_a_listing_over_the_limit_before_building_it(capsys, bounds, named):
    started = time.monotonic()
    code, out, err = run(
        capsys, "axioms", "--system", "Evf'", "--alphabet", "a,b",
        "--max-s", bounds[0], "--max-k", bounds[1],
    )
    assert time.monotonic() - started < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"error: system Evf': the O2 family with {named} over a,b has size ")
    assert err.endswith(" over the limit of 2500000\n")


def test_check_proof_of_a_long_o2_step_over_one_action_stays_small(tmp_path, capsys):
    # Over one action every trace no longer than s is a prefix of s, so the
    # instance lists none: its size grows with |s|, not with |s|^2.
    import tracemalloc

    chain = "a." * 4000
    path = tmp_path / "proof.txt"
    path.write_text(
        "system: Evf'\nalphabet: a\nvars: x\n"
        f"step 1: x + {chain}x + {chain}a.(yes + no) = x + {chain}a.(yes + no)"
        f" by axiom(O2; s={' '.join('a' * 4000)}; k=1)\n",
        encoding="utf-8",
    )
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "check-proof", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "") and out.startswith("valid: x + a.a.")
    assert peak <= 16 * 2**20


def test_fuzz_deterministic_output(capsys):
    args = (
        "fuzz", "--trials", "30", "--depth", "3", "--alphabet", "a,b",
        "--mode", "verdict", "--seed", "5",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_fuzz_open_mode(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--trials", "15", "--depth", "3", "--alphabet", "a,b",
        "--open", "--mode", "omega",
    )
    assert code == 0
    assert "0 disagreements" in out


def test_bound_zero_is_a_usage_error_for_equiv_and_fuzz(capsys):
    message = "error: argument --bound: must be >= 1, got 0\n"
    code, _, err = run(
        capsys, "equiv", "x", "x + a.x", "--alphabet", "a,b", "--oracle", "--bound", "0"
    )
    assert code == 2 and err.endswith(message)
    code, _, err = run(
        capsys, "fuzz", "--trials", "3", "--alphabet", "a,b", "--open", "--bound", "0"
    )
    assert code == 2 and err.endswith(message)


def test_oracle_on_an_open_ended_alphabet_is_exit_2(capsys):
    code, out, err = run(
        capsys, "equiv", "x", "x + a.x", "--alphabet", "infinite", "--vars", "x", "--oracle"
    )
    assert (code, out, err) == (2, "", "error: the oracle needs a finite alphabet\n")


def test_fuzz_unary_open(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--trials", "15", "--depth", "3", "--alphabet", "a",
        "--open", "--mode", "verdict",
    )
    assert code == 0
    assert "0 disagreements" in out


def test_shrink_candidates_are_smaller():
    from regmon.cli import _shrink_candidates
    from regmon.syntax import parse_monitor
    from regmon.terms import Alphabet, size_of

    m = parse_monitor("a.(yes + b.no) + x + no", Alphabet.finite(["a", "b"]))
    for cand in _shrink_candidates(m):
        assert size_of(cand) < size_of(m)


def test_shrink_driver_minimizes(monkeypatch):
    # stub the disagreement predicate so shrinking has something to chase:
    # pretend any pair whose left side still contains a 'no' disagrees
    import regmon.cli as cli
    from regmon.syntax import parse_monitor, print_monitor
    from regmon.terms import Alphabet, NO, contains_verdict

    alphabet = Alphabet.finite(["a", "b"])
    m = parse_monitor("a.(yes + b.no) + x + no", alphabet)
    n = parse_monitor("yes", alphabet)
    monkeypatch.setattr(
        cli, "_disagrees", lambda m, n, alphabet, args: contains_verdict(m, NO)
    )
    small_m, small_n = cli._shrink_disagreement(m, n, alphabet, args=None)
    assert print_monitor(small_m) == "no"


def test_fuzz_shrinks_each_disagreement_to_a_local_minimum(capsys, monkeypatch):
    # a wrong canonical form that calls every pair equal, so each
    # inequivalent pair is a disagreement for the shrinker to minimize
    import argparse

    import regmon.cli as cli
    from regmon import normalize
    from regmon.syntax import parse_monitor
    from regmon.terms import END, Alphabet

    monkeypatch.setattr(
        normalize,
        "reduced_nf_closed",
        lambda m, alphabet=None, emit_proof=False: normalize.CanonicalForm(END, normalize.RNF),
    )
    argv = ("fuzz", "--trials", "30", "--depth", "3", "--alphabet", "a,b", "--seed", "5")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert 1 <= out.count("disagreement at trial") <= 5
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    reported = json.loads(out)["result"]["disagreements"]
    assert 1 <= len(reported) <= 5
    alphabet = Alphabet.finite(["a", "b"])
    args = argparse.Namespace(open=False, mode="verdict", bound=None, seed=5)
    for pair in reported:
        m = parse_monitor(pair["left"], alphabet)
        n = parse_monitor(pair["right"], alphabet)
        assert cli._disagrees(m, n, alphabet, args)
        assert not any(cli._disagrees(c, n, alphabet, args) for c in cli._shrink_candidates(m))
        assert not any(cli._disagrees(m, c, alphabet, args) for c in cli._shrink_candidates(n))


def test_json_envelope(capsys):
    code, out, _ = run(
        capsys, "equiv", "--alphabet", "a,b", "--json", "yes", "no",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["command"] == "equiv"
    assert payload["result"] == "inequivalent"
    assert payload["counterexample"]["trace"] == "<eps>"
    assert "timing" in payload


GOLDEN_PROOF = str(Path(__file__).parent / "golden" / "proofs" / "omega.compact.txt")
TERM_INPUTS = {"term", "alphabet"}
EQUIV_INPUTS = {"left", "right", "alphabet", "mode"}


# (argv, exit code, the inputs' keys, the keys beside command, inputs and result)
ENVELOPES = {
    "parse": (["parse", "a.(yes + no) + x", "--alphabet", "a,b"], 0, TERM_INPUTS, set()),
    "lang": (["lang", "a.yes + b.no", "--alphabet", "a,b"], 0, TERM_INPUTS, set()),
    "equiv-closed": (
        ["equiv", "--alphabet", "a,b", "yes", "yes + a.a.a.yes"],
        0,
        EQUIV_INPUTS,
        {"counterexample", "timing"},
    ),
    "equiv-closed-inequivalent": (
        ["equiv", "--alphabet", "a,b", "yes", "no"],
        1,
        EQUIV_INPUTS,
        {"counterexample", "timing"},
    ),
    "equiv-open": (
        ["equiv", "--alphabet", "a,b", "x", "x + a.x"],
        1,
        EQUIV_INPUTS,
        {"counterexample", "timing"},
    ),
    "equiv-oracle": (
        ["equiv", "--alphabet", "a,b", "--oracle", "--bound", "4", "x", "x + a.x"],
        1,
        EQUIV_INPUTS,
        {"counterexample", "timing"},
    ),
    "normalize": (
        ["normalize", "yes + a.a.a.yes", "--form", "rnf", "--alphabet", "a,b"],
        0,
        TERM_INPUTS | {"form"},
        {"steps"},
    ),
    "prove": (
        ["prove", "x + yes + a.b.(no + b.a.x)", "--form", "open-rnf", "--alphabet", "a,b"],
        0,
        TERM_INPUTS | {"form"},
        {"steps"},
    ),
    "check-proof-valid": (["check-proof", GOLDEN_PROOF], 0, {"file"}, {"conclusion"}),
    "check-proof-invalid": (["check-proof", "INVALID"], 1, {"file"}, {"error"}),
    "axioms": (
        ["axioms", "--system", "Ev", "--alphabet", "a,b", "--fuzz", "2"],
        0,
        {"system", "alphabet", "mode", "fuzz", "seed"},
        set(),
    ),
    "fuzz": (
        ["fuzz", "--trials", "3", "--depth", "2", "--alphabet", "a,b"],
        0,
        {"trials", "depth", "alphabet", "mode", "open", "seed"},
        {"timing"},
    ),
    "witness": (["witness", "--n", "2", "--alphabet", "a,b"], 0, {"n", "alphabet", "fuzz"}, set()),
}


@pytest.mark.parametrize("case", sorted(ENVELOPES))
def test_json_envelope_has_exactly_its_subcommands_keys(capsys, tmp_path, case):
    argv, want_code, inputs, extra = ENVELOPES[case]
    if "INVALID" in argv:
        # Step 2 of the golden proof is its step 1 flipped, not reflexivity.
        invalid = tmp_path / "invalid.txt"
        text = Path(GOLDEN_PROOF).read_text(encoding="utf-8")
        invalid.write_text(text.replace("by sym(1)", "by refl"), encoding="utf-8")
        argv = [str(invalid) if a == "INVALID" else a for a in argv]
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (want_code, "")
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "result"} | extra
    assert payload["command"] == argv[0]
    assert set(payload["inputs"]) == inputs
    if case.startswith("equiv"):
        assert (payload["counterexample"] is None) == (code == 0)
    if case == "check-proof-invalid":
        assert set(payload["error"]) == {"step", "reason", "message"}
        assert payload["error"]["step"] == 2


def test_json_outputs_reparse(capsys):
    from regmon.syntax import parse_monitor
    from regmon.terms import Alphabet

    code, out, _ = run(
        capsys, "normalize", "a.end + yes", "--form", "nf", "--alphabet", "a,b",
        "--json",
    )
    payload = json.loads(out)
    parse_monitor(payload["result"], Alphabet.finite(["a", "b"]))


def test_term_from_file(tmp_path, capsys):
    f = tmp_path / "terms.mon"
    f.write_text("alphabet: a,b\nm1 := yes + a.a.a.yes\nm2 := yes\n")
    code, out, _ = run(
        capsys, "equiv", "--alphabet", "a,b", f"@{f}#m1", f"@{f}#m2"
    )
    assert code == 0


def test_alphabet_from_file_header(tmp_path, capsys):
    f = tmp_path / "terms.mon"
    f.write_text("alphabet: a,b\nm1 := yes + a.a.a.yes\nm2 := yes\n")
    code, out, _ = run(capsys, "equiv", f"@{f}#m1", f"@{f}#m2")
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run(capsys, "lang", f"@{f}#m1")
    assert code == 0 and out.splitlines() == ["accept:", "<eps>", "reject:"]


def test_usage_error_is_exit_2(capsys):
    code, _, err = run(capsys, "lang", "yes")
    assert code == 2
    assert "alphabet" in err


def test_unknown_flag_is_exit_2(capsys):
    code = main(["equiv", "--nonsense"])
    assert code == 2


def test_inconsistent_form_and_alphabet_is_exit_2(capsys):
    code, _, err = run(
        capsys, "normalize", "x + a.x", "--form", "fin-rnf", "--alphabet", "a"
    )
    assert code == 2
    assert "two actions" in err or "alphabet" in err


def _fresh_process(*argv, program=("-m", "regmon")):
    """Run ``regmon`` with ``argv`` in a new interpreter, or ``program``
    (such as ``("-c", code)``) when given."""
    import os
    import subprocess
    import sys

    import regmon

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(regmon.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *program, *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


# Runs ``cli.main`` on its arguments, then prints the ``regmon`` modules it
# loaded on stderr.
LOADED_MODULES = (
    "import sys\n"
    "from regmon.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(sorted(m for m in sys.modules if m.startswith('regmon.')), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
REWRITING = {"regmon.normalize", "regmon.prooflog", "regmon.axioms", "regmon.generate"}


@pytest.mark.parametrize("argv, left_out", [
    (("equiv", "--alphabet", "a,b", "yes + a.no", "a.no + yes"), REWRITING),
    (("equiv", "--alphabet", "a,b", "--mode", "omega", "yes", "a.yes + b.yes"), REWRITING),
    (("parse", "a.(yes + no) + x", "--alphabet", "a,b"), REWRITING),
    (("lang", "a.yes + b.no", "--alphabet", "a,b"), REWRITING),
    (("check-proof", "tests/golden/proofs/open-rnf.compact.txt"),
     {"regmon.normalize", "regmon.generate"}),
])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, left_out):
    import ast
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    argv = [os.path.join(root, a) if a.startswith("tests/") else a for a in argv]
    code, out, err = _fresh_process(*argv, program=("-c", LOADED_MODULES))
    assert code == 0 and out
    loaded = set(ast.literal_eval(err.splitlines()[-1]))
    assert {"regmon.terms", "regmon.cli"} <= loaded
    assert not loaded & left_out


def test_every_public_name_is_its_home_modules_object(monkeypatch):
    import importlib

    import regmon
    import regmon.cli as cli

    namespace = {}
    exec("from regmon import *", namespace)
    assert set(regmon.__all__) <= set(dir(regmon))
    for name in regmon.__all__:
        home = importlib.import_module(f"regmon.{regmon._HOME_OF[name]}")
        assert getattr(regmon, name) is getattr(home, name) is namespace[name]
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        regmon.nothing
    # A name is read from its home module each time, so a function rebound
    # there and put back (as perfbench's tracer does) leaves no copy behind.
    original = regmon.decide
    monkeypatch.setattr(importlib.import_module("regmon.equivalence"), "decide", len)
    assert regmon.decide is len
    monkeypatch.undo()
    assert regmon.decide is original
    # The parser's name-only table of systems (test_normalize.py pins
    # FORM_ALIASES to normalize.FORMS).
    from regmon import axioms

    assert cli.SYSTEMS == tuple(sorted(axioms.SYSTEM_SCHEMAS))


@pytest.mark.parametrize("internal", [True, False])
def test_only_an_internal_error_of_the_rewriting_is_exit_2(capsys, monkeypatch, internal):
    from regmon import normalize

    def broken(*_args, **_kwargs):
        raise (normalize.InternalError if internal else RuntimeError)("broken invariant")

    monkeypatch.setitem(normalize.PIPELINES, "rnf", broken)
    argv = ["normalize", "--form", "rnf", "--alphabet", "a", "a.yes"]
    if internal:
        assert run(capsys, *argv) == (2, "", "error: broken invariant\n")
    else:
        with pytest.raises(RuntimeError, match="broken invariant"):
            main(argv)


def test_input_that_nests_too_deeply_is_exit_2():
    # The normal-form pipelines still recurse on the nesting of a term.
    chain = "a." * 5000 + "yes"
    code, out, err = _fresh_process("normalize", "--form", "rnf", "--alphabet", "a,b", chain)
    assert (code, out, err) == (2, "", "error: input nests too deeply for normalize\n")


def test_main_reuses_one_parser_across_calls(capsys):
    import regmon.cli as cli

    calls = [
        ("parse", "a.(yes+no) + x", "--alphabet", "a,b"),
        ("equiv", "--mode", "bogus", "yes", "yes"),
        ("equiv", "--alphabet", "a,b", "yes", "yes + a.a.a.yes"),
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    assert in_process == [_fresh_process(*argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()


def test_main_resolves_subcommands_at_call_time(capsys, monkeypatch):
    import regmon.cli as cli

    run(capsys, "parse", "yes", "--alphabet", "a")  # the parser exists now
    monkeypatch.setattr(cli, "cmd_parse", lambda args: print("stub") or 0)
    assert run(capsys, "parse", "yes", "--alphabet", "a") == (0, "stub\n", "")


def test_disagrees_lets_unexpected_errors_propagate(monkeypatch):
    import argparse

    import pytest

    import regmon.cli as cli
    from regmon import normalize
    from regmon.terms import NO, YES, Alphabet

    def boom(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(normalize, "reduced_nf_closed", boom)
    args = argparse.Namespace(open=False, mode="verdict", bound=None, seed=0)
    with pytest.raises(RuntimeError, match="boom"):
        cli._disagrees(YES, NO, Alphabet.finite(["a", "b"]), args)


def test_non_ascii_identifier_is_a_parse_error(capsys):
    code, out, err = run(capsys, "parse", "--alphabet", "a,b", "a.é + ü")
    assert (code, out) == (2, "")
    assert err == "parse error at 1:3: unexpected character 'é'\n"
    code, out, err = run(
        capsys, "equiv", "--alphabet", "infinite", "é.yes", "é.yes + é.no"
    )
    assert (code, out) == (2, "")
    assert err == "parse error at 1:1: unexpected character 'é'\n"


def test_explicit_alphabet_conflicting_with_file_header_is_exit_2(tmp_path, capsys):
    f = tmp_path / "f.mon"
    f.write_text("alphabet: a\nb.yes + x\n")
    code, out, err = run(capsys, "parse", f"@{f}", "--alphabet", "a,b")
    assert (code, out) == (2, "")
    assert err == f"error: {f}: the file declares alphabet a, but a,b was given\n"
    f.write_text("alphabet: b,a\nb.yes + x\n")  # the same alphabet agrees
    assert run(capsys, "parse", f"@{f}", "--alphabet", "a,b") == (0, "b.yes + x\n", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["parse", "@{pair}#k"], "{pair} does not define 'k'"),
        (["equiv", "@{one}", "@{two}"], "input files declare different alphabets"),
        (["parse", "@{pair}"], "expected exactly one term, file defines 2"),
    ],
    ids=["undefined-name", "different-alphabets", "two-terms-without-name"],
)
def test_term_file_refusals_are_exit_2(tmp_path, capsys, argv, message):
    files = {"one": "alphabet: a\nyes\n", "two": "alphabet: a,b\nyes\n"}
    files["pair"] = "alphabet: a,b\nm := yes\nn := no\n"
    paths = {name: tmp_path / f"{name}.mon" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message.format(**paths)}\n")


def test_fuzz_over_an_open_ended_alphabet_is_exit_2(capsys):
    assert run(capsys, "fuzz", "--alphabet", "infinite") == (
        2, "", "error: fuzz needs a finite alphabet\n"
    )


@pytest.mark.parametrize(
    "records, line",
    [
        (
            "step 1: yes = yes by refl\nstep 1: no = no by refl\n",
            "invalid at step 1: [ShapeMismatch] duplicate step id",
        ),
        (
            "step 1: yes = yes by refl\nstep 2: no = no by refl\n"
            "step 3: yes + no = no + yes by sum(1, 2)\n",
            "invalid at step 3: [ShapeMismatch] sum congruence shape differs",
        ),
        (
            "step 1: yes = yes by refl\nstep 2: a.yes = b.yes by prefix(a, 1)\n",
            "invalid at step 2: [ShapeMismatch] prefix congruence shape differs",
        ),
    ],
    ids=["repeated-id", "sum", "prefix"],
)
def test_check_proof_rejects_a_step_of_the_wrong_shape(tmp_path, capsys, records, line):
    proof = tmp_path / "proof.txt"
    proof.write_text("system: Ev\nalphabet: a,b\n" + records)
    assert run(capsys, "check-proof", str(proof)) == (1, f"{line}\n", "")


FUEL_TERM = "yes + x + a.(x + a.no + b.no) + b.no"  # needs two rounds of fin-rnf


def test_fuel_exhaustion_is_an_error_exit_2(capsys, monkeypatch):
    from regmon import normalize

    monkeypatch.setattr(normalize, "_FUEL", 1)
    code, out, err = run(
        capsys, "normalize", "--form", "fin-rnf", "--alphabet", "a,b", FUEL_TERM
    )
    assert (code, out, err) == (2, "", "error: finite_act_rnf failed to stabilize\n")


def test_fuel_bound_holds_without_asserts():
    import os
    import subprocess
    import sys

    import regmon

    script = (
        "import sys\n"
        "assert False, 'asserts are live'\n"
        "from regmon import cli, normalize\n"
        "normalize._FUEL = 1\n"
        f"sys.exit(cli.main(['normalize', '--form', 'fin-rnf', '--alphabet', 'a,b', {FUEL_TERM!r}]))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(regmon.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        "error: finite_act_rnf failed to stabilize\n",
    )



@pytest.mark.parametrize(
    "text, argv",
    [
        (None, ["parse", "a.yes", "--alphabet", "infinite", "--vars", "1x"]),
        ("alphabet: a\nvars: 1x\nyes\n", ["parse", "@{f}"]),
        (
            "system: Ev\nalphabet: a\nvars: 1x, yes\nstep 1: yes = yes by refl\n",
            ["check-proof", "{f}"],
        ),
    ],
    ids=["--vars", "term file", "derivation"],
)
def test_every_variable_list_rejects_bad_names(tmp_path, capsys, text, argv):
    f = tmp_path / "input.txt"
    f.write_text(text or "")
    argv = [arg.format(f=f) for arg in argv]
    assert run(capsys, *argv) == (2, "", "parse error at 1:1: bad variable name '1x'\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["axioms", "--system", "Ev"], "system Ev"),
        (["witness", "--n", "2"], "witness_family"),
    ],
)
def test_finite_alphabet_errors_name_their_subject(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--alphabet", "infinite")
    assert (code, out, err) == (2, "", f"error: {message} needs a finite alphabet\n")


# Each subcommand takes only the options that its handler reads.
@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "yes", "--alphabet", "a", "--seed", "1"],
        ["lang", "yes", "--alphabet", "a", "--seed", "1"],
        ["normalize", "yes", "--form", "nf", "--alphabet", "a", "--seed", "1"],
        ["prove", "yes", "--form", "nf", "--alphabet", "a", "--seed", "1"],
        ["check-proof", "proof.txt", "--seed", "1"],
        ["axioms", "--system", "Ev", "--alphabet", "a", "--vars", "x"],
        ["fuzz", "--trials", "1", "--alphabet", "a", "--vars", "x"],
        ["witness", "--n", "1", "--alphabet", "a", "--vars", "x"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_options_that_nothing_reads_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["axioms", "--system", "Ev", "--alphabet", "a", "--fuzz", "-1"],
         "argument --fuzz: must be >= 0, got -1"),
        (["witness", "--n", "2", "--alphabet", "a,b", "--fuzz", "-4"],
         "argument --fuzz: must be >= 0, got -4"),
        (["fuzz", "--alphabet", "a,b", "--trials", "-2"], "argument --trials: must be >= 0, got -2"),
        (["fuzz", "--alphabet", "a,b", "--depth", "-1"], "argument --depth: must be >= 0, got -1"),
        (["axioms", "--system", "Evf'", "--alphabet", "a,b", "--max-s", "1", "--max-k", "0"],
         "argument --max-k: must be >= 1, got 0"),
        (["axioms", "--system", "Evf'", "--alphabet", "a,b", "--max-s", "0", "--max-k", "1"],
         "argument --max-s: must be >= 1, got 0"),
    ],
)
def test_counts_below_their_least_value_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


def test_zero_counts_are_accepted(capsys):
    code, out, _ = run(capsys, "fuzz", "--alphabet", "a,b", "--trials", "0", "--depth", "0")
    assert code == 0
    assert out.startswith("0 trials, 0 disagreements (mode=verdict, depth<=0,")
    code, out, _ = run(capsys, "axioms", "--system", "Ev", "--alphabet", "a", "--fuzz", "0")
    assert code == 0 and "# sound" not in out
