import json

import pytest

from regmon.cli import main


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
    message = "error: substitution_family requires bound >= 1\n"
    code, _, err = run(
        capsys, "equiv", "x", "x + a.x", "--alphabet", "a,b", "--oracle", "--bound", "0"
    )
    assert (code, err) == (2, message)
    code, _, err = run(
        capsys, "fuzz", "--trials", "3", "--alphabet", "a,b", "--open", "--bound", "0"
    )
    assert (code, err) == (2, message)


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


def _fresh_process(*argv):
    import os
    import subprocess
    import sys

    import regmon

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(regmon.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "regmon", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


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
