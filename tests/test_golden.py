"""Golden output: README command transcripts and one proof text per form.

The files under ``tests/golden/`` pin the exact text that the CLI prints for
every ``regmon`` line of README's "Command line" block (plain and with
``--json``, the ``timing`` field masked), the exact derivation text of one
small term per canonical form (``proofs/<form>.compact.txt``), and two sha256
per form over a seeded corpus of random terms (``proofs/digests.txt``): one
over the derivations, one over the pure normal forms.  ``demos/<script>.txt``
hold the stdout of each demo, which ``test_demos.py`` compares.  A refactor
that claims to keep behaviour must keep all four byte for byte.

``proofs/<form>.txt`` hold the same cases' proofs in the format before
``ctx`` and n-ary ``trans`` steps: fixtures that must still parse, check and
print back, and that nothing regenerates.

To regenerate the files after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root and
review the diff.  It prints the path of each file whose content it changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from regmon import cli, normalize, prooflog, syntax
from regmon.generate import random_monitor
from regmon.terms import Equation, vars_of

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
README_TRANSCRIPT = GOLDEN / "readme_commands.txt"
DIGESTS = GOLDEN / "proofs" / "digests.txt"

# One small term per form, chosen so that the proofs run the shared rewriting
# helpers: the Y_a/N_a unfold of fin-rnf saturation (over traces of length 1
# and 2), the V1 unfold of unary-rnf, O1 pruning in open-rnf, and the
# innermost-first body rewriting of the omega forms at nested prefixes.
PROOF_CASES = {
    "nf": ("a,b", "a.b.yes + a.(end + b.no) + yes"),
    "rnf": ("a,b", "yes + a.(no + b.yes) + a.yes + b.(yes + no)"),
    "omega": ("a,b", "a.(a.yes + b.yes) + b.no"),
    "open-nf": ("a,b", "x + a.x + a.(y + end)"),
    "open-rnf": ("a,b", "no + a.(yes + x)"),
    "fin-rnf": ("a,b", "yes + x + a.(x + a.no + b.no) + b.no"),
    "unary-rnf": ("a", "y + a.a.a.y"),
    "unary-omega": ("a", "x + a.(yes + a.x)"),
    "open-omega": ("a,b", "x + a.b.(a.yes + b.yes)"),
}

# The digest corpus: per form, seeded random terms of two shapes (many small
# ones, fewer wide ones) over the form's alphabet and variable pool, plus hand
# terms for paths that random terms almost never take: an O2 elimination of a
# covered variable occurrence (with guards of k = 1 and k = 2) in the two
# forms that eliminate variables, and O1 pruning below a prefix in open-rnf.
DIGEST_SHAPES = ((40, 8, 0.7), (15, 6, 0.85))  # (count, max_depth, descend)
_O2_TERMS = (
    "yes + x + a.(x + a.no + b.no) + b.no",
    "yes + x + a.(x + a.no + b.no)",
    "no + y + b.(y + a.yes + b.yes) + a.yes + a.b.x",
    "yes + x + b.no + a.a.no + a.b.(x + a.no + b.no)",
)
DIGEST_HAND_TERMS = {
    "fin-rnf": _O2_TERMS,
    "open-omega": _O2_TERMS
    + (
        # Folds one open-omega body twice in a row, so the loop of
        # _omega_closed takes a second turn inside a body.
        "a.(b.b.no + a.b.(a.(y + yes) + (y + a.yes) + end + b.x)) + a.(end + b.yes"
        " + a.yes + (a.a.a.x + (a.no + (a.a.(x + x) + a.b.b.y) + b.a.no)))",
    ),
    "open-rnf": (
        "yes + a.(x + b.(no + y) + a.(x + a.(no + y)))",
        "no + a.(b.(yes + y) + a.x) + b.(a.(yes + x) + b.(a.(yes + y)))",
    ),
}


def digest_corpus(form: str):
    """The alphabet and the terms whose proofs ``digests.txt`` pins for ``form``."""
    alphabet = syntax.parse_alphabet(PROOF_CASES[form][0])
    pool = () if form in ("nf", "rnf", "omega") else ("x", "y")
    rng = random.Random(sorted(PROOF_CASES).index(form))
    terms = [
        random_monitor(rng, alphabet, max_depth, pool, descend)
        for count, max_depth, descend in DIGEST_SHAPES
        for _ in range(count)
    ]
    terms += [syntax.parse_monitor(src, alphabet) for src in DIGEST_HAND_TERMS.get(form, ())]
    return alphabet, terms


def corpus_digests(form: str) -> tuple[str, str]:
    """Two sha256 over the corpus of ``form``: one over each term with its
    derivation, one over each term with its pure normal form only.  A change
    of proof text alone moves the first and keeps the second."""
    alphabet, terms = digest_corpus(form)
    pipeline = normalize.PIPELINES[cli.FORM_ALIASES[form]]
    proofs, forms = hashlib.sha256(), hashlib.sha256()
    for term in terms:
        cf = pipeline(term, alphabet, emit_proof=True)
        pure = pipeline(term, alphabet).term
        names = vars_of(term) | vars_of(cf.term)
        source = syntax.print_monitor(term)
        for h, text in (
            (proofs, source),
            (proofs, prooflog.print_derivation(cf.derivation, names)),
            (forms, source),
            (forms, syntax.print_monitor(pure)),
        ):
            h.update(text.encode("utf-8") + b"\0")
    return proofs.hexdigest(), forms.hexdigest()


def digests_text() -> str:
    lines = []
    for form in sorted(PROOF_CASES):
        proof, nf = corpus_digests(form)
        lines.append(f"{form} proof:{proof} nf:{nf}\n")
    return "".join(lines)


_TIMING = re.compile(r'"timing": [0-9.e+-]+')


def readme_commands() -> list[str]:
    """The ``regmon`` lines of README's "Command line" code block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.splitlines() if line.startswith("regmon ")]


def readme_transcript() -> str:
    """Run every README command, then its ``--json`` form, in a fresh
    directory, and record stdout and the exit code of each."""
    out: list[str] = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in readme_commands():
                argv = shlex.split(line)[1:]
                for extra in ([], ["--json"]):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv + extra)
                    shown = " ".join([line, *extra])
                    stdout = _TIMING.sub('"timing": "<masked>"', buf.getvalue())
                    out.append(f"$ {shown}\n{stdout}[exit {code}]\n")
        finally:
            os.chdir(cwd)
    return "".join(out)


def proof_text(form: str) -> str:
    actions, source = PROOF_CASES[form]
    alphabet = syntax.parse_alphabet(actions)
    term = syntax.parse_monitor(source, alphabet)
    pipeline = normalize.PIPELINES[cli.FORM_ALIASES[form]]
    cf = pipeline(term, alphabet, emit_proof=True)
    return prooflog.print_derivation(cf.derivation, vars_of(term) | vars_of(cf.term))


def proof_file(form: str) -> Path:
    return GOLDEN / "proofs" / f"{form}.compact.txt"


def fixture_file(form: str) -> Path:
    """The old-format proof of the case of ``form``: read, never written."""
    return GOLDEN / "proofs" / f"{form}.txt"


def test_readme_commands_match_golden_transcript():
    assert readme_commands(), "README has no regmon commands"
    assert readme_transcript() == README_TRANSCRIPT.read_text(encoding="utf-8")


def test_proof_cases_cover_every_form():
    assert sorted(PROOF_CASES) == sorted(cli.FORM_ALIASES)


def test_readme_lists_every_form_once():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Forms for `normalize` / `prove`", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`([a-z-]+)`", paragraph)) == sorted(cli.FORM_ALIASES)


@pytest.mark.parametrize("form", sorted(PROOF_CASES))
def test_proof_text_matches_golden(form):
    assert proof_text(form) == proof_file(form).read_text(encoding="utf-8")


@pytest.mark.parametrize("form", sorted(PROOF_CASES))
def test_golden_proof_parses_checks_and_prints_back(form):
    actions, source = PROOF_CASES[form]
    alphabet = syntax.parse_alphabet(actions)
    term = syntax.parse_monitor(source, alphabet)
    nf = normalize.PIPELINES[cli.FORM_ALIASES[form]](term, alphabet).term
    for path in (fixture_file(form), proof_file(form)):
        text = path.read_text(encoding="utf-8")
        derivation, variables = prooflog.parse_derivation(text)
        prooflog.check_derivation(derivation, Equation(term, nf))
        assert prooflog.print_derivation(derivation, variables) == text


def test_proof_digests_match_golden():
    assert digests_text() == DIGESTS.read_text(encoding="utf-8")


# The most steps that the digest corpus of each form may take in all: its
# total when the ceiling was set.  Regenerating ``digests.txt`` cannot hide a
# proof that grew.
STEP_CEILINGS = {
    "nf": 1206,
    "rnf": 2221,
    "omega": 1642,
    "open-nf": 2200,
    "open-rnf": 1969,
    "fin-rnf": 6729,
    "unary-rnf": 1978,
    "unary-omega": 1652,
    "open-omega": 6958,
}


@pytest.mark.parametrize("form", sorted(STEP_CEILINGS))
def test_digest_corpus_proofs_stay_under_their_step_ceiling(form):
    alphabet, terms = digest_corpus(form)
    pipeline = normalize.PIPELINES[cli.FORM_ALIASES[form]]
    steps = sum(len(pipeline(term, alphabet, emit_proof=True).derivation.steps) for term in terms)
    assert steps <= STEP_CEILINGS[form]


def cli_outputs() -> dict:
    """The README transcript, the proof digests and, per form, the proof
    file that ``regmon prove --emit-proof`` writes for the form's case."""
    proofs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "proof.txt")
        for form, (actions, source) in PROOF_CASES.items():
            argv = ["prove", "--form", form, "--alphabet", actions, source, "--emit-proof", path]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            proofs[form] = Path(path).read_text(encoding="utf-8")
    return {"readme": readme_transcript(), "digests": digests_text(), "proofs": proofs}


def test_output_does_not_depend_on_the_process():
    # Terms hash by identity, so the iteration order of a set of terms
    # follows memory addresses; nothing printed may depend on it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    script = "import json, test_golden; print(json.dumps(test_golden.cli_outputs()))"
    procs = []
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", script], env=dict(env), stdout=subprocess.PIPE, text=True
            )
        )
    for proc in procs:
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        got = json.loads(stdout)
        assert got["readme"] == README_TRANSCRIPT.read_text(encoding="utf-8")
        assert got["digests"] == DIGESTS.read_text(encoding="utf-8")
        for form, text in got["proofs"].items():
            assert text == proof_file(form).read_text(encoding="utf-8"), form


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` and print the path, unless it holds ``text``."""
    if path.exists() and path.read_text(encoding="utf-8") == text:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(path.resolve().relative_to(ROOT))


def _write_golden() -> None:
    import test_demos

    _write(README_TRANSCRIPT, readme_transcript())
    for form in PROOF_CASES:
        _write(proof_file(form), proof_text(form))
    _write(DIGESTS, digests_text())
    for script in test_demos.DEMOS:
        _write(test_demos.demo_golden(script), test_demos.demo_stdout(script))


if __name__ == "__main__":
    _write_golden()
