"""Golden output: README command transcripts and one proof text per form.

The files under ``tests/golden/`` pin the exact text that the CLI prints for
every ``regmon`` line of README's "Command line" block (plain and with
``--json``, the ``timing`` field masked), the exact derivation text of one
small term per canonical form, and one sha256 per form over the derivations
and pure normal forms of a seeded corpus of random terms
(``proofs/digests.txt``).  A refactor that claims to keep behaviour must
keep all three byte for byte.

To regenerate the files after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root and
review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import shlex
import tempfile
from pathlib import Path

import pytest

from regmon import cli, normalize, prooflog, syntax
from regmon.generate import random_monitor
from regmon.terms import vars_of

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
    "open-omega": _O2_TERMS,
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


def proof_digest(form: str) -> str:
    """sha256 over each corpus term, its derivation and its pure normal form."""
    alphabet, terms = digest_corpus(form)
    pipeline = normalize.PIPELINES[cli.FORM_ALIASES[form]]
    h = hashlib.sha256()
    for term in terms:
        cf = pipeline(term, alphabet, emit_proof=True)
        pure = pipeline(term, alphabet).term
        names = vars_of(term) | vars_of(cf.term)
        for text in (
            syntax.print_monitor(term),
            prooflog.print_derivation(cf.derivation, names),
            syntax.print_monitor(pure),
        ):
            h.update(text.encode("utf-8") + b"\0")
    return h.hexdigest()


def digests_text() -> str:
    return "".join(f"{form} {proof_digest(form)}\n" for form in sorted(PROOF_CASES))


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
    return GOLDEN / "proofs" / f"{form}.txt"


def test_readme_commands_match_golden_transcript():
    assert readme_commands(), "README has no regmon commands"
    assert readme_transcript() == README_TRANSCRIPT.read_text(encoding="utf-8")


def test_proof_cases_cover_every_form():
    assert sorted(PROOF_CASES) == sorted(cli.FORM_ALIASES)


@pytest.mark.parametrize("form", sorted(PROOF_CASES))
def test_proof_text_matches_golden(form):
    assert proof_text(form) == proof_file(form).read_text(encoding="utf-8")


def test_proof_digests_match_golden():
    assert digests_text() == DIGESTS.read_text(encoding="utf-8")


def _write_golden() -> None:
    README_TRANSCRIPT.parent.mkdir(parents=True, exist_ok=True)
    README_TRANSCRIPT.write_text(readme_transcript(), encoding="utf-8")
    for form in PROOF_CASES:
        proof_file(form).parent.mkdir(parents=True, exist_ok=True)
        proof_file(form).write_text(proof_text(form), encoding="utf-8")
    DIGESTS.write_text(digests_text(), encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
