"""Each demo runs, and its stdout matches ``tests/golden/demos/<script>.txt``
byte for byte (``PYTHONPATH=src python tests/test_golden.py`` writes them)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import regmon

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"
# The demos import the package that the tests import, installed or not.
SRC = str(Path(regmon.__file__).resolve().parent.parent)


def demo_golden(script: Path) -> Path:
    return GOLDEN / f"{script.stem}.txt"


def demo_stdout(script: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=180, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    stdout = demo_stdout(script)
    assert stdout.strip()
    assert stdout == demo_golden(script).read_text(encoding="utf-8")


def test_every_demo_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]
