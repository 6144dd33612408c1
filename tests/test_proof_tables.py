"""The derivation-scoped print and parse tables of the proof text format.

``print_derivation`` prints every side through one print table, and
``parse_derivation`` assembles a side it has not seen from known pieces,
keeping the result only if it prints back to exactly its text.  These tests
hold both tables to the table-free definitions: ``print_monitor`` for every
term, and ``parse_monitor`` for every side, with the same derivation or the
same error message on every input, and they bound the tables' depth and
memory.
"""

from __future__ import annotations

import contextlib
import random
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import test_golden
from conftest import AB
from regmon import cli, normalize, prooflog, syntax
from regmon.prooflog import (
    AxiomUse,
    CongruencePrefix,
    CongruenceSum,
    Derivation,
    Reflexivity,
    Step,
    Context,
    Substitutivity,
    Symmetry,
    Transitivity,
    check_derivation,
    parse_derivation,
    print_derivation,
)
from regmon.syntax import parse_monitor, print_monitor, print_term
from regmon.terms import NO, YES, Equation, Prefix, Sum, Var, summands, vars_of

# The golden proofs of both formats: ``<form>.compact.txt`` with ``ctx`` and
# n-ary ``trans`` steps, and the older ``<form>.txt`` fixtures without them.
GOLDEN_PROOFS = sorted((Path(__file__).resolve().parent / "golden" / "proofs").glob("*.txt"))
GOLDEN_PROOFS = [p for p in GOLDEN_PROOFS if p.name != "digests.txt"]
GOLDEN_COMPACT = [p for p in GOLDEN_PROOFS if p.name.endswith(".compact.txt")]
FIXTURE_PROOFS = [p for p in GOLDEN_PROOFS if not p.name.endswith(".compact.txt")]


def _plain_term(table, text):
    return parse_monitor(text, table.alphabet, table.variables)


def outcome(text: str, tables: bool = True):
    """What ``parse_derivation`` makes of ``text``: the derivation and its
    variables, or the error's type and message.  ``tables=False`` parses
    every side with ``parse_monitor`` alone."""
    patch = (
        contextlib.nullcontext()
        if tables
        else mock.patch.object(prooflog._TermTable, "term", _plain_term)
    )
    with patch:
        try:
            return parse_derivation(text)
        except ValueError as exc:
            return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# The print table


def test_print_table_records_the_side_its_summands_and_their_bodies():
    m = parse_monitor("a.b.(x + no) + yes + b.(a.yes + y)", AB)
    table: dict = {}
    assert print_term(m, table) == print_monitor(m)
    parts = list(summands(m))
    bodies = [parse_monitor(t, AB) for t in ("x + no", "a.yes + y")]
    assert set(table) == {m, *parts, *bodies}
    assert all(table[n] == print_monitor(n) for n in table)
    # A later term is walked only down to what the table holds.
    bigger = Sum(Prefix("a", m), m)
    assert print_term(bigger, table) == print_monitor(bigger)
    assert table[bigger] == print_monitor(bigger)


def test_print_table_stays_linear_on_nested_sums():
    m = _nested(300)
    table: dict = {}
    text = print_term(m, table)
    assert text == print_monitor(m)
    # The side (its own only summand) and the body after its prefix chain.
    assert len(table) == 2
    assert sum(map(len, table.values())) < 2 * len(text)


@pytest.mark.parametrize("path", GOLDEN_PROOFS, ids=lambda p: p.stem)
def test_golden_proof_prints_as_without_a_table(path):
    derivation, variables = parse_derivation(path.read_text(encoding="utf-8"))
    lines = [f"system: {derivation.system}", f"alphabet: {derivation.alphabet}"]
    if variables:
        lines.append(f"vars: {', '.join(sorted(variables))}")
    for step in derivation.steps:
        lines.append(
            f"step {step.sid}: {print_monitor(step.equation.lhs)} = "
            f"{print_monitor(step.equation.rhs)}"
            f" by {prooflog.print_justification(step.justification)}"
        )
    assert print_derivation(derivation, variables) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", GOLDEN_COMPACT, ids=lambda p: p.stem)
def test_print_derivation_prints_no_side_that_its_table_holds(path):
    text = path.read_text(encoding="utf-8")
    derivation, variables = parse_derivation(text)
    sides = []  # whether the table held it, for each side given to print_term

    def spy(m, table=None, texts=None):
        if sys._getframe(1).f_code is print_derivation.__code__:
            sides.append(m in table)
        return print_term(m, table, texts)

    with mock.patch.object(syntax, "print_term", spy):
        assert print_derivation(derivation, variables) == text
    assert sides and not any(sides)


# ---------------------------------------------------------------------------
# The parse table against parse_monitor


def test_parse_table_stays_linear_on_nested_sums():
    text = print_monitor(_nested(300))
    table = prooflog._TermTable(AB, frozenset())
    assert table.term(text) == _nested(300)
    assert table.term(f"{text} + yes") == Sum(_nested(300), YES)
    # Both sides, the nested term as the summand of the second, and the body
    # after its prefix chain; the leaf ``yes`` costs nothing.
    assert sum(map(len, table.terms)) < 4 * len(text)
    assert len(table.texts) == len(table.terms) <= 5


@pytest.mark.parametrize("path", GOLDEN_PROOFS, ids=lambda p: p.stem)
def test_golden_proof_parses_as_without_tables(path):
    text = path.read_text(encoding="utf-8")
    got = outcome(text)
    assert isinstance(got[0], Derivation)
    assert got == outcome(text, tables=False)


@pytest.mark.parametrize("form", sorted(test_golden.PROOF_CASES))
def test_digest_corpus_parses_as_without_tables(form):
    alphabet, terms = test_golden.digest_corpus(form)
    pipeline = normalize.PIPELINES[cli.FORM_ALIASES[form]]
    for term in terms:
        cf = pipeline(term, alphabet, emit_proof=True)
        text = print_derivation(cf.derivation, vars_of(term) | vars_of(cf.term))
        got = outcome(text)
        assert got[0] == cf.derivation
        assert got == outcome(text, tables=False)


# On the fixtures: the compact omega proofs are three and five steps long, and
# the first side alone is over a tenth of their text.
@pytest.mark.parametrize("path", FIXTURE_PROOFS, ids=lambda p: p.stem)
def test_golden_proof_is_mostly_assembled_from_known_pieces(path, monkeypatch):
    text = path.read_text(encoding="utf-8")
    parsed = []
    parse = syntax.parse_monitor

    def counted(source, *args):
        parsed.append(source)
        return parse(source, *args)

    monkeypatch.setattr(syntax, "parse_monitor", counted)
    parse_derivation(text)
    # The first sides and the summands new to a step; 0.3% on fin-rnf.
    assert sum(map(len, parsed)) < 0.1 * len(text)


def _parsed_texts(text: str, monkeypatch) -> list[str]:
    """The texts that ``parse_monitor`` reads while ``text`` is parsed."""
    parsed = []
    parse = syntax.parse_monitor

    def counted(source, *args):
        parsed.append(source)
        return parse(source, *args)

    monkeypatch.setattr(syntax, "parse_monitor", counted)
    parse_derivation(text)
    monkeypatch.setattr(syntax, "parse_monitor", parse)
    return parsed


def test_a_new_nested_body_is_assembled_from_known_pieces(monkeypatch):
    # After the first side, ``x + yes`` is known; both bodies are new, and
    # each is that spine plus one summand, so only the new leaf is parsed.
    head = "system: Ev\nalphabet: a,b\nvars: x\nstep 1: x + yes = x + yes by refl\n"
    side = "a.(x + yes + b.(x + yes + no))"
    text = head + f"step 2: {side} = {side} by refl\n"
    assert _parsed_texts(text, monkeypatch) == [" x + yes ", "no"]
    assert outcome(text) == outcome(text, tables=False)


def test_deep_new_nested_bodies_are_assembled_without_recursion(monkeypatch):
    # Every body of the 10^4-deep side is new and starts with the known
    # ``x``, so the stack of ``_TermTable._summand`` goes 10^4 bodies deep.
    t = _nested(10_000)
    side = print_monitor(t)
    text = (
        "system: Ev\nalphabet: a,b\nvars: x\nstep 1: x + yes = x + yes by refl\n"
        f"step 2: {side} = {side} by refl\n"
    )
    assert _parsed_texts(text, monkeypatch) == [" x + yes "]
    parsed, _ = parse_derivation(text)
    assert parsed.steps[-1].equation == Equation(t, t)


_WORDS = ("a", "b", "c", "x", "y", "yes", "no", "end")
_WORD_RE = re.compile(r"\b(?:a|b|x|y|yes|no|end)\b")
_HEADERS = (
    "vars: x",
    "vars: y, a",
    "vars: by",
    "alphabet: a",
    "alphabet: a,b",
    "alphabet: a,b,c",
    "alphabet: infinite",
)
_SPACINGS = ("+", "+ ", " +", "  +  ", "\t+ ", " +\t")


def _mutate(text: str, rng: random.Random) -> str:
    """One random edit: characters, lines, headers, spacing, words or parentheses."""
    kind = rng.randrange(10)
    if kind == 0:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1 :]
    if kind in (1, 2):
        i = rng.randrange(len(text) + 1)
        char = rng.choice("()+.=,;#>- \tabxy1")
        return text[:i] + char + text[i + (kind == 1) :]
    lines = text.splitlines()
    if kind == 3:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 4:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_HEADERS))
    elif kind == 5:
        i = rng.randrange(len(lines))
        lines[i] += rng.choice(("  # note", "\t", " "))
    else:
        i = rng.randrange(len(lines))
        line = lines[i]
        if kind == 6:
            spots = [m.start() for m in re.finditer(r" \+ ", line)]
            if spots:
                k = rng.choice(spots)
                line = line[:k] + rng.choice(_SPACINGS) + line[k + 3 :]
        elif kind == 7:
            spots = list(_WORD_RE.finditer(line))
            if spots:
                m = rng.choice(spots)
                line = line[: m.start()] + rng.choice(_WORDS) + line[m.end() :]
        elif kind == 8:
            # Parenthesize a run of prefixes and a word: ``( a.yes )``.
            spots = list(re.finditer(r"(?:\w+\.)*\w+", line))
            if spots:
                m = rng.choice(spots)
                inner = m.group()
                wrapped = rng.choice((f"({inner})", f"( {inner} )", f"(({inner}))"))
                line = line[: m.start()] + wrapped + line[m.end() :]
        else:
            # Drop a matching pair of parentheses.
            opens = [k for k, c in enumerate(line) if c == "("]
            if opens:
                start = rng.choice(opens)
                depth = 0
                for end in range(start, len(line)):
                    depth += {"(": 1, ")": -1}.get(line[end], 0)
                    if depth == 0:
                        line = line[:start] + line[start + 1 : end] + line[end + 1 :]
                        break
        lines[i] = line
    return "\n".join(lines) + "\n"


def _mutation_sources() -> list[str]:
    texts = [p.read_text(encoding="utf-8") for p in GOLDEN_PROOFS]
    # The fin-rnf proofs have thousands of steps; their first 40 lines are enough.
    return ["\n".join(t.splitlines()[:40]) + "\n" for t in texts]


def test_mutated_proofs_parse_as_without_tables():
    rng = random.Random(2006)
    sources = _mutation_sources()
    # Both formats: context steps and transitivity over more than two steps.
    assert any(" by ctx(" in text for text in sources)
    assert any(re.search(r" by trans\(\d+(, \d+){2,}\)", text) for text in sources)
    kinds = {"derivation": 0, "error": 0}
    for _ in range(2400):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        got = outcome(text)
        assert got == outcome(text, tables=False), text
        kinds["derivation" if isinstance(got[0], Derivation) else "error"] += 1
    # Both outcomes occur often enough to mean something.
    assert min(kinds.values()) > 300, kinds


def test_table_rejects_pieces_that_do_not_print_back():
    # Every piece of each later side is known, but the sides are spelled
    # otherwise or mean otherwise, so parse_monitor decides.
    head = "system: Ev\nalphabet: a,b\nvars: x\nstep 1: x + a.(yes + no) = x + a.(yes + no) by refl\n"
    for side in (
        "x+a.(yes + no)",
        "x + (a.(yes + no))",
        "x + a.((yes + no))",
        "(x + a.(yes + no))",
        "x + a.yes + no",
        "yes + no + x",
        "a.(yes + no) + x",
        "x.(yes + no)",
        "yes.(yes + no)",
        "x + a.(yes + no",
    ):
        text = head + f"step 2: {side} = {side} by refl\n"
        assert outcome(text) == outcome(text, tables=False), side


# ---------------------------------------------------------------------------
# Depth and memory


def _chain(n: int):
    m = YES
    for i in range(n):
        m = Prefix("ab"[i % 2], m)
    return m


def _wide(n: int):
    leaves = (YES, NO, Var("x"), Prefix("a", YES), Prefix("b", Var("y")))
    m = leaves[0]
    for i in range(1, n):
        m = Sum(m, leaves[i % len(leaves)])
    return m


def _nested(n: int):
    """``a.(x + a.(x + ... a.(x + yes)))``, ``n`` prefixes deep."""
    m = YES
    for _ in range(n):
        m = Prefix("a", Sum(Var("x"), m))
    return m


def _derivation(t, repeats: int = 0) -> Derivation:
    """Eight steps of every kind over the side ``t``, then ``repeats`` more
    steps that repeat step 2 by transitivity."""
    z = Var("z")
    steps = (
        Step(1, Equation(t, t), Reflexivity()),
        Step(2, Equation(Sum(t, YES), Sum(YES, t)), AxiomUse("A1", (), (("x", t), ("y", YES)))),
        Step(3, Equation(Sum(YES, t), Sum(t, YES)), Symmetry(2)),
        Step(4, Equation(Sum(t, YES), Sum(t, YES)), Transitivity(2, 3)),
        Step(5, Equation(Prefix("a", Sum(t, YES)), Prefix("a", Sum(t, YES))), CongruencePrefix("a", 4)),
        Step(6, Equation(Sum(t, Sum(t, YES)), Sum(t, Sum(t, YES))), CongruenceSum(1, 4)),
        Step(7, Equation(Sum(z, YES), Sum(YES, z)), AxiomUse("A1", (), (("x", z), ("y", YES)))),
        Step(8, Equation(Sum(t, YES), Sum(YES, t)), Substitutivity(7, (("z", t),))),
    )
    steps += tuple(
        Step(sid, Equation(Sum(t, YES), Sum(YES, t)), Transitivity(4, 2))
        for sid in range(9, 9 + repeats)
    )
    return Derivation("Ev", AB, steps)


@pytest.mark.parametrize("make", [_chain, _wide, _nested], ids=["chain", "sum", "nested"])
def test_deep_sides_round_trip_without_recursion(make):
    derivation = _derivation(make(10_000))
    check_derivation(derivation)
    text = print_derivation(derivation, {"x", "y", "z"})
    parsed, _ = parse_derivation(text)
    assert parsed == derivation
    check_derivation(parsed)


@pytest.mark.parametrize("make", [_chain, _wide, _nested], ids=["chain", "sum", "nested"])
def test_deep_context_and_long_chain_steps_round_trip(make):
    # A context step beside a 10^4-deep side, and transitivity over nine
    # steps, parsed with the tables and without them.
    t = make(10_000)
    yn, ny = Sum(YES, NO), Sum(NO, YES)
    steps = (
        Step(1, Equation(yn, ny), AxiomUse("A1", (), (("x", YES), ("y", NO)))),
        Step(2, Equation(ny, yn), Symmetry(1)),
        Step(3, Equation(Sum(t, yn), Sum(t, ny)), Context(1)),
        Step(4, Equation(yn, ny), Transitivity(1, 2, 1, 2, 1, 2, 1, 2, 1)),
    )
    derivation = Derivation("Ev", AB, steps)
    check_derivation(derivation)
    text = print_derivation(derivation, {"x", "y"})
    assert " by ctx(1)\n" in text and " by trans(1, 2, 1, 2, 1, 2, 1, 2, 1)\n" in text
    assert outcome(text) == outcome(text, tables=False) == (derivation, {"x", "y"})


def test_nested_sum_tables_stay_within_four_times_the_text():
    # A table that kept the text of every nested node would hold about
    # depth / 2 times the side's text, some 400 MB here.  The tables keep a
    # few texts per side.  What is left of the peak is the parser's own
    # token list for the one full parse of the 80 kB side, about 94 bytes
    # per character, and the lines of the text; the 24 repeated steps make
    # the text long enough for that constant to fit under the bound.
    derivation = _derivation(_nested(10_000), repeats=24)
    tracemalloc.start()
    try:
        text = print_derivation(derivation, {"x", "z"})
        _, printing = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        parsed, _ = parse_derivation(text)
        parsing = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert parsed == derivation
    assert printing <= 4 * len(text), (printing, len(text))
    assert parsing <= 4 * len(text), (parsing, len(text))
