"""The derivation-scoped print and parse tables of the proof text format.

``print_derivation`` keeps a print table from each node of
``Derivation.shared`` to its name: it prints a ``let $N := term`` record for
the node just before the first step line that reaches it, and the name from
then on.  ``parse_derivation`` keeps a parse table from each name to its term
and from each side text to its term, reset on a header line.  These tests
hold both to the table-free definitions: ``print_monitor`` for every side
of a derivation without shared nodes, and, for every input, a parser that
reads each side with ``parse_monitor`` alone; and they bound the tables'
text, depth and memory.
"""

from __future__ import annotations

import dataclasses
import random
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import test_golden
from conftest import AB
from regmon import cli, normalize, prooflog, syntax
from regmon.generate import random_monitor
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
    shared_nodes,
)
from regmon.syntax import parse_equation, parse_monitor, print_monitor, print_term
from regmon.terms import NO, YES, Equation, Prefix, Sum, Var, nodes, size_of, summands, vars_of

# The golden proofs of both formats: ``<form>.compact.txt`` with ``ctx``,
# n-ary ``trans`` and ``let`` records, and the older ``<form>.txt``
# fixtures without them.
GOLDEN_PROOFS = sorted((Path(__file__).resolve().parent / "golden" / "proofs").glob("*.txt"))
GOLDEN_PROOFS = [p for p in GOLDEN_PROOFS if p.name != "digests.txt"]
GOLDEN_COMPACT = [p for p in GOLDEN_PROOFS if p.name.endswith(".compact.txt")]
FIXTURE_PROOFS = [p for p in GOLDEN_PROOFS if not p.name.endswith(".compact.txt")]


def _justification_without_tables(text, term):
    """``prooflog._parse_justification`` as it read justifications before
    an axiom binding given twice became an error, kept as the reference:
    no record that ``_mutate`` makes gives a binding twice."""
    text = text.strip()
    if text == "refl":
        return Reflexivity()
    head, paren, rest = text.partition("(")
    if not paren or not rest.endswith(")"):
        raise ValueError(f"malformed justification {text!r}")
    head = head.strip()
    args = rest[:-1]
    if head == "sym":
        return Symmetry(int(args))
    if head == "trans":
        sids = [int(arg) for arg in args.split(",")]
        if len(sids) < 2:
            raise ValueError("trans needs two steps or more")
        return Transitivity(*sids)
    if head == "ctx":
        return Context(int(args))
    if head == "sum":
        left, right = args.split(",")
        return CongruenceSum(int(left), int(right))
    if head == "prefix":
        action, sid = (p.strip() for p in args.split(","))
        return CongruencePrefix(action, int(sid))
    if head == "subst":
        sid_text, semi, mapping = args.partition(";")
        if not semi:
            raise ValueError("subst needs a mapping after ';'")
        return Substitutivity(int(sid_text), syntax.parse_substitution(mapping, term))
    if head == "axiom":
        groups = [g.strip() for g in args.split(";")]
        name = groups[0]
        bindings = []
        subst = ()
        for group in groups[1:]:
            if "->" in group:
                if subst:
                    raise ValueError("axiom takes one mapping")
                subst = syntax.parse_substitution(group, term)
            elif "=" in group:
                key, _, value = group.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "s":
                    bindings.append((key, syntax.parse_trace(value)))
                elif key == "k":
                    bindings.append((key, int(value)))
                else:
                    bindings.append((key, value))
            elif group:
                raise ValueError(f"malformed axiom argument {group!r}")
        return AxiomUse(name, tuple(sorted(bindings)), subst)
    raise ValueError(f"unknown justification {head!r}")


def _parse_without_tables(text: str) -> tuple[Derivation, frozenset[str]]:
    """The derivation file format read line by line, with every side and
    every ``let`` body given to ``parse_monitor`` (or ``parse_equation``)
    alone: the definition that ``parse_derivation`` memoises, down to its
    line-numbered errors."""
    system = alphabet = None
    variables: frozenset[str] = frozenset()
    names: dict = {}
    sizes: dict = {}
    steps = []

    def term(t):
        m = parse_monitor(t, alphabet, variables, names)
        if t.count("$") > 1 and size_of(m, sizes) > prooflog.TERM_LIMIT:
            raise ValueError(
                f"a term with its names spelled out is over {prooflog.TERM_LIMIT} nodes"
            )
        return m

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("system:"):
            system = line[len("system:") :].strip()
            continue
        if line.startswith("alphabet:"):
            alphabet = syntax.parse_alphabet(line[len("alphabet:") :])
            continue
        if line.startswith("vars:"):
            variables |= syntax.parse_vars(line[len("vars:") :])
            continue
        record = line.partition(" ")[0]
        if record not in ("let", "step"):
            raise ValueError(f"line {lineno}: expected a step record")
        if system is None or alphabet is None:
            raise ValueError(f"line {lineno}: {record} before system/alphabet headers")
        if record == "let":
            name, assign, body = line[len("let ") :].partition(":=")
            name = name.strip()
            if not assign or not re.fullmatch(r"\$[0-9]+", name):
                raise ValueError(f"line {lineno}: expected 'let $N := term'")
            if name in names:
                raise ValueError(f"line {lineno}: {name} is declared twice")
            try:
                names[name] = term(body)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            continue
        head, colon, body = line.partition(":")
        if not colon:
            raise ValueError(f"line {lineno}: missing ':'")
        sid_text = head[len("step ") :]
        try:
            sid = int(sid_text)
        except ValueError:
            raise ValueError(f"line {lineno}: step id {sid_text.strip()!r} is not a number") from None
        idx = len(body)
        last_error = None
        while True:
            idx = body.rfind(" by ", 0, idx)
            if idx < 0:
                raise ValueError(
                    f"line {lineno}: cannot parse step record"
                    + (f" ({last_error})" if last_error else "")
                )
            lhs, _, rhs = body[:idx].partition("=")
            try:
                try:
                    eq = Equation(term(lhs), term(rhs))
                except syntax.ParseError:
                    eq = parse_equation(body[:idx], alphabet, variables, names)
                just = _justification_without_tables(body[idx + 4 :], term)
            except ValueError as exc:
                last_error = exc
                continue
            steps.append(Step(sid, eq, just))
            break
    if system is None or alphabet is None:
        raise ValueError("missing system/alphabet headers")
    return Derivation(system, alphabet, tuple(steps), frozenset(names.values())), variables


def outcome(text: str, tables: bool = True):
    """What ``text`` parses to: the derivation and its variables, or the
    error's type and message.  ``tables=False`` parses it without the parse
    table."""
    try:
        return (parse_derivation if tables else _parse_without_tables)(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _named(derivation: Derivation) -> Derivation:
    """``derivation`` with the shared nodes that ``prove`` would name."""
    return dataclasses.replace(derivation, shared=shared_nodes(derivation.steps))


def _refl_steps(terms) -> Derivation:
    return Derivation(
        "Ev", AB, tuple(Step(i, Equation(m, m), Reflexivity()) for i, m in enumerate(terms, 1))
    )


def _bodies(m):
    """``m`` and the body of every prefix below it, outermost first."""
    out = [m]
    while isinstance(out[-1], Prefix):
        out.append(out[-1].body.right)
    return out


def _parsed_texts(text: str, monkeypatch) -> list[str]:
    """The texts that the term reader reads while ``text`` is parsed."""
    parsed = []
    reader = syntax.reader

    def counted(*bound):
        read = reader(*bound)

        def counted_read(source, equation=False):
            parsed.append(source)
            return read(source, equation)

        return counted_read

    monkeypatch.setattr(syntax, "reader", counted)
    parse_derivation(text)
    monkeypatch.setattr(syntax, "reader", reader)
    return parsed


# ---------------------------------------------------------------------------
# The print table


def test_print_table_records_the_side_its_summands_and_their_bodies():
    # A node in the table prints as its name wherever it sits: as the side,
    # as a summand, or as a body after a prefix chain.
    m = parse_monitor("a.b.(x + no) + yes + b.(a.yes + y)", AB)
    parts = list(summands(m))
    bodies = [parse_monitor(t, AB) for t in ("x + no", "a.yes + y")]
    for table, text in (
        ({m: "$1"}, "$1"),
        (dict(zip(parts, ("$1", "$2", "$3"))), "$1 + $2 + $3"),
        (dict(zip(bodies, ("$1", "$2"))), "a.b.$1 + yes + b.$2"),
        ({bodies[0]: "$1", parts[2]: "$2"}, "a.b.$1 + yes + $2"),
        ({Sum(parts[0], YES): "$1"}, "$1 + b.(a.yes + y)"),
    ):
        assert print_term(m, table) == text
        assert parse_monitor(text, AB, (), {v: k for k, v in table.items()}) is m


def _ladder(n: int) -> Derivation:
    """A step ``b = b`` for the nested term of depth ``n`` and for each body
    below it: the sides are the same nodes at every depth."""
    return _named(_refl_steps(_bodies(_nested(n))))


def test_print_table_stays_linear_on_nested_sums():
    derivation = _ladder(300)
    text = print_derivation(derivation, {"x"})
    # Without names the text would be quadratic in the depth: each side
    # restates every body below it.
    plain = print_derivation(dataclasses.replace(derivation, shared=frozenset()), {"x"})
    assert len(plain) > 40 * len(text)
    # One let per prefix node, each a few bytes: the sums below them are
    # reached once, as their bodies.
    assert text.count("let ") == len(derivation.shared) == 300
    assert len(text) < 60 * 300
    parsed, _ = parse_derivation(text)
    assert parsed == derivation


@pytest.mark.parametrize("path", GOLDEN_PROOFS, ids=lambda p: p.stem)
def test_golden_proof_prints_as_without_a_table(path):
    # A derivation without shared nodes prints each side as print_monitor
    # does; a fixture has no let records, so it prints back that way.
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
    plain = dataclasses.replace(derivation, shared=frozenset())
    assert print_derivation(plain, variables) == "\n".join(lines) + "\n"
    assert (path in FIXTURE_PROOFS) == (not derivation.shared)


@pytest.mark.parametrize("path", GOLDEN_COMPACT, ids=lambda p: p.stem)
def test_print_derivation_prints_no_side_that_its_table_holds(path):
    text = path.read_text(encoding="utf-8")
    derivation, variables = parse_derivation(text)
    held = []  # whether the table held it, for each term given to print_term

    def spy(m, names=None):
        held.append(m in names)
        return print_term(m, names)

    with mock.patch.object(syntax, "print_term", spy):
        assert print_derivation(derivation, variables) == text
    assert held and not any(held)


# ---------------------------------------------------------------------------
# The parse table against parse_monitor


def test_parse_table_stays_linear_on_nested_sums(monkeypatch):
    derivation = _ladder(300)
    text = print_derivation(derivation, {"x"})
    # Each let body is read once.  A step's sides are one name, which is
    # looked up, not read, but for the last step's: ``yes``, read once.
    parsed = _parsed_texts(text, monkeypatch)
    assert len(parsed) == len(derivation.shared) + 1
    assert sum(map(len, parsed)) < len(text) / 2


@pytest.mark.parametrize("path", GOLDEN_PROOFS, ids=lambda p: p.stem)
def test_golden_proof_parses_as_without_tables(path):
    text = path.read_text(encoding="utf-8")
    got = outcome(text)
    assert isinstance(got[0], Derivation)
    assert got == outcome(text, tables=False)


@pytest.mark.parametrize("form", sorted(test_golden.PROOF_CASES))
def test_digest_corpus_parses_as_without_tables(form):
    # Every proof of the corpus prints back byte for byte, with the same
    # steps and the same shared nodes.
    alphabet, terms = test_golden.digest_corpus(form)
    pipeline = normalize.PIPELINES[cli.FORM_ALIASES[form]]
    for term in terms:
        cf = pipeline(term, alphabet, emit_proof=True)
        text = print_derivation(cf.derivation, vars_of(term) | vars_of(cf.term))
        got = outcome(text)
        assert got[0] == cf.derivation
        assert print_derivation(*got) == text
        assert got == outcome(text, tables=False)


# On the fixtures, printed with the nodes that ``prove`` names: every prefix
# and sum node of the derivation is spelled out once, in a let or in the
# one side that reaches it, and read once.
@pytest.mark.parametrize("path", FIXTURE_PROOFS, ids=lambda p: p.stem)
def test_golden_proof_is_mostly_assembled_from_known_pieces(path, monkeypatch):
    derivation, variables = parse_derivation(path.read_text(encoding="utf-8"))
    named = _named(derivation)
    text = print_derivation(named, variables)
    spelled = sum(t.count(".") + t.count("+") for t in _parsed_texts(text, monkeypatch))
    reached = set()
    for step in derivation.steps:
        sides = [step.equation.lhs, step.equation.rhs]
        sides += [t for _, t in prooflog._mapping(step.justification)]
        reached.update(n for side in sides for n in nodes(side) if isinstance(n, (Prefix, Sum)))
    assert spelled == len(reached)
    assert parse_derivation(text) == (named, variables)


def test_a_new_nested_body_is_assembled_from_known_pieces(monkeypatch):
    # A let body and a side may use every name declared before them.
    head = "system: Ev\nalphabet: a,b\nvars: x\n"
    text = head + (
        "let $1 := x + yes\n"
        "let $2 := a.($1 + b.($1 + no))\n"
        "step 1: $2 + $1 = $2 + $1 by refl\n"
    )
    assert _parsed_texts(text, monkeypatch) == [" x + yes", " a.($1 + b.($1 + no))", " $2 + $1 "]
    derivation, _ = parse_derivation(text)
    side = parse_monitor("a.(x + yes + b.(x + yes + no)) + (x + yes)", AB)
    assert derivation.steps[0].equation == Equation(side, side)
    assert derivation.shared == {side.left, side.right}
    assert outcome(text) == outcome(text, tables=False)
    assert print_derivation(derivation, {"x"}) == text


def test_readme_example_is_what_prove_would_write():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    text = readme.split("### Derivation files", 1)[1].split("```\n", 2)[1]
    derivation, variables = parse_derivation(text)
    check_derivation(derivation)
    assert print_derivation(_named(derivation), variables) == text


def test_deep_new_nested_bodies_are_assembled_without_recursion():
    # Every prefix and sum of a 10^4-deep side is named, so the lets nest
    # 10^4 deep; printing, parsing and checking recurse on none of them.
    t = _nested(10_000)
    derivation = dataclasses.replace(
        _refl_steps([t, t]), shared=frozenset(n for n in nodes(t) if isinstance(n, (Prefix, Sum)))
    )
    text = print_derivation(derivation, {"x"})
    assert text.count("let ") == 2 * 10_000
    assert text.endswith("step 1: $20000 = $20000 by refl\nstep 2: $20000 = $20000 by refl\n")
    parsed, _ = parse_derivation(text)
    assert parsed == derivation
    check_derivation(parsed)


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
        char = rng.choice("()+.=,;#>- \tabxy1$")
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
            spots = list(re.finditer(r"(?:\w+\.)*\$?\w+", line))
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
    # Both formats: context steps, transitivity over more than two steps,
    # and let records.
    assert any(" by ctx(" in text for text in sources)
    assert any(re.search(r" by trans\(\d+(, \d+){2,}\)", text) for text in sources)
    assert any("\nlet $" in text for text in sources)
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


def _whole_proofs(form: str, tmp_path) -> list[str]:
    """What ``prove --emit-proof`` writes for ten seeded terms of 20 to 60
    nodes over the alphabet and variables of ``form``'s digest corpus."""
    alphabet_text = test_golden.PROOF_CASES[form][0]
    alphabet = syntax.parse_alphabet(alphabet_text)
    pool = () if form in ("nf", "rnf", "omega") else ("x", "y")
    rng = random.Random(f"whole:{form}")
    path = tmp_path / "proof.txt"
    texts = []
    while len(texts) < 10:
        term = random_monitor(rng, alphabet, 8, pool, 0.85)
        if 20 <= size_of(term) <= 60:
            argv = ["prove", print_monitor(term), "--form", form, "--alphabet", alphabet_text]
            assert cli.main([*argv, "--emit-proof", str(path)]) == 0
            texts.append(path.read_text(encoding="utf-8"))
    return texts


def _name_reach(text: str) -> int:
    """The most lines between a ``let`` and a later use of its name."""
    declared: dict[str, int] = {}
    reach = 0
    for i, line in enumerate(text.splitlines()):
        for name in re.findall(r"\$\d+", line.partition(":=")[2] if line.startswith("let ") else line):
            reach = max(reach, i - declared.get(name, i))
        if line.startswith("let "):
            declared[line.split()[1]] = i
    return reach


@pytest.mark.parametrize("form", sorted(test_golden.PROOF_CASES))
def test_whole_proofs_parse_as_without_tables(form, tmp_path, capsys):
    # Full proofs, where a step may use a name declared hundreds of lines
    # before it, as written and with one line edited: 450 edits over the
    # nine forms.
    texts = _whole_proofs(form, tmp_path)
    capsys.readouterr()
    assert max(map(_name_reach, texts)) >= 100
    for text in texts:
        got = outcome(text)
        assert isinstance(got[0], Derivation)
        assert got == outcome(text, tables=False)
    rng = random.Random(f"whole-mutations:{form}")
    kinds = {"derivation": 0, "error": 0}
    for _ in range(50):
        lines = rng.choice(texts).splitlines()
        i = rng.randrange(3, len(lines))
        lines[i] = _mutate(lines[i] + "\n", rng).rstrip("\n")
        text = "\n".join(lines) + "\n"
        got = outcome(text)
        assert got == outcome(text, tables=False), (i, lines[i])
        kinds["derivation" if isinstance(got[0], Derivation) else "error"] += 1
    assert min(kinds.values()) > 5, kinds


def test_table_rejects_pieces_that_do_not_print_back():
    # Each later side is spelled otherwise than a side seen before, or means
    # otherwise, so the parse table does not answer for it.
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
    # As built, and with the nodes that ``prove`` would name.
    for d in (derivation, _named(derivation)):
        text = print_derivation(d, {"x", "y", "z"})
        parsed, _ = parse_derivation(text)
        assert parsed == d
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
    # text per distinct side, and the reader takes each token as it scans
    # it, so what is left of the peak is the nodes of each distinct side
    # and the lines of the text: the eight steps alone (1.44 MB of text)
    # and with 24 more that repeat a step (5.3 MB) both stay under the
    # bound.
    for repeats in (0, 24):
        derivation = _derivation(_nested(10_000), repeats)
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
        assert printing <= 4 * len(text), (repeats, printing, len(text))
        assert parsing <= 4 * len(text), (repeats, parsing, len(text))
