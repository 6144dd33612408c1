"""Concrete syntax: parsing and printing of monitors, equations and tables.

Grammar::

    term    ::= prefterm ('+' prefterm)*          # '+' associates left
    prefterm::= ACTION '.' prefterm | atom        # '.' binds tighter, right
    atom    ::= 'yes' | 'no' | 'end' | IDENT | NAME | '(' term ')'
    NAME    ::= '$' DIGITS

Identifiers that belong to the alphabet parse as actions; all others parse
as variables.  With an open-ended alphabet the variables must be declared
explicitly and every other identifier is an action.  A ``NAME`` stands for
the term that a map from names to terms gives it (derivation files declare
them); ``$`` is no identifier character, so no action or variable takes it.
``#`` starts a line comment in every file format.

One function reads the grammar: :func:`parse_monitor` and
:func:`parse_equation` are its two entries.  The trace text (``a b``,
``<eps>``) and the substitution text (``x -> t, y -> u``) of the command
line and the derivation files are printed and read here too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .terms import (
    END,
    IDENT_PATTERN,
    NO,
    RESERVED_WORDS,
    YES,
    Alphabet,
    Equation,
    Monitor,
    Prefix,
    Sum,
    Trace,
    Var,
    is_identifier,
)

UNEXPECTED_TOKEN = "UnexpectedToken"
RESERVED_WORD_AS_ACTION = "ReservedWordAsAction"
UNBALANCED_PAREN = "UnbalancedParen"
EMPTY_INPUT = "EmptyInput"
UNDECLARED_NAME = "UndeclaredName"


@dataclass(frozen=True, slots=True)
class SourceSpan:
    line: int
    column: int
    offset: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(ValueError):
    def __init__(self, span: SourceSpan, kind: str, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.kind = kind
        self.message = message


# ---------------------------------------------------------------------------
# Tokenizer

# One alternative per token class, tried in order: whitespace and comments
# (skipped), identifiers, operators, names, and any other character (an
# error).
_TOKEN_RE = re.compile(
    rf"([ \t\r\n]+|#[^\n]*)|({IDENT_PATTERN})|(->|[+.()=,])|(\$[0-9]+)|(.)", re.DOTALL
)

# A token is ``(kind, text, offset)``: kind is 'ident', the operator itself
# ('+', '.', '(', ')', '=', '->', ','), 'name', or 'eof'.
_Token = tuple[str, str, int]


def _span(text: str, offset: int, length: int) -> SourceSpan:
    """The line and column of ``offset``; only error paths need them."""
    start = text.rfind("\n", 0, offset) + 1
    # Only the end of input can follow a comment on its line; its column is
    # where the comment starts.
    comment = text.find("#", start, offset)
    column = (offset if comment < 0 else comment) - start + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, column, offset, length)


def _error(text: str, tok: _Token, kind: str, message: str) -> ParseError:
    _, word, offset = tok
    return ParseError(_span(text, offset, len(word)), kind, message)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group == 2:
            append(("ident", match[2], match.start()))
        elif group == 3:
            op = match[3]
            append((op, op, match.start()))
        elif group == 4:
            append(("name", match[4], match.start()))
        elif group == 5:
            raise ParseError(
                _span(text, match.start(), 1),
                UNEXPECTED_TOKEN,
                f"unexpected character {match[5]!r}",
            )
    append(("eof", "", len(text)))
    return tokens


# A map from each ``$N`` that a text may use to its term.
Names = Mapping[str, Monitor] | None


def _parse(
    text: str, alphabet: Alphabet, variables: frozenset[str], names: Names, equation: bool
) -> Monitor | Equation:
    """The ``term``, or with ``equation`` the ``term '=' term``, that spans
    ``text``, read without recursion after the whole text is tokenized.

    ``frames`` holds, for every open parenthesis, the sum parsed so far and
    the actions prefixed to the parenthesis.
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "eof":
        raise ParseError(SourceSpan(1, 1, 0, 0), EMPTY_INPUT, "empty input")
    names = names or {}

    def is_action(word: str) -> bool:
        if alphabet.is_finite:
            return word in alphabet
        return word not in variables

    def fail(tok: _Token, message: str, kind: str = UNEXPECTED_TOKEN):
        raise _error(text, tok, kind, message)

    pos = 0
    lhs: Monitor | None = None
    frames: list[tuple[Monitor | None, list[str]]] = []
    acc: Monitor | None = None
    prefixes: list[str] = []
    while True:
        # prefterm: a run of ACTION '.', then an atom.
        tok = tokens[pos]
        kind, word, _ = tok
        while kind == "ident" and word not in RESERVED_WORDS and tokens[pos + 1][0] == ".":
            if not is_action(word):
                fail(tok, f"variable {word!r} cannot be used as a prefix")
            prefixes.append(word)
            pos += 2
            tok = tokens[pos]
            kind, word, _ = tok
        pos += 1
        if kind == "ident":
            if word == "yes":
                term = YES
            elif word == "no":
                term = NO
            elif word == "end":
                term = END
            elif is_action(word):
                fail(tok, f"action {word!r} must be followed by '.'")
            else:
                term = Var(word)
        elif kind == "name":
            term = names.get(word)
            if term is None:
                fail(tok, f"undeclared name {word!r}", UNDECLARED_NAME)
        elif kind == "(":
            frames.append((acc, prefixes))
            acc, prefixes = None, []
            continue
        elif kind == ")":
            fail(tok, "unmatched ')'", UNBALANCED_PAREN)
        elif kind == "eof":
            fail(tok, "unexpected end of input")
        else:
            fail(tok, f"unexpected token {word!r}")
        # The atom is complete: prefix it, add it to the sum, and close every
        # parenthesis that ends here.  At the end of a term, read the '=' of
        # an equation or the end of input.
        while True:
            for action in reversed(prefixes):
                term = Prefix(action, term)
            prefixes = []
            acc = term if acc is None else Sum(acc, term)
            tok = tokens[pos]
            pos += 1
            if tok[0] == "+":
                break
            if frames:
                if tok[0] != ")":
                    fail(tok, "expected ')'", UNBALANCED_PAREN)
                term = acc
                acc, prefixes = frames.pop()
            elif equation and lhs is None:
                if tok[0] != "=":
                    fail(tok, f"expected '=', found {tok[1] or 'end of input'!r}")
                lhs, acc = acc, None
                break
            elif tok[0] != "eof":
                fail(tok, f"trailing input starting at {tok[1]!r}")
            else:
                return Equation(lhs, acc) if equation else acc


def parse_monitor(
    text: str, alphabet: Alphabet, variables: Iterable[str] = (), names: Names = None
) -> Monitor:
    """Parse a single monitor term.

    ``variables`` declares the variable names for open-ended alphabets; with
    a finite alphabet every identifier outside the alphabet is a variable.
    ``names`` maps each ``$N`` that the text may use to its term.
    """
    return _parse(text, alphabet, frozenset(variables), names, False)


def parse_equation(
    text: str, alphabet: Alphabet, variables: Iterable[str] = (), names: Names = None
) -> Equation:
    """Parse ``term = term``, as :func:`parse_monitor` parses each term."""
    return _parse(text, alphabet, frozenset(variables), names, True)


def parse_alphabet(text: str) -> Alphabet:
    """``infinite`` or a comma-separated list of action names."""
    stripped = text.strip()
    if stripped == "infinite":
        return Alphabet.open_ended()
    if not stripped:
        raise ParseError(SourceSpan(1, 1, 0, 0), EMPTY_INPUT, "empty alphabet")
    tokens = _tokenize(text)
    names: list[str] = []
    i = 0
    while True:
        tok = tokens[i]
        kind, name, _ = tok
        if kind != "ident":
            raise _error(text, tok, UNEXPECTED_TOKEN, "expected an action name")
        if name in RESERVED_WORDS:
            raise _error(
                text, tok, RESERVED_WORD_AS_ACTION, f"{name!r} cannot be declared as an action"
            )
        if name in names:
            raise _error(text, tok, UNEXPECTED_TOKEN, f"duplicate action {name!r}")
        names.append(name)
        i += 1
        if tokens[i][0] == "eof":
            break
        if tokens[i][0] != ",":
            raise _error(text, tokens[i], UNEXPECTED_TOKEN, "expected ','")
        i += 1
    return Alphabet.finite(names)


def parse_trace(text: str) -> Trace:
    """Space-separated action names; ``<eps>`` denotes the empty trace."""
    stripped = text.strip()
    if stripped in ("<eps>", ""):
        return ()
    parts = tuple(stripped.split())
    for p in parts:
        if not is_identifier(p) or p in RESERVED_WORDS:
            raise ParseError(
                SourceSpan(1, 1, 0, len(text)), UNEXPECTED_TOKEN, f"bad action {p!r}"
            )
    return parts


def print_trace(trace: Trace) -> str:
    return " ".join(trace) if trace else "<eps>"


def parse_vars(text: str) -> frozenset[str]:
    """Comma-separated variable names, as ``--vars`` and the ``vars:`` headers
    of term and derivation files give them."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    for n in names:
        if not is_identifier(n) or n in RESERVED_WORDS:
            raise ParseError(
                SourceSpan(1, 1, 0, len(n)), UNEXPECTED_TOKEN, f"bad variable name {n!r}"
            )
    return frozenset(names)


def print_substitution(
    pairs: Iterable[tuple[str, Monitor]], show: Callable[[Monitor], str] | None = None
) -> str:
    """``x -> t, y -> u`` for the given pairs, in the order given; ``show``
    prints each term (:func:`print_term` by default)."""
    show = show or print_term
    return ", ".join(f"{name} -> {show(term)}" for name, term in pairs)


def parse_substitution(text: str, term: Callable[[str], Monitor]) -> tuple[tuple[str, Monitor], ...]:
    """The pairs of ``x -> t, y -> u``, sorted by variable; ``term`` parses
    each term.  The term grammar has no ',', so the text splits into its
    pairs exactly."""
    out: dict[str, Monitor] = {}
    text = text.strip()
    if not text:
        return ()
    for part in text.split(","):
        name, arrow, term_text = part.partition("->")
        if not arrow:
            raise ValueError(f"expected 'x -> term' in {part!r}")
        name = name.strip()
        if name in out:
            raise ValueError(f"variable {name!r} is mapped twice")
        out[name] = term(term_text)
    return tuple(sorted(out.items(), key=lambda pair: pair[0]))


# ---------------------------------------------------------------------------
# Term files


@dataclass(slots=True)
class TermFile:
    """A parsed monitor file: optional headers plus named or bare terms."""

    alphabet: Alphabet | None = None
    variables: frozenset[str] = frozenset()
    terms: dict[str, Monitor] = field(default_factory=dict)

    def single(self) -> Monitor:
        if len(self.terms) != 1:
            raise ValueError(
                f"expected exactly one term, file defines {len(self.terms)}"
            )
        return next(iter(self.terms.values()))


class AlphabetConflict(ValueError):
    """A term file's ``alphabet:`` header disagrees with the given alphabet."""


def parse_term_file(text: str, alphabet: Alphabet | None = None) -> TermFile:
    """Parse a monitor file.

    Recognized headers: ``alphabet: a,b`` (or ``infinite``) and ``vars: x,y``.
    Each remaining nonempty line is either ``name := term`` or a bare term
    (named ``_1``, ``_2``, ... in order).  A given ``alphabet`` governs the
    terms; an ``alphabet:`` header that names another raises
    :class:`AlphabetConflict`.
    """
    out = TermFile(alphabet=alphabet)
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            declared = parse_alphabet(line[len("alphabet:") :])
            if alphabet is not None and declared != alphabet:
                raise AlphabetConflict(
                    f"the file declares alphabet {declared}, but {alphabet} was given"
                )
            out.alphabet = declared
            continue
        if line.startswith("vars:"):
            out.variables = out.variables | parse_vars(line[len("vars:") :])
            continue
        body.append(line)
    if out.alphabet is None:
        raise ValueError("no alphabet: give one in the file or on the command line")
    counter = 0
    for line in body:
        if ":=" in line:
            name, _, term_text = line.partition(":=")
            name = name.strip()
        else:
            counter += 1
            name, term_text = f"_{counter}", line
        out.terms[name] = parse_monitor(term_text, out.alphabet, out.variables)
    return out


# ---------------------------------------------------------------------------
# Printing


_LEAF_TEXT = {END: "end", YES: "yes", NO: "no"}


def print_term(m: Monitor, names: Mapping[Monitor, str] | None = None) -> str:
    """The text of ``m``, where a node in ``names`` prints as its name.

    A loop over an explicit stack of pending terms and literal text, so that
    no nesting depth recurses.  A prefix chain prints as one run of ``a.``;
    ``+`` parses left-associated, so a sum prints its left spine flat, and
    only a sum that is a right operand or a prefix body gets parentheses.  A
    name is an atom and needs none.
    """
    names = names or {}
    out: list[str] = []
    append = out.append
    # Literal text, or (node, parenthesize).
    stack: list = [(m, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            append(item)
            continue
        m, paren = item
        name = names.get(m)
        if name is not None:
            append(name)
        elif isinstance(m, Prefix):
            actions = []
            while isinstance(m, Prefix) and m not in names:
                actions.append(m.action)
                m = m.body
            append(".".join(actions) + ".")
            stack.append((m, True))
        elif isinstance(m, Sum):
            if paren:
                append("(")
                stack.append(")")
            while True:
                stack += ((m.right, True), " + ")
                m = m.left
                if not isinstance(m, Sum) or m in names:
                    break
            stack.append((m, False))
        elif isinstance(m, Var):
            append(m.name)
        elif m in _LEAF_TEXT:
            append(_LEAF_TEXT[m])
        else:
            raise TypeError(f"not a monitor: {m!r}")
    return "".join(out)


def print_monitor(m: Monitor) -> str:
    """Minimal-parentheses rendering that :func:`parse_monitor` inverts:
    :func:`print_term` without names."""
    return print_term(m)
