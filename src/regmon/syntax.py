"""Concrete syntax: parsing and printing of monitors, equations and tables.

Grammar::

    term    ::= prefterm ('+' prefterm)*          # '+' associates left
    prefterm::= ACTION '.' prefterm | atom        # '.' binds tighter, right
    atom    ::= 'yes' | 'no' | 'end' | IDENT | '(' term ')'

Identifiers that belong to the alphabet parse as actions; all others parse
as variables.  With an open-ended alphabet the variables must be declared
explicitly and every other identifier is an action.  ``#`` starts a line
comment in every file format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .terms import (
    END,
    IDENT_PATTERN,
    NO,
    RESERVED_WORDS,
    YES,
    Alphabet,
    End,
    Equation,
    Monitor,
    No,
    Prefix,
    Sum,
    Trace,
    Var,
    Yes,
    is_identifier,
)

UNEXPECTED_TOKEN = "UnexpectedToken"
RESERVED_WORD_AS_ACTION = "ReservedWordAsAction"
UNBALANCED_PAREN = "UnbalancedParen"
EMPTY_INPUT = "EmptyInput"


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
# (skipped), identifiers, operators, and any other character (an error).
_TOKEN_RE = re.compile(
    rf"([ \t\r\n]+|#[^\n]*)|({IDENT_PATTERN})|(->|[+.()=,])|(.)", re.DOTALL
)

# A token is ``(kind, text, offset)``: kind is 'ident', the operator itself
# ('+', '.', '(', ')', '=', '->', ','), or 'eof'.
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
            raise ParseError(
                _span(text, match.start(), 1),
                UNEXPECTED_TOKEN,
                f"unexpected character {match[4]!r}",
            )
    append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet, variables: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, tok: _Token, message: str, kind: str = UNEXPECTED_TOKEN):
        raise _error(self.text, tok, kind, message)

    def expect(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            self.fail(tok, f"expected {kind!r}, found {tok[1] or 'end of input'!r}")
        return tok

    def is_action(self, name: str) -> bool:
        if self.alphabet.is_finite:
            return name in self.alphabet
        return name not in self.variables

    def parse_term(self) -> Monitor:
        """``term`` at the current token, without recursion.

        ``frames`` holds, for every open parenthesis, the sum parsed so far
        and the actions prefixed to the parenthesis.
        """
        tokens = self.tokens
        pos = self.pos
        is_action = self.is_action
        frames: list[tuple[Monitor | None, list[str]]] = []
        acc: Monitor | None = None
        prefixes: list[str] = []
        while True:
            # prefterm: a run of ACTION '.', then an atom.
            tok = tokens[pos]
            kind, text, _ = tok
            while (
                kind == "ident"
                and text not in RESERVED_WORDS
                and tokens[pos + 1][0] == "."
            ):
                if not is_action(text):
                    self.fail(tok, f"variable {text!r} cannot be used as a prefix")
                prefixes.append(text)
                pos += 2
                tok = tokens[pos]
                kind, text, _ = tok
            pos += 1
            if kind == "ident":
                if text == "yes":
                    term = YES
                elif text == "no":
                    term = NO
                elif text == "end":
                    term = END
                elif is_action(text):
                    self.fail(tok, f"action {text!r} must be followed by '.'")
                else:
                    term = Var(text)
            elif kind == "(":
                frames.append((acc, prefixes))
                acc, prefixes = None, []
                continue
            elif kind == ")":
                self.fail(tok, "unmatched ')'", UNBALANCED_PAREN)
            elif kind == "eof":
                self.fail(tok, "unexpected end of input")
            else:
                self.fail(tok, f"unexpected token {text!r}")
            # The atom is complete: prefix it, add it to the sum, and close
            # every parenthesis that ends here.
            while True:
                if prefixes:
                    for action in reversed(prefixes):
                        term = Prefix(action, term)
                    prefixes = []
                acc = term if acc is None else Sum(acc, term)
                kind = tokens[pos][0]
                if kind == "+":
                    pos += 1
                    break
                if not frames:
                    self.pos = pos
                    return acc
                if kind != ")":
                    self.fail(tokens[pos], "expected ')'", UNBALANCED_PAREN)
                pos += 1
                term = acc
                acc, prefixes = frames.pop()

    def at_end(self) -> bool:
        return self.peek()[0] == "eof"


def parse_monitor(
    text: str, alphabet: Alphabet, variables: Iterable[str] = ()
) -> Monitor:
    """Parse a single monitor term.

    ``variables`` declares the variable names for open-ended alphabets; with
    a finite alphabet every identifier outside the alphabet is a variable.
    """
    parser = _Parser(text, alphabet, frozenset(variables))
    if parser.at_end():
        raise ParseError(SourceSpan(1, 1, 0, 0), EMPTY_INPUT, "empty input")
    term = parser.parse_term()
    tok = parser.peek()
    if tok[0] != "eof":
        parser.fail(tok, f"trailing input starting at {tok[1]!r}")
    return term


def parse_equation(
    text: str, alphabet: Alphabet, variables: Iterable[str] = ()
) -> Equation:
    parser = _Parser(text, alphabet, frozenset(variables))
    if parser.at_end():
        raise ParseError(SourceSpan(1, 1, 0, 0), EMPTY_INPUT, "empty input")
    lhs = parser.parse_term()
    parser.expect("=")
    rhs = parser.parse_term()
    tok = parser.peek()
    if tok[0] != "eof":
        parser.fail(tok, f"trailing input starting at {tok[1]!r}")
    return Equation(lhs, rhs)


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


def parse_substitution(
    text: str, alphabet: Alphabet, variables: Iterable[str] = ()
) -> dict[str, Monitor]:
    """Parse lines of the form ``x -> term``."""
    mapping: dict[str, Monitor] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(
                SourceSpan(1, 1, 0, len(line)), UNEXPECTED_TOKEN, "expected 'x -> term'"
            )
        name, _, term_text = line.partition("->")
        name = name.strip()
        if not is_identifier(name) or name in RESERVED_WORDS:
            raise ParseError(
                SourceSpan(1, 1, 0, len(name)),
                UNEXPECTED_TOKEN,
                f"bad variable name {name!r}",
            )
        mapping[name] = parse_monitor(term_text, alphabet, variables)
    return mapping


def print_substitution(pairs: Iterable[tuple[str, Monitor]]) -> str:
    """``x -> t, y -> u`` for the given pairs, in the order given."""
    return ", ".join(f"{name} -> {print_monitor(term)}" for name, term in pairs)


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
            names = [n.strip() for n in line[len("vars:") :].split(",") if n.strip()]
            for n in names:
                if not is_identifier(n) or n in RESERVED_WORDS:
                    raise ParseError(
                        SourceSpan(1, 1, 0, len(n)),
                        UNEXPECTED_TOKEN,
                        f"bad variable name {n!r}",
                    )
            out.variables = out.variables | frozenset(names)
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


def _print(m: Monitor, parent: str) -> str:
    match m:
        case End():
            return "end"
        case Yes():
            return "yes"
        case No():
            return "no"
        case Var(name):
            return name
        case Prefix():
            # A prefix chain prints as one run of 'a.', without recursing.
            actions = []
            while isinstance(m, Prefix):
                actions.append(m.action)
                m = m.body
            return f"{'.'.join(actions)}.{_print(m, 'prefix')}"
        case Sum(left, right):
            # '+' parses left-associated, so only a right operand or a prefix
            # body needs parentheses around a nested sum.
            text = f"{_print(left, 'sum-left')} + {_print(right, 'sum-right')}"
            if parent in ("prefix", "sum-right"):
                return f"({text})"
            return text
    raise TypeError(f"not a monitor: {m!r}")


def print_monitor(m: Monitor) -> str:
    """Minimal-parentheses rendering that :func:`parse_monitor` inverts."""
    return _print(m, "top")


def print_equation(eq: Equation) -> str:
    return f"{print_monitor(eq.lhs)} = {print_monitor(eq.rhs)}"
