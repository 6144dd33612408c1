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

One function reads the grammar: :func:`reader` binds an alphabet,
variables and names once and returns a function that reads a term or an
equation in one scan of its text.  :func:`parse_monitor` and
:func:`parse_equation` read one text with it.  The trace text (``a b``,
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
# Tokens

# Blanks and comments.  A comment runs to the end of its line, so that it
# gives back no '.' when the match backtracks, and each blank is one
# repetition, so that backtracking over a run of them is linear.
_BLANKS = r"(?:[ \t\r\n]|#[^\n]*(?![^\n]))*"
_RESERVED = "|".join(sorted(RESERVED_WORDS))
# The next token after the blanks and comments before it, one group per
# kind: an action prefix (an identifier other than a reserved word, then
# its '.'), an identifier, '+', '(', ')', '=', another operator, a name, or
# any other character (an error); no group at the end of the text.
_TOKEN_RE = re.compile(
    rf"{_BLANKS}(?:(?!(?:{_RESERVED})(?![A-Za-z0-9_]))({IDENT_PATTERN}){_BLANKS}\."
    rf"|({IDENT_PATTERN})|(\+)|(\()|(\))|(=)|(->|[.,])|(\$[0-9]+)|(.)|\Z)",
    re.DOTALL,
)
_PREFIX, _IDENT, _PLUS, _OPEN, _CLOSE, _EQUALS, _OP, _NAME, _ODD = range(1, 10)

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


def _fail(text: str, match: re.Match, kind: str, message: str) -> ParseError:
    """The error for the token that ``match`` read, unless a character that
    no token takes comes at or after it: as if the whole text were
    tokenized first, such a character is reported before any error of the
    grammar."""
    pos = match.start()
    while True:
        odd = _TOKEN_RE.match(text, pos)
        if odd.lastindex == _ODD:
            message = f"unexpected character {odd[_ODD]!r}"
            return ParseError(_span(text, odd.start(_ODD), 1), UNEXPECTED_TOKEN, message)
        if odd.lastindex is None:
            break
        pos = odd.end()
    group = match.lastindex
    if group is None:
        return ParseError(_span(text, len(text), 0), kind, message)
    return ParseError(_span(text, match.start(group), len(match[group])), kind, message)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text`` as one list, as :func:`parse_alphabet` reads
    them; an action prefix is an identifier and a '.'."""
    tokens: list[_Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group is None:
            break
        if group == _ODD:
            raise _fail(text, match, UNEXPECTED_TOKEN, "")
        word = match[group]
        kind = "ident" if group <= _IDENT else "name" if group == _NAME else word
        append((kind, word, match.start(group)))
        if group == _PREFIX:
            append((".", ".", match.end() - 1))
    append(("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Terms and equations

# A map from each ``$N`` that a text may use to its term.
Names = Mapping[str, Monitor] | None

_LEAF = {"yes": YES, "no": NO, "end": END}


def _word(match: re.Match) -> str:
    return match[match.lastindex] if match.lastindex else ""


def reader(
    alphabet: Alphabet, variables: Iterable[str] = (), names: Names = None
) -> Callable[..., Monitor | Equation]:
    """A function that reads the ``term`` that spans a text, or with
    ``equation=True`` the ``term '=' term``, under ``alphabet``,
    ``variables`` and ``names``, which are bound once here.  ``names`` is
    not copied: a name added to it later can be read.

    One scan of the text reads each token as it comes, with no recursion
    and no token list.  ``frames`` holds, for every open parenthesis, the
    sum read so far and the actions prefixed to the parenthesis.
    """
    finite = alphabet.is_finite
    # ``word in known`` says whether ``word`` is an action over a finite
    # alphabet, and whether it is a variable over an open-ended one.
    known = alphabet.actions if finite else frozenset(variables)
    names = {} if names is None else names
    scan = _TOKEN_RE.finditer

    def read(text: str, equation: bool = False) -> Monitor | Equation:
        lhs: Monitor | None = None
        frames: list[tuple[Monitor | None, list[str]]] = []
        acc: Monitor | None = None
        prefixes: list[str] = []
        complete = False  # whether a term ends just before this token
        for match in scan(text):
            group = match.lastindex
            if complete:
                # After a term: a '+', a ')' that closes a parenthesis, the
                # '=' of an equation, or the end of the text.
                if group == _PLUS:
                    complete = False
                    continue
                if frames:
                    if group != _CLOSE:
                        raise _fail(text, match, UNBALANCED_PAREN, "expected ')'")
                    term = acc
                    acc, prefixes = frames.pop()
                elif equation and lhs is None:
                    if group != _EQUALS:
                        found = _word(match) or "end of input"
                        raise _fail(text, match, UNEXPECTED_TOKEN, f"expected '=', found {found!r}")
                    lhs, acc = acc, None
                    complete = False
                    continue
                elif group is None:
                    return Equation(lhs, acc) if equation else acc
                else:
                    message = f"trailing input starting at {_word(match)!r}"
                    raise _fail(text, match, UNEXPECTED_TOKEN, message)
            elif group == _PREFIX:
                word = match[_PREFIX]
                if (word in known) != finite:
                    message = f"variable {word!r} cannot be used as a prefix"
                    raise _fail(text, match, UNEXPECTED_TOKEN, message)
                prefixes.append(word)
                continue
            elif group == _IDENT:
                word = match[_IDENT]
                term = _LEAF.get(word)
                if term is None:
                    if (word in known) == finite:
                        message = f"action {word!r} must be followed by '.'"
                        raise _fail(text, match, UNEXPECTED_TOKEN, message)
                    term = Var(word)
            elif group == _NAME:
                term = names.get(match[_NAME])
                if term is None:
                    message = f"undeclared name {match[_NAME]!r}"
                    raise _fail(text, match, UNDECLARED_NAME, message)
            elif group == _OPEN:
                frames.append((acc, prefixes))
                acc, prefixes = None, []
                continue
            elif group == _CLOSE:
                raise _fail(text, match, UNBALANCED_PAREN, "unmatched ')'")
            elif group is not None:
                raise _fail(text, match, UNEXPECTED_TOKEN, f"unexpected token {_word(match)!r}")
            elif match.start() == 0:
                raise ParseError(SourceSpan(1, 1, 0, 0), EMPTY_INPUT, "empty input")
            else:
                raise _fail(text, match, UNEXPECTED_TOKEN, "unexpected end of input")
            # A term is complete: prefix it and add it to the sum.
            if prefixes:
                for action in reversed(prefixes):
                    term = Prefix(action, term)
                prefixes = []
            acc = term if acc is None else Sum(acc, term)
            complete = True
        raise AssertionError("the scan ends at the end of the text")  # pragma: no cover

    return read


def parse_monitor(
    text: str, alphabet: Alphabet, variables: Iterable[str] = (), names: Names = None
) -> Monitor:
    """Parse a single monitor term with :func:`reader`.

    ``variables`` declares the variable names for open-ended alphabets; with
    a finite alphabet every identifier outside the alphabet is a variable.
    ``names`` maps each ``$N`` that the text may use to its term.
    """
    return reader(alphabet, variables, names)(text)


def parse_equation(
    text: str, alphabet: Alphabet, variables: Iterable[str] = (), names: Names = None
) -> Equation:
    """Parse ``term = term``, as :func:`parse_monitor` parses each term."""
    return reader(alphabet, variables, names)(text, equation=True)


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
