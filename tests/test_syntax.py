import random
import re

import pytest
from hypothesis import given, settings

from conftest import AB, INF, monitors
from regmon.syntax import (
    EMPTY_INPUT,
    UNBALANCED_PAREN,
    UNDECLARED_NAME,
    UNEXPECTED_TOKEN,
    ParseError,
    SourceSpan,
    _error,
    _tokenize,
    parse_alphabet,
    parse_equation,
    parse_monitor,
    parse_term_file,
    parse_trace,
    print_monitor,
    print_trace,
)
from regmon.terms import (
    END,
    IDENT_PATTERN,
    NO,
    RESERVED_WORDS,
    YES,
    Alphabet,
    Equation,
    Prefix,
    Sum,
    Var,
)


def test_parse_basic_sum():
    assert parse_monitor("a.yes + b.no", AB) == Sum(Prefix("a", YES), Prefix("b", NO))


def test_parse_example_equation_lhs():
    m = parse_monitor("x + a.(x + a.(yes+no) + b.(yes+no))", AB)
    inner = Sum(Sum(Var("x"), Prefix("a", Sum(YES, NO))), Prefix("b", Sum(YES, NO)))
    assert m == Sum(Var("x"), Prefix("a", inner))


def test_prefix_right_associative():
    # a.b.yes reads as a.(b.yes)
    assert parse_monitor("a.b.yes", AB) == Prefix("a", Prefix("b", YES))


def test_sum_left_associated():
    m = parse_monitor("yes + no + x", AB)
    assert m == Sum(Sum(YES, NO), Var("x"))


def test_print_requires_parens_under_prefix():
    assert print_monitor(Prefix("a", Sum(YES, NO))) == "a.(yes + no)"


def test_print_simple_sum():
    assert print_monitor(Sum(YES, Var("x"))) == "yes + x"


@given(monitors())
@settings(max_examples=1000)
def test_print_parse_round_trip(m):
    assert parse_monitor(print_monitor(m), AB) == m


@given(monitors())
@settings(max_examples=200)
def test_parse_print_identity_on_canonical_text(m):
    text = print_monitor(m)
    assert print_monitor(parse_monitor(text, AB)) == text


def test_parse_alphabet():
    assert parse_alphabet("a,b").actions == frozenset({"a", "b"})
    assert parse_alphabet("infinite").actions is None
    with pytest.raises(ParseError) as err:
        parse_alphabet("a,a")
    assert err.value.kind == "UnexpectedToken"
    with pytest.raises(ParseError) as err:
        parse_alphabet("yes,a")
    assert err.value.kind == "ReservedWordAsAction"


def test_parse_equation_o1():
    eq = parse_equation("yes + no = yes + no + x", Alphabet_a())
    assert eq.lhs == Sum(YES, NO)
    assert eq.rhs == Sum(Sum(YES, NO), Var("x"))


def Alphabet_a():
    from regmon.terms import Alphabet

    return Alphabet.finite(["a"])


def test_open_ended_needs_declared_vars():
    # without a declaration every identifier is an action
    m = parse_monitor("q.yes", INF)
    assert m == Prefix("q", YES)
    m = parse_monitor("x + q.yes", INF, variables={"x"})
    assert m == Sum(Var("x"), Prefix("q", YES))


def test_variable_cannot_be_prefixed():
    with pytest.raises(ParseError):
        parse_monitor("x.yes", AB)


def test_bare_action_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_monitor("a + yes", AB)
    assert err.value.kind == "UnexpectedToken"


def test_empty_input():
    with pytest.raises(ParseError) as err:
        parse_monitor("   ", AB)
    assert err.value.kind == "EmptyInput"


def test_unbalanced_paren():
    with pytest.raises(ParseError) as err:
        parse_monitor("(yes + no", AB)
    assert err.value.kind == "UnbalancedParen"


def test_error_spans_point_into_input():
    text = "yes + @"
    with pytest.raises(ParseError) as err:
        parse_monitor(text, AB)
    assert 0 <= err.value.span.offset <= len(text)
    assert err.value.span.line == 1


def test_comments_and_whitespace():
    assert parse_monitor("a.yes   # trailing comment\n + no", AB) == Sum(
        Prefix("a", YES), NO
    )


def test_trace_round_trip():
    assert parse_trace("<eps>") == ()
    assert parse_trace("a b a") == ("a", "b", "a")
    assert print_trace(()) == "<eps>"
    assert print_trace(("a", "b")) == "a b"


def test_term_file_named_terms_and_headers():
    tf = parse_term_file(
        """
        # demo file
        alphabet: a,b
        vars: z
        m1 := a.yes + z
        m2 := b.no
        """
    )
    assert set(tf.terms) == {"m1", "m2"}
    assert tf.terms["m1"] == Sum(Prefix("a", YES), Var("z"))
    assert tf.variables == {"z"}


def test_term_file_single_bare_term():
    tf = parse_term_file("alphabet: a\na.yes")
    assert tf.single() == Prefix("a", YES)


# (entry point, input, (kind, line, column, offset, length, message))
GOLDEN_ERRORS = [
    ("monitor", "yes + @", ("UnexpectedToken", 1, 7, 6, 1, "unexpected character '@'")),
    ("monitor", "a.yes\n  + b.$", ("UnexpectedToken", 2, 7, 12, 1, "unexpected character '$'")),
    ("monitor", "(yes + no", ("UnbalancedParen", 1, 10, 9, 0, "expected ')'")),
    ("monitor", ")", ("UnbalancedParen", 1, 1, 0, 1, "unmatched ')'")),
    ("monitor", "yes)", ("UnexpectedToken", 1, 4, 3, 1, "trailing input starting at ')'")),
    ("monitor", "(yes))", ("UnexpectedToken", 1, 6, 5, 1, "trailing input starting at ')'")),
    ("monitor", "()", ("UnbalancedParen", 1, 2, 1, 1, "unmatched ')'")),
    ("monitor", "yes.no", ("UnexpectedToken", 1, 4, 3, 1, "trailing input starting at '.'")),
    ("monitor", "x.yes", ("UnexpectedToken", 1, 1, 0, 1, "variable 'x' cannot be used as a prefix")),
    ("monitor", "a.b.a.x.yes", ("UnexpectedToken", 1, 7, 6, 1, "variable 'x' cannot be used as a prefix")),
    ("monitor", "a + yes", ("UnexpectedToken", 1, 1, 0, 1, "action 'a' must be followed by '.'")),
    ("monitor", "yes no", ("UnexpectedToken", 1, 5, 4, 2, "trailing input starting at 'no'")),
    ("monitor", "yes -> no", ("UnexpectedToken", 1, 5, 4, 2, "trailing input starting at '->'")),
    ("monitor", "yes - no", ("UnexpectedToken", 1, 5, 4, 1, "unexpected character '-'")),
    ("monitor", "a.1", ("UnexpectedToken", 1, 3, 2, 1, "unexpected character '1'")),
    ("monitor", "   \n\t", ("EmptyInput", 1, 1, 0, 0, "empty input")),
    ("monitor", "# nothing here\n", ("EmptyInput", 1, 1, 0, 0, "empty input")),
    ("monitor", "a.(yes # open\n  + no # still open", ("UnbalancedParen", 2, 8, 33, 0, "expected ')'")),
    ("monitor", "a.(yes # open\n  + no\n", ("UnbalancedParen", 3, 1, 21, 0, "expected ')'")),
    ("monitor", "yes # c1\n# c2\n  + -", ("UnexpectedToken", 3, 5, 18, 1, "unexpected character '-'")),
    ("monitor", "yes +", ("UnexpectedToken", 1, 6, 5, 0, "unexpected end of input")),
    ("monitor", "a.", ("UnexpectedToken", 1, 3, 2, 0, "unexpected end of input")),
    ("monitor", "\tyes\t@", ("UnexpectedToken", 1, 6, 5, 1, "unexpected character '@'")),
    ("monitor", "yes\r\n+ @", ("UnexpectedToken", 2, 3, 7, 1, "unexpected character '@'")),
    ("equation", "yes + no", ("UnexpectedToken", 1, 9, 8, 0, "expected '=', found 'end of input'")),
    ("equation", "yes = no = end", ("UnexpectedToken", 1, 10, 9, 1, "trailing input starting at '='")),
    ("equation", "yes = ", ("UnexpectedToken", 1, 7, 6, 0, "unexpected end of input")),
    ("equation", "= yes", ("UnexpectedToken", 1, 1, 0, 1, "unexpected token '='")),
    ("equation", "yes = a", ("UnexpectedToken", 1, 7, 6, 1, "action 'a' must be followed by '.'")),
    ("alphabet", "a, yes", ("ReservedWordAsAction", 1, 4, 3, 3, "'yes' cannot be declared as an action")),
    ("alphabet", "a,,b", ("UnexpectedToken", 1, 3, 2, 1, "expected an action name")),
    ("alphabet", "a b", ("UnexpectedToken", 1, 3, 2, 1, "expected ','")),
    ("alphabet", "a,a", ("UnexpectedToken", 1, 3, 2, 1, "duplicate action 'a'")),
    ("alphabet", "a,%", ("UnexpectedToken", 1, 3, 2, 1, "unexpected character '%'")),
]

ENTRY_POINTS = {
    "monitor": lambda text: parse_monitor(text, AB),
    "equation": lambda text: parse_equation(text, AB),
    "alphabet": parse_alphabet,
}


@pytest.mark.parametrize("entry, text, expected", GOLDEN_ERRORS)
def test_golden_error_spans(entry, text, expected):
    with pytest.raises(ParseError) as err:
        ENTRY_POINTS[entry](text)
    e = err.value
    s = e.span
    assert (e.kind, s.line, s.column, s.offset, s.length, e.message) == expected
    assert str(e) == f"{s.line}:{s.column}: {e.message}"


def test_declared_variable_as_prefix_in_open_ended_alphabet():
    with pytest.raises(ParseError) as err:
        parse_monitor("q.x.yes", INF, variables={"x"})
    s = err.value.span
    assert (err.value.kind, s.line, s.column, s.offset, s.length) == ("UnexpectedToken", 1, 3, 2, 1)


@pytest.mark.parametrize(
    "text, column",
    [("a.é + ü", 3), ("é.yes", 1), ("a.yes + xé", 10), ("a²", 2)],
)
def test_non_ascii_identifiers_are_rejected(text, column):
    # Identifiers are exactly [A-Za-z_][A-Za-z0-9_]*, as terms.is_identifier says.
    for alphabet in (AB, INF):
        with pytest.raises(ParseError) as err:
            parse_monitor(text, alphabet)
        assert err.value.kind == "UnexpectedToken"
        assert err.value.span.column == column
        assert err.value.message == f"unexpected character {text[column - 1]!r}"


def _chain_depth(m, action):
    depth = 0
    while isinstance(m, Prefix):
        assert m.action == action
        m = m.body
        depth += 1
    return depth, m


def test_deep_prefix_chain_parses_and_prints():
    # Walking .body checks the shape without building a second 10^4-deep
    # term to compare against.
    n = 10_000
    text = "a." * n + "yes"
    m = parse_monitor(text, AB)
    assert _chain_depth(m, "a") == (n, YES)
    assert print_monitor(m) == text
    m = parse_monitor("a." * n + "(yes + x)", AB)
    depth, body = _chain_depth(m, "a")
    assert depth == n and isinstance(body, Sum)
    assert print_monitor(m) == "a." * n + "(yes + x)"


# ---------------------------------------------------------------------------
# The parser before it became one function, kept as the reference that
# ``parse_monitor`` and ``parse_equation`` must agree with: the same node,
# or the same error (type, kind, span and message).


class _ReferenceParser:
    def __init__(self, text, alphabet, variables, names):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.variables = variables
        self.names = names or {}

    def peek(self):
        return self.tokens[self.pos]

    def fail(self, tok, message, kind=UNEXPECTED_TOKEN):
        raise _error(self.text, tok, kind, message)

    def expect(self, kind):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            self.fail(tok, f"expected {kind!r}, found {tok[1] or 'end of input'!r}")
        return tok

    def is_action(self, name):
        if self.alphabet.is_finite:
            return name in self.alphabet
        return name not in self.variables

    def parse_term(self):
        tokens = self.tokens
        pos = self.pos
        is_action = self.is_action
        frames = []
        acc = None
        prefixes = []
        while True:
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
            elif kind == "name":
                term = self.names.get(text)
                if term is None:
                    self.fail(tok, f"undeclared name {text!r}", UNDECLARED_NAME)
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

    def at_end(self):
        return self.peek()[0] == "eof"


def _reference_parse_monitor(text, alphabet, variables=(), names=None):
    parser = _ReferenceParser(text, alphabet, frozenset(variables), names)
    if parser.at_end():
        raise ParseError(SourceSpan(1, 1, 0, 0), EMPTY_INPUT, "empty input")
    term = parser.parse_term()
    tok = parser.peek()
    if tok[0] != "eof":
        parser.fail(tok, f"trailing input starting at {tok[1]!r}")
    return term


def _reference_parse_equation(text, alphabet, variables=(), names=None):
    parser = _ReferenceParser(text, alphabet, frozenset(variables), names)
    if parser.at_end():
        raise ParseError(SourceSpan(1, 1, 0, 0), EMPTY_INPUT, "empty input")
    lhs = parser.parse_term()
    parser.expect("=")
    rhs = parser.parse_term()
    tok = parser.peek()
    if tok[0] != "eof":
        parser.fail(tok, f"trailing input starting at {tok[1]!r}")
    return Equation(lhs, rhs)


# README terms and equations, names, 'by' as a variable, comments, unbalanced
# parentheses and characters outside the grammar.
REFERENCE_SEEDS = [
    "a.(yes + no) + x",
    "a.yes + b.no",
    "yes + a.a.a.yes",
    "a.yes + b.yes",
    "x + a.x",
    "x + yes + a.b.(no + b.a.x)",
    "x + yes + a.b.(no + b.a.x) = yes + a.b.no + x",
    "yes = yes + a.yes",
    "$1 + $2 = yes + $2",
    "b.(x + $1) = b.(x + yes)",
    "by + a.by = by",
    "a.(by + $1) + $3",
    "yes # a comment\n  + no # another\n",
    "(yes + no",
    "yes + no)) = x",
    "((a.yes) + (b.(x + (y + end))))",
    "é.yes + a.no",
    "yes yes é",
    "end",
    "x = y",
    "(x + (y + z)) = ((x + y) + z)",
    "q.x.yes + q.y = q.(x + y)",
    "",
    "  # only a comment",
]
REFERENCE_PIECES = [
    "a", "b", "q", "x", "y", "by", "yes", "no", "end", ".", "+", "(", ")", "=",
    "->", ",", "$1", "$2", "$9", " ", "\n", "# c\n", "é", "@", "1",
]
REFERENCE_NAMES = {"$1": Sum(YES, Prefix("a", YES)), "$2": Var("y")}


def _reference_corpus(edits: int):
    rng = random.Random(1801)
    for seed in REFERENCE_SEEDS:
        yield seed
        for _ in range(edits):
            text = seed
            for _ in range(rng.randint(1, 3)):
                at = rng.randint(0, len(text))
                cut = at + rng.randint(0, 2)
                piece = rng.choice(REFERENCE_PIECES) if rng.random() < 0.7 else ""
                text = text[:at] + piece + text[cut:]
            yield text


def _outcome(parse, text, alphabet, variables, names):
    try:
        return "ok", parse(text, alphabet, variables, names)
    except Exception as err:  # every error counts, not only ParseError
        where = (err.kind, err.span, err.message) if isinstance(err, ParseError) else str(err)
        return type(err).__name__, where


def test_parser_agrees_with_the_reference_parser():
    # Over {a} no name is declared, so each '$N' there is undeclared.
    alphabets = [
        (AB, (), REFERENCE_NAMES),
        (Alphabet.finite(["a"]), (), None),
        (INF, ("x", "y", "by"), REFERENCE_NAMES),
    ]
    entries = [
        (parse_monitor, _reference_parse_monitor),
        (parse_equation, _reference_parse_equation),
    ]
    seen = set()
    for text in _reference_corpus(300):
        for alphabet, variables, names in alphabets:
            for parse, reference in entries:
                got = _outcome(parse, text, alphabet, variables, names)
                want = _outcome(reference, text, alphabet, variables, names)
                assert got == want, (text, alphabet, parse.__name__)
                seen.add((parse.__name__, got[1][0] if got[0] == "ParseError" else got[0]))
    # The corpus reaches every outcome of both entries.
    kinds = {"ok", UNEXPECTED_TOKEN, UNBALANCED_PAREN, EMPTY_INPUT, UNDECLARED_NAME}
    assert {(entry, kind) for entry in ("parse_monitor", "parse_equation") for kind in kinds} <= seen


# The tokenizer before the term reader and ``_tokenize`` shared one scanner,
# kept as the reference for the tokens (the reference parser above reads
# ``_tokenize``'s).
_REFERENCE_TOKEN_RE = re.compile(
    rf"([ \t\r\n]+|#[^\n]*)|({IDENT_PATTERN})|(->|[+.()=,])|(\$[0-9]+)|(.)", re.DOTALL
)


def _reference_tokenize(text):
    """The token list, or the offset and message of its error."""
    tokens = []
    for match in _REFERENCE_TOKEN_RE.finditer(text):
        group = match.lastindex
        if group == 2:
            tokens.append(("ident", match[2], match.start()))
        elif group == 3:
            tokens.append((match[3], match[3], match.start()))
        elif group == 4:
            tokens.append(("name", match[4], match.start()))
        elif group == 5:
            return match.start(), f"unexpected character {match[5]!r}"
    tokens.append(("eof", "", len(text)))
    return tokens


def test_tokens_agree_with_the_reference_tokenizer():
    # The corpus of the parser test, and texts where a comment or blanks
    # stand between an identifier and a '.'.
    texts = list(_reference_corpus(300))
    texts += ["a # c.\n.yes", "a.ye# c@ b.no", "yes . no", "x \t\n. a", "a" + " " * 500 + "b."]
    for text in texts:
        try:
            got = _tokenize(text)
        except ParseError as err:
            got = (err.span.offset, err.message)
        assert got == _reference_tokenize(text), text
