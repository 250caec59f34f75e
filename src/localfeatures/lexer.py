"""Tokenizer shared by the product-spec and product-line-definition parsers.

Keywords are case-sensitive uppercase words and each lexes as its own token
kind; every other word matching [A-Za-z][A-Za-z0-9_]* is an IDENT. Numbers
are optionally signed decimals. // starts a line comment.

lex() reads the whole source in one pass of a compiled pattern: each match
captures the skipped whitespace and comments, then one token (or a character
no token starts with, or the empty end of input). The result is three flat
sequences indexed by token: kind, text and end offset. No per-token object
is built, and no line or column is counted while lexing: TokenStream turns
an offset into a line and column only when the parser builds a Span or an
error, by a bisect over the source's line starts. tokenize() is the same
lexing and returns the kinds alone. A parser tests TokenStream.kind and
moves only by reading: expect, match, expect_run, parenthesised and names,
none of which moves past the EOF token.

Because the whole source is lexed before parsing starts, a bad character
anywhere in it is the error reported, ahead of any syntax error the parser
would have found before it.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from itertools import accumulate
from operator import add
from typing import Callable, NoReturn, TypeVar

from .errors import ParseError
from .syntax import Span

_new = tuple.__new__  # builds a named tuple without a Python frame for its __new__
T = TypeVar("T")

IDENT = "IDENT"
NUMBER = "NUMBER"
EOF = "end of input"

SPEC_KEYWORDS = frozenset({
    "CREATE", "ENTITY", "MAP", "GIS", "LAYER", "AS", "FOR", "WITH",
    "FEATURES", "LAYERS", "STYLES", "CENTER",
    "IDENTIFIER", "DISPLAY_STRING", "REQUIRED",
    "RELATIONSHIP", "MAPPED_BY", "BIDIRECTIONAL",
    "DEFAULT", "IS_BASE_LAYER", "DEFAULT_BASE_LAYER",
})

DEFINITION_KEYWORDS = frozenset({
    "VIEWPOINT", "FEATUREMODEL", "LOCAL", "APPLIED", "TO", "DEFAULTS",
    "MANDATORY", "OPTIONAL", "XOR", "OR", "ABSTRACT",
    "REQUIRES", "EXCLUDES",
})

# Group 1 is what the match skips, group 2 the token: a word, a number (a
# fraction needs a digit after the dot, so "1..2" is 1 .. 2), punctuation, a
# character no token starts with, or the empty string at the end of input.
# Every position matches, so split() leaves nothing between the matches.
# The possessive quantifiers (Python 3.11+) keep the engine from saving
# backtracking state it never needs; with plain greedy ones the pass takes
# about 10% longer over a 1.8 MB source.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*)*+)"
    r"([A-Za-z][A-Za-z0-9_]*+|-?[0-9]++(?:\.[0-9]++)?+|\.\.|[()\[\]{},;.*]|.|\Z)")
_PUNCT = ("..", "(", ")", "[", "]", "{", "}", ",", ";", ".", "*")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
_BAD = "bad character"  # the kind lex() raises at; no token carries it


class _Kinds(dict):
    """Token text -> kind, worked out once per distinct text."""

    def __init__(self, keywords: frozenset[str]):
        super().__init__({text: text for text in (*keywords, *_PUNCT)})
        self[""] = EOF

    def __missing__(self, text: str) -> str:
        first = text[0]
        if first in _LETTERS:
            kind = IDENT
        elif first in _DIGITS or len(text) > 1:  # a longer "-..." is "-" and digits
            kind = NUMBER
        else:
            kind = _BAD
        self[text] = kind
        return kind


def lex(source: str, keywords: frozenset[str]) -> tuple[tuple[str, ...], tuple[str, ...], array]:
    """The kinds and texts of the tokens of source, ending with one EOF
    token, and their end offsets; raises ParseError at the first character
    no token starts with. A token starts at its end minus the length of its
    text."""
    parts = _TOKEN.split(source)  # before, skipped, token, before, skipped, token, ...
    texts = parts[2::3]
    last = texts.index("")  # the end of input; a trailing skip can match it twice
    del texts[last + 1:]
    # one str object per distinct text: x50 keeps 10 MB less alive while parsing
    canonical: dict[str, str] = {}
    texts = tuple(map(canonical.setdefault, texts, texts))
    kinds = tuple(map(_Kinds(keywords).__getitem__, texts))
    ends = array("q", accumulate(map(add, map(len, parts[1:3 * last + 2:3]), map(len, texts))))
    if _BAD in kinds:
        start = ends[kinds.index(_BAD)] - 1
        starts = line_starts(source)
        line = bisect_right(starts, start)
        raise ParseError(f"unexpected character {source[start]!r}",
                         Span(start, start + 1, line, start - starts[line - 1] + 1))
    return kinds, texts, ends


def line_starts(source: str) -> list[int]:
    """The offset at which each line of source starts."""
    return list(accumulate(map((1).__add__, map(len, source.split("\n")[:-1])), initial=0))


def tokenize(source: str, keywords: frozenset[str]) -> tuple[str, ...]:
    """The kind of every token of source, ending with EOF: the lexing a parse
    runs, so its length is the token count."""
    return lex(source, keywords)[0]


class _ListsOfNames(dict):
    """count -> the kinds of a parenthesised list of count names."""

    def __missing__(self, count: int) -> tuple[str, ...]:
        kinds = self[count] = ("(", *((IDENT, ",") * count)[:-1], ")")
        return kinds


class TokenStream:
    """Cursor over the tokens of a source, with positioned errors on
    mismatch. A token is its index; texts holds the token texts, and kind is
    the current token's kind, which a parser tests directly.

    The cursor moves only by reading, and never past EOF: a single token
    (expect, match), or a production both parsers share: a fixed run of
    kinds (expect_run), a parenthesised comma list of items the caller reads
    (parenthesised), or a possibly empty parenthesised list of names
    (names). Each fails as expect does, at the first token that does not
    fit. A run and a list of names are first compared with the kinds ahead
    as slices, in one step each, and every well-formed one matches there;
    on a mismatch they are walked token by token, which always raises, with
    the error expect gives. Equal lists of names come back as one shared
    tuple: a parse sees few distinct feature clauses, many times over."""

    def __init__(self, source: str, keywords: frozenset[str]):
        self._kinds, self.texts, self._ends = lex(source, keywords)
        self._line_starts = line_starts(source)
        self._lists_of_names = _ListsOfNames()
        self._names: dict[tuple[str, ...], tuple[str, ...]] = {}  # -> the first equal one
        self.pos = 0
        self.kind = self._kinds[0]

    def match(self, kind: str) -> bool:
        """Whether the current token is of kind, moving past it if so."""
        if self.kind == kind:
            if kind is not EOF:
                self.pos += 1
                self.kind = self._kinds[self.pos]
            return True
        return False

    def expect(self, *kinds: str) -> int:
        """The current token, which must be of one of kinds, moving past it."""
        kind = self.kind
        if kind in kinds:
            pos = self.pos
            if kind is not EOF:
                self.pos = pos + 1
                self.kind = self._kinds[pos + 1]
            return pos
        self.fail(*kinds)

    def expect_run(self, *kinds: str) -> int:
        """The first of a run of tokens, one of each of kinds in turn, moving
        past them all. No run holds EOF, so a match moves past every token."""
        first = self.pos
        end = first + len(kinds)
        if self._kinds[first:end] == kinds:
            self.pos = end
            self.kind = self._kinds[end]
            return first
        for kind in kinds[:-1]:  # token by token, to raise at the first misfit
            self.expect(kind)
        self.fail(kinds[-1])

    def parenthesised(self, item: Callable[[], T]) -> tuple[T, ...]:
        """( item {, item} ): the items, each read by a call of item."""
        self.expect("(")
        items = [item()]
        while self.match(","):
            items.append(item())
        self.expect(")")
        return tuple(items)

    def names(self) -> tuple[str, ...]:
        """The texts of ( [IDENT {, IDENT}] ), read up to the first ) ahead."""
        kinds, pos = self._kinds, self.pos
        try:
            close = kinds.index(")", pos)
        except ValueError:
            close = pos  # no list ends ahead, so none matches below
        if kinds[pos:close + 1] == self._lists_of_names[(close - pos) // 2]:
            names = self.texts[pos + 1:close:2]
            self.pos = close + 1
            self.kind = kinds[close + 1]
            return self._names.setdefault(names, names)
        self.expect("(")  # token by token, to raise at the first misfit
        if self.kind != ")":
            self.expect(IDENT)
            while self.match(","):
                self.expect(IDENT)
        self.fail(")")

    def fail(self, *expected: str) -> NoReturn:
        kind = self.kind
        shown = kind if kind is EOF else f"{self.texts[self.pos]!r}"
        raise ParseError(f"unexpected {shown}", self.span(self.pos), expected)

    def span(self, first: int) -> Span:
        """Token first's span, with the line and column of its start."""
        ends = self._ends
        start = ends[first] - len(self.texts[first])
        starts = self._line_starts
        line = bisect_right(starts, start)
        return _new(Span, (start, ends[first], line, start - starts[line - 1] + 1))

    def span_from(self, first: int) -> Span:
        """From token first to the last token the cursor moved past."""
        ends = self._ends
        start = ends[first] - len(self.texts[first])
        starts = self._line_starts
        line = bisect_right(starts, start)
        return _new(Span, (start, ends[self.pos - 1], line, start - starts[line - 1] + 1))
