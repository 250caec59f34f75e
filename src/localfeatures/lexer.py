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
error, by a bisect over the source's line starts. tokenize() still returns
one six-field Token per token, for callers that want them.

Because the whole source is lexed before parsing starts, a bad character
anywhere in it is the error reported, ahead of any syntax error the parser
would have found before it.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import add, sub
from typing import Callable, NamedTuple, NoReturn, TypeVar

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


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int
    offset: int
    end: int


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
        offset = ends[kinds.index(_BAD)] - 1
        line_start = source.rfind("\n", 0, offset) + 1
        raise ParseError(f"unexpected character {source[offset]!r}",
                         source.count("\n", 0, offset) + 1, offset - line_start + 1,
                         start=offset, end=offset + 1)
    return kinds, texts, ends


def line_starts(source: str) -> list[int]:
    """The offset at which each line of source starts."""
    return list(accumulate(map((1).__add__, map(len, source.split("\n")[:-1])), initial=0))


def tokenize(source: str, keywords: frozenset[str]) -> list[Token]:
    """Every token of source with its line and column, ending with EOF."""
    kinds, texts, ends = lex(source, keywords)
    offsets = list(map(sub, ends, map(len, texts)))
    starts = line_starts(source)
    lines = list(map(bisect_right, repeat(starts), offsets))
    before = [0, *map((1).__rsub__, starts)]  # before[line] + column == offset
    columns = map(sub, offsets, map(before.__getitem__, lines))
    # built by C-level iterators alone: no Python frame per token
    return list(map(_new, repeat(Token),
                    zip(kinds, texts, lines, columns, offsets, ends)))


class _ListsOfNames(dict):
    """count -> the kinds of a parenthesised list of count names."""

    def __missing__(self, count: int) -> tuple[str, ...]:
        kinds = self[count] = ("(", *((IDENT, ",") * count)[:-1], ")")
        return kinds


class TokenStream:
    """Cursor over the tokens of a source, with positioned errors on
    mismatch. A token is its index; texts holds the token texts, and kind is
    the current token's kind.

    Besides single tokens (expect, match), it reads the productions both
    parsers share: a fixed run of kinds (expect_run), a parenthesised comma
    list of items the caller reads (parenthesised), and a possibly empty
    parenthesised list of names (names). Each fails as expect does, at the
    first token that does not fit. A run and a list of names are first
    compared with the kinds ahead as slices, in one step each; only when
    that finds a mismatch are they walked token by token, and it is that
    walk which raises, so the error is the one expect gives. Equal lists of
    names come back as one shared tuple: a parse sees few distinct feature
    clauses, many times over."""

    def __init__(self, source: str, keywords: frozenset[str]):
        self._kinds, self.texts, self._ends = lex(source, keywords)
        self._line_starts = line_starts(source)
        self._lists_of_names = _ListsOfNames()
        self._names: dict[tuple[str, ...], tuple[str, ...]] = {}  # -> the first equal one
        self.pos = 0
        self.kind = self._kinds[0]

    def at(self, *kinds: str) -> bool:
        return self.kind in kinds

    def advance(self) -> int:
        """The current token, moving past it unless it is EOF."""
        pos = self.pos
        if self.kind is not EOF:
            self.pos = pos + 1
            self.kind = self._kinds[pos + 1]
        return pos

    def match(self, kind: str) -> bool:
        """Whether the current token is of kind, moving past it if so (as
        advance does, inlined)."""
        if self.kind == kind:
            if kind is not EOF:
                self.pos += 1
                self.kind = self._kinds[self.pos]
            return True
        return False

    def expect(self, *kinds: str) -> int:
        """The current token, which must be of one of kinds, moving past it
        as advance does (inlined: this runs for most tokens)."""
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
        for kind in kinds:
            self.expect(kind)
        return first

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
        found = []
        if self.kind != ")":
            found.append(self.texts[self.expect(IDENT)])
            while self.match(","):
                found.append(self.texts[self.expect(IDENT)])
        self.expect(")")
        return tuple(found)

    def fail(self, *expected: str) -> NoReturn:
        kind = self.kind
        shown = kind if kind is EOF else f"{self.texts[self.pos]!r}"
        raise ParseError.at(f"unexpected {shown}", self.span(self.pos), expected)

    def span(self, first: int, last: int | None = None) -> Span:
        """From the start of token first to the end of token last (first
        when omitted), with the line and column of its start."""
        ends = self._ends
        start = ends[first] - len(self.texts[first])
        starts = self._line_starts
        line = bisect_right(starts, start)
        return _new(Span, (start, ends[first if last is None else last], line,
                           start - starts[line - 1] + 1))

    def span_from(self, first: int) -> Span:
        """From token first to the last token the cursor moved past."""
        ends = self._ends
        start = ends[first] - len(self.texts[first])
        starts = self._line_starts
        line = bisect_right(starts, start)
        return _new(Span, (start, ends[self.pos - 1], line, start - starts[line - 1] + 1))
