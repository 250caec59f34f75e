"""Tokenizer shared by the product-spec and product-line-definition parsers.

Keywords are case-sensitive uppercase words and each lexes as its own token
kind; every other word matching [A-Za-z][A-Za-z0-9_]* is an IDENT. Numbers
are optionally signed decimals. // starts a line comment.

One compiled pattern does the lexing: each match skips whitespace and
comments, then takes one token (or a character no token starts with, or the
end of input). iter_tokens yields the tokens lazily, so TokenStream keeps only
the token under the cursor alive rather than the whole list. Because of that
the parser can reach a syntax error before the lexer has seen a bad character
further on. TokenStream.run keeps the rule that a bad character anywhere in
the source is the error reported: when a parse fails, it lexes the rest of
the source, so a later bad character raises in place of the parser's error.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Callable, Iterator, NamedTuple

from .errors import ParseError
from .syntax import Span

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

# Groups: 1 word, 2 number (a fraction needs a digit after the dot, so "1..2"
# is 1 .. 2), 3 punctuation, 4 a character no token starts with. The \Z
# alternative ends the input with a match of its own; without it a trailing
# comment would make finditer retry one character later and see a lone "/".
# The possessive quantifiers (Python 3.11+) keep the engine from saving
# backtracking state it never needs; with plain greedy ones finditer takes
# about 10% longer over a 1.8 MB source.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)*+"
    r"(?:([A-Za-z][A-Za-z0-9_]*+)|(-?[0-9]++(?:\.[0-9]++)?+)"
    r"|(\.\.|[()\[\]{},;.*])|(.)|\Z)")
_WORD, _NUMBER, _PUNCT = 1, 2, 3


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int
    offset: int
    end: int

    @property
    def start(self) -> int:
        """The offset under the name a Span gives it, so that
        ParseError.at can blame a token or a span alike."""
        return self.offset


def iter_tokens(source: str, keywords: frozenset[str]) -> Iterator[Token]:
    """Tokens of source in order, ending with one EOF token; raises
    ParseError at the first character no token starts with."""
    new = tuple.__new__
    count = source.count
    rfind = source.rfind
    line = 1
    line_start = 0
    last = 0
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        pos = m.start(group) if group else m.end()
        newlines = count("\n", last, pos)
        if newlines:
            line += newlines
            line_start = rfind("\n", last, pos) + 1
        if group is None:
            yield new(Token, (EOF, "", line, pos - line_start + 1, pos, pos))
            return
        text = m.group(group)
        last = pos + len(text)
        if group == _WORD:
            kind = text if text in keywords else IDENT
        elif group == _NUMBER:
            kind = NUMBER
        elif group == _PUNCT:
            kind = text
        else:
            raise ParseError.at(f"unexpected character {text!r}",
                                Span(pos, last, line, pos - line_start + 1))
        yield new(Token, (kind, text, line, pos - line_start + 1, pos, last))


def tokenize(source: str, keywords: frozenset[str]) -> list[Token]:
    return list(iter_tokens(source, keywords))


class TokenStream:
    """Cursor over the tokens of a source, with positioned errors on
    mismatch."""

    def __init__(self, source: str, keywords: frozenset[str]):
        self._tokens = iter_tokens(source, keywords)
        self.current = next(self._tokens)

    def run(self, parse: Callable, *args):
        """parse(*args), except that a bad character anywhere after the
        cursor beats the ParseError it raises."""
        try:
            return parse(*args)
        except ParseError:
            deque(self._tokens, maxlen=0)  # raises at the next bad character
            raise

    def at(self, *kinds: str) -> bool:
        return self.current.kind in kinds

    def advance(self) -> Token:
        tok = self.current
        if tok.kind is not EOF:
            self.current = next(self._tokens)
        return tok

    def match(self, kind: str) -> Token | None:
        if self.current.kind == kind:
            return self.advance()
        return None

    def expect(self, *kinds: str) -> Token:
        tok = self.current
        if tok.kind in kinds:
            return self.advance()
        return self.fail(*kinds)

    def fail(self, *expected: str) -> Token:
        tok = self.current
        shown = tok.kind if tok.kind == EOF else f"{tok.text!r}"
        raise ParseError.at(f"unexpected {shown}", tok, expected)
