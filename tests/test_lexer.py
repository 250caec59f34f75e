"""The regex lexer against the character-at-a-time reference tokenizer, at
its own piece size and at tiny ones, and the error precedence both parsers
keep: a bad character anywhere in the source is the error reported."""

import random
import tracemalloc
from itertools import accumulate

import pytest

from localfeatures import lexer, parse, parse_spl_definition
from localfeatures.errors import ParseError
from localfeatures.lexer import (
    DEFINITION_KEYWORDS,
    EOF,
    SPEC_KEYWORDS,
    TokenStream,
    lex,
    line_starts,
    tokenize,
)

from conftest import FIXTURES, packaged
from generators import random_token_soup, reference_tokenize, scale_spec_text

KEYWORD_SETS = pytest.mark.parametrize(
    "keywords", [SPEC_KEYWORDS, DEFINITION_KEYWORDS], ids=["spec", "definition"])

EDGE_CASES = ["", "// x", "1..2 -3.5 1.x -", "x-1", "--1", "_y",
              "a\r\nb\rc\r\n", "x\r\n\r\n  y", "x // end", "x\n// end\n", "\n\n",
              'x\n  "', "CREATE GIS g;\n_y", "a\r\né b"]
ALPHABET = 'aZ_09 \t\r\n-./*()[]{},;"é\x0b'
# Without the characters that can make the lexer fail, so that about half the
# random sources lex cleanly and are compared token by token.
TAME = ALPHABET.translate({ord(c): None for c in '"é\x0b/_-'})
# Piece sizes small enough that the sources above are cut into many pieces.
PIECES = pytest.mark.parametrize("chunk", [1, 5, 64], ids=lambda chunk: f"chunk{chunk}")
# Sources around a cut when a piece is 8 characters: each comment says where
# its pieces end.
BOUNDARIES = {
    "cut at the final newline": "abc def\n",  # one piece, ending at the source's end
    "whitespace after the final cut": "abc def\n \t",  # "abc def\n" | " \t"
    "a line longer than a piece":  # "CREATE ... (List);\n" | "x"
        "CREATE ENTITY E1 (id Long) WITH FEATURES (List);\nx",
    "CRLF at a cut": "abcdef\r\nxy\r\nz",  # "abcdef\r\n" | "xy\r\nz"
    "CRLF across the nominal cut": "abcdefg\r\nx",  # "abcdefg\r\n" | "x"
    "a comment across the nominal cut":  # "ab // comment\n" | "x // y\n\n" | "  -1.5"
        "ab // comment\nx // y\n\n  -1.5",
    "a skip across two cuts": "a      \n       \n   b",  # "a      \n" | "       \n" | "   b"
    "a bad character in a later piece": "abcdefg\nx y z w\n  @ z",  # ... | "  @ z"
    "the empty source": "",  # one empty piece
}


def fields(error):
    return error.message, error.line, error.column, error.start, error.end, error.expected


def outcome(read, source, keywords):
    """The tokens read gives, or the fields of the ParseError it raises."""
    try:
        return read(source, keywords)
    except ParseError as exc:
        return fields(exc)


def streamed(source, keywords):
    """The tokens a TokenStream walks over, up to and including EOF, each
    with the line and column its span works out on demand."""
    ts = TokenStream(source, keywords)
    tokens = []
    while True:
        kind, span = ts.kind, ts.span(ts.pos)
        tokens.append((kind, ts.texts[ts.pos], span.line, span.column, span.start, span.end))
        if kind == EOF:
            return tokens
        ts.expect(kind)


def random_sources(seed, count):
    rng = random.Random(seed)
    sources = []
    for _ in range(count):
        alphabet = rng.choice((ALPHABET, TAME))
        sources.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))))
    return sources


def raised(call, source):
    with pytest.raises(ParseError) as exc:
        call(source)
    return fields(exc.value)


SOURCES = pytest.mark.parametrize("source", [
    packaged("gis.spl"),
    packaged("webeiel.gis"),
    (FIXTURES / "ecommerce.spl").read_text(),
    scale_spec_text(),
    scale_spec_text(3),  # over lexer._CHUNK, so two pieces at the default size
    *EDGE_CASES,
], ids=["gis.spl", "webeiel.gis", "ecommerce.spl", "scale", "scale x3", *map(repr, EDGE_CASES)])


@KEYWORD_SETS
@SOURCES
def test_tokens_match_the_reference(source, keywords):
    assert outcome(streamed, source, keywords) == outcome(reference_tokenize, source, keywords)


@KEYWORD_SETS
@SOURCES
def test_tokenize_is_the_lexing_a_parse_walks(source, keywords):
    """tokenize gives the kind of every token a TokenStream walks over, EOF
    included, so its length is the stream's token count; at a bad character
    it raises what lex raises, as the stream does."""
    walked = outcome(streamed, source, keywords)
    if isinstance(walked, tuple):
        assert raised(lambda s: tokenize(s, keywords), source) == walked
        return
    kinds = tokenize(source, keywords)
    assert list(kinds) == [token[0] for token in walked]
    assert len(kinds) == len(TokenStream(source, keywords).texts)


@KEYWORD_SETS
def test_random_strings_lex_as_the_reference_does(keywords):
    sources = random_sources(4, 10000)
    failing = sum(isinstance(outcome(reference_tokenize, s, keywords), tuple)
                  for s in sources)
    assert 3300 < failing < 6700
    for source in sources:
        expected = outcome(reference_tokenize, source, keywords)
        assert outcome(streamed, source, keywords) == expected, repr(source)


@PIECES
@KEYWORD_SETS
@SOURCES
def test_pieces_lex_as_the_reference(source, keywords, chunk, monkeypatch):
    monkeypatch.setattr(lexer, "_CHUNK", chunk)
    test_tokens_match_the_reference(source, keywords)
    test_tokenize_is_the_lexing_a_parse_walks(source, keywords)


@PIECES
@KEYWORD_SETS
def test_random_strings_in_pieces_lex_as_the_reference(keywords, chunk, monkeypatch):
    monkeypatch.setattr(lexer, "_CHUNK", chunk)
    test_random_strings_lex_as_the_reference_does(keywords)


@KEYWORD_SETS
@pytest.mark.parametrize("source", BOUNDARIES.values(), ids=BOUNDARIES)
def test_a_cut_changes_no_token(source, keywords, monkeypatch):
    """Cut into pieces of 8 characters, a source lexes as the reference
    does and to the same kinds, texts and ends as in one piece."""
    whole = outcome(lex, source, keywords)
    monkeypatch.setattr(lexer, "_CHUNK", 8)
    assert outcome(lex, source, keywords) == whole
    assert outcome(streamed, source, keywords) == outcome(reference_tokenize, source, keywords)


@pytest.mark.parametrize("copies", [4, 16])
def test_lexing_holds_a_bounded_amount_beyond_its_result(copies):
    """Lexing splits one piece at a time, so its peak beyond the tokens it
    returns stays under one bound at both sizes; splitting the whole x16
    source at once held about 7 MB more than it returned."""
    source = scale_spec_text(copies)
    assert len(source) > 2 * lexer._CHUNK
    tracemalloc.start()
    try:
        tokens = lex(source, SPEC_KEYWORDS)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tokens[0][-1] == EOF
    assert peak - returned < 4 * 2**20


def split_line_starts(source):
    """The line starts read off the source split into lines: the reference."""
    return list(accumulate(map((1).__add__, map(len, source.split("\n")[:-1])), initial=0))


@SOURCES
def test_line_starts_match_splitting_into_lines(source):
    assert line_starts(source) == split_line_starts(source)
    assert line_starts(source + "\n") == split_line_starts(source + "\n")


def test_line_starts_hold_a_bounded_amount_beyond_their_result():
    """Only the offsets are built; splitting the x16 source into lines held
    about 1.3 MB more than the offsets it returned."""
    source = scale_spec_text(16)
    tracemalloc.start()
    try:
        starts = line_starts(source)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(starts) == source.count("\n") + 1
    assert peak - returned < 2**18


def test_edge_case_tokens():
    assert [t[:2] for t in streamed("1..2 -3.5 1.x x-1", SPEC_KEYWORDS)] == [
        ("NUMBER", "1"), ("..", ".."), ("NUMBER", "2"), ("NUMBER", "-3.5"),
        ("NUMBER", "1"), (".", "."), ("IDENT", "x"), ("IDENT", "x"),
        ("NUMBER", "-1"), (EOF, "")]
    assert streamed("// x", SPEC_KEYWORDS) == [(EOF, "", 1, 5, 4, 4)]
    assert outcome(streamed, "--1", SPEC_KEYWORDS) == (
        "unexpected character '-'", 1, 1, 0, 1, ())
    assert streamed("a\r\nb", SPEC_KEYWORDS)[1] == ("IDENT", "b", 2, 1, 3, 4)


@pytest.mark.parametrize("source", ["", "x", "CREATE GIS g;\n// end"])
def test_the_cursor_stays_on_eof(source):
    """Once the stream is exhausted, reading EOF returns the EOF token and
    stays on it, however often it is read; reading anything else there is a
    ParseError at EOF, never an IndexError."""
    ts = TokenStream(source, SPEC_KEYWORDS)
    while ts.kind != EOF:
        ts.expect(ts.kind)
    last = ts.pos
    assert last == len(ts.texts) - 1
    for _ in range(3):
        assert ts.expect(EOF) == last
        assert ts.match(EOF)
        assert not ts.match(";")
        assert (ts.pos, ts.kind) == (last, EOF)
    for read in (lambda: ts.expect(";"), lambda: ts.expect_run(";", ";"), ts.names):
        with pytest.raises(ParseError) as exc:
            read()
        assert exc.value.message == "unexpected end of input"
        assert (ts.pos, ts.kind) == (last, EOF)


# -- error precedence -----------------------------------------------------------

def test_a_bad_character_beats_an_earlier_syntax_error():
    with pytest.raises(ParseError) as exc:
        parse('CREATE FOO;\n"')
    assert str(exc.value) == "2:1: unexpected character '\"'"
    with pytest.raises(ParseError) as exc:
        parse("CREATE GIS x;\n_y")
    assert str(exc.value) == "2:1: unexpected character '_'"
    with pytest.raises(ParseError) as exc:
        parse_spl_definition("FEATUREMODEL { }\n// fine\n  @")
    assert str(exc.value) == "3:3: unexpected character '@'"
    # raised before parsing starts, so no parser error is chained to it
    assert exc.value.__context__ is None


def test_a_bad_character_at_the_end_of_a_large_source_wins():
    source = "CREATE FOO;\n" + scale_spec_text(50) + "@"
    offset = len(source) - 1
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert fields(exc.value) == ("unexpected character '@'", source.count("\n") + 1,
                                 offset - source.rfind("\n"), offset, offset + 1, ())
    assert exc.value.__context__ is None


@PIECES
def test_a_bad_character_at_the_end_of_a_large_source_in_pieces_wins(chunk, monkeypatch):
    monkeypatch.setattr(lexer, "_CHUNK", chunk)
    test_a_bad_character_at_the_end_of_a_large_source_wins()


@pytest.mark.parametrize("name, call, keywords", [
    ("webeiel.gis", parse, SPEC_KEYWORDS),
    ("gis.spl", parse_spl_definition, DEFINITION_KEYWORDS),
], ids=["webeiel.gis", "gis.spl"])
def test_mutated_sources_report_the_lexer_error_first(name, call, keywords):
    """Whenever the reference tokenizer rejects a mutated source, the parser
    raises exactly that error, wherever the first syntax error would be."""
    original = packaged(name)
    rng = random.Random(name)
    lexer_errors = 0
    for _ in range(4000):
        source = original
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(source) + 1)
            cut = rng.choice((0, 0, 1))
            source = source[:pos] + rng.choice(ALPHABET + "@#_") + source[pos + cut:]
        expected = outcome(reference_tokenize, source, keywords)
        if isinstance(expected, tuple):
            lexer_errors += 1
            assert raised(call, source) == expected, repr(source)
    assert lexer_errors > 1000


def test_definition_parser_survives_token_soups():
    rng = random.Random(82)
    for _ in range(3000):
        soup = random_token_soup(rng)
        with pytest.raises(ParseError) as err:
            parse_spl_definition(soup)
        assert err.value.line >= 1
        assert err.value.column >= 1
