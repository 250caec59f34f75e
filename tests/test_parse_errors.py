"""Every ParseError carries the character offsets of the text it blames: the
slice source[start:end] is that text, and (line, column) is the position of
start. Every field of every error is pinned by a recorded fixture."""

import ast
import json
import random
import re

import pytest

from localfeatures import parse, parse_spl_definition
from localfeatures.errors import LocalFeaturesError, ParseError

from conftest import FIXTURES, packaged
from generators import random_definition_soup, random_token_soup

PARSERS = pytest.mark.parametrize(
    "call", [parse, parse_spl_definition], ids=["spec", "definition"])
_UNEXPECTED = re.compile(r"unexpected (?:character )?('.*'|\".*\")")


def position(source, offset):
    """The 1-based line and column of a character offset."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def raised(call, source):
    with pytest.raises(ParseError) as exc:
        call(source)
    return exc.value


def check_offsets(error, source):
    """The offsets agree with the position, and slice out what the message
    blames: the unexpected token or character, nothing at end of input, and
    whole tokens otherwise (or nothing, for an error that blames no token)."""
    assert 0 <= error.start <= error.end <= len(source)
    assert position(source, error.start) == (error.line, error.column)
    blamed = source[error.start:error.end]
    if error.message == "unexpected end of input":
        assert blamed == "" and source[error.start:].strip() == ""
    elif m := _UNEXPECTED.fullmatch(error.message):
        assert blamed == ast.literal_eval(m.group(1))
    elif blamed:
        assert blamed == blamed.strip()
    else:
        assert error.start == 0


def check_span(error, source):
    """An error found while building what was read blames a range of the
    source, and its position is that of the range's start."""
    span = error.span
    assert span is not None, source
    assert 0 <= span.start <= span.end <= len(source)
    assert position(source, span.start) == (span.line, span.column)


@PARSERS
def test_token_soup_errors_slice_what_they_blame(call):
    rng = random.Random(91)
    for _ in range(3000):
        soup = random_token_soup(rng)
        check_offsets(raised(call, soup), soup)


def test_definition_soups_fail_inside_the_source():
    """Soups of definition words fail with a ParseError that slices what it
    blames, or with a model error whose span lies in the source; a few parse.
    Most fail after their first token, and some only once the models are
    built."""
    rng = random.Random(17)
    later = model_errors = 0
    for _ in range(3000):
        soup = random_definition_soup(rng)
        try:
            parse_spl_definition(soup)
        except ParseError as error:
            check_offsets(error, soup)
            later += soup[:error.start].strip() != ""
        except LocalFeaturesError as error:
            check_span(error, soup)
            later += 1
            model_errors += 1
    assert later >= 1800 and model_errors >= 10, (later, model_errors)


@pytest.mark.parametrize("name, call", [
    ("webeiel.gis", parse),
    ("gis.spl", parse_spl_definition),
])
def test_mutated_sources_slice_what_they_blame(name, call):
    original = packaged(name)
    rng = random.Random(name)
    for _ in range(500):
        pos = rng.randrange(len(original) + 1)
        source = original[:pos] + rng.choice('@#_";(),') + original[pos + rng.randint(0, 1):]
        try:
            call(source)
        except ParseError as error:
            check_offsets(error, source)
        except LocalFeaturesError as error:  # a feature model or twin error
            check_span(error, source)


@pytest.mark.parametrize("source, call, blamed", [
    ('CREATE FOO;\n"', parse, '"'),
    ("CREATE GIS x;\n_y", parse, "_"),
    ("FEATUREMODEL { }\n// fine\n  @", parse_spl_definition, "@"),
    ("CREATE GIS X WITH FEATURES (A", parse, ""),
    ("CREATE ENTITY E (a Long IDENTIFIER, b Long IDENTIFIER);\nCREATE GIS X;",
     parse, "b Long IDENTIFIER"),
    ("CREATE ENTITY E (a Long REQUIRED REQUIRED);", parse, "REQUIRED"),
    ("CREATE ENTITY E (r X RELATIONSHIP (2..1, 0..*));", parse, "2"),
    ("CREATE MAP m AS M WITH LAYERS (a IS_BASE_LAYER, b IS_BASE_LAYER WITH FEATURES (F));",
     parse, "b IS_BASE_LAYER WITH FEATURES (F)"),
    ("CREATE GIS X;\n  CREATE GIS Y WITH FEATURES ();", parse,
     "CREATE GIS Y WITH FEATURES ();"),
    ("CREATE ENTITY E (a Long);", parse, ""),
    ("FEATUREMODEL R {\n}\nDEFAULTS (A, B);", parse_spl_definition, "DEFAULTS (A, B);"),
    ("FEATUREMODEL R {\n}\nLOCAL W APPLIED TO data.Entity;", parse_spl_definition, "W"),
    ("FEATUREMODEL R {\n}\nFEATUREMODEL S {\n}\n", parse_spl_definition, "FEATUREMODEL"),
])
def test_each_error_slices_what_it_blames(source, call, blamed):
    error = raised(call, source)
    check_offsets(error, source)
    assert source[error.start:error.end] == blamed


# Per parser: random token soups (spec words from random_token_soup, and
# definition words) with their outcomes, and token-level mutations of a
# packaged source stored as (offset, deleted length, inserted text, outcome).
# An outcome is (type, message, line, column, expected, start, end), or null
# for a source that parses. A model error found while building what was read
# records str() and its span, with no expected kinds.
PINNED = json.loads((FIXTURES / "parse_errors.json").read_text(encoding="utf-8"))


def outcome(call, source):
    try:
        call(source)
    except ParseError as error:
        return [type(error).__name__, error.message, error.line, error.column,
                list(error.expected), error.start, error.end]
    except LocalFeaturesError as error:
        span = error.span
        return [type(error).__name__, str(error), span.line, span.column, [],
                span.start, span.end]
    return None


@pytest.mark.parametrize("key, call", [
    ("spec", parse),
    ("definition", parse_spl_definition),
])
def test_errors_match_the_pinned_record(key, call):
    pinned = PINNED[key]
    original = packaged(pinned["base"])
    cases = pinned["soups"] + [
        [original[:offset] + inserted + original[offset + deleted:], want]
        for offset, deleted, inserted, want in pinned["mutations"]]
    assert len(cases) >= 500
    mismatches = [(source, want, got) for source, want in cases
                  if (got := outcome(call, source)) != want]
    assert not mismatches, f"{len(mismatches)} differ; first: {mismatches[0]}"
