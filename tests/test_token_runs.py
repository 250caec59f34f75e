"""TokenStream reads a keyword run and a list of names by comparing slices
of the token kinds in one step. Checked here against the token-at-a-time
reading kept in generators.ReferenceTokenStream: on sources mutated in and
around those runs and lists, both give the same tree, or the same error in
every field."""

import random

import pytest

from localfeatures import parse, parse_spl_definition, parser, spldef
from localfeatures.errors import LocalFeaturesError, ParseError
from localfeatures.lexer import DEFINITION_KEYWORDS, SPEC_KEYWORDS, TokenStream

from conftest import FIXTURES, packaged
from generators import ReferenceTokenStream, mutated_runs, scale_spec_text


def scale_sample() -> str:
    """Three each of the scale product's entities, layers and maps (the
    first maps have five clause-carrying layers and a clause of their own),
    and its product."""
    statements = scale_spec_text().split(";\n")
    return ";\n".join(statements[:3] + statements[107:110] + statements[257:260]
                       + statements[-2:])


def outcome(call, source):
    """repr of what call(source) returns, which shows every span, or the
    type and every field of what it raises."""
    try:
        return repr(call(source))
    except ParseError as error:
        return (type(error), error.message, error.line, error.column,
                error.start, error.end, error.expected)
    except LocalFeaturesError as error:  # a feature model or twin error
        return type(error), str(error), error.span


def reference_outcome(monkeypatch, module, call, source):
    with monkeypatch.context() as patched:
        patched.setattr(module, "TokenStream", ReferenceTokenStream)
        return outcome(call, source)


@pytest.mark.parametrize("source, call, module, keywords", [
    (packaged("webeiel.gis"), parse, parser, SPEC_KEYWORDS),
    (scale_sample(), parse, parser, SPEC_KEYWORDS),
    (packaged("gis.spl"), parse_spl_definition, spldef, DEFINITION_KEYWORDS),
    ((FIXTURES / "ecommerce.spl").read_text(), parse_spl_definition, spldef,
     DEFINITION_KEYWORDS),
], ids=["webeiel.gis", "scale", "gis.spl", "ecommerce.spl"])
def test_mutated_runs_read_as_the_reference_reads_them(monkeypatch, source, call,
                                                       module, keywords):
    assert outcome(call, source) == reference_outcome(monkeypatch, module, call, source)
    failures = 0
    for mutant in mutated_runs(source, keywords, random.Random(14), 600):
        expected = reference_outcome(monkeypatch, module, call, mutant)
        assert outcome(call, mutant) == expected, repr(mutant)
        failures += isinstance(expected, tuple)
    assert failures > 400  # most mutants are errors, as intended


@pytest.mark.parametrize("source", [
    "CREATE GIS g WITH FEATURES (a, b);",
    "CREATE GIS g WITH FEATURES ();",
    "CREATE GIS g WITH FEATURES (a,, b);",
    "CREATE GIS g WITH FEATURES (a b);",
    "CREATE GIS g WITH FEATURES (a, b,);",
    "CREATE GIS g WITH FEATURES (, a);",
    "CREATE GIS g WITH FEATURES (a, MAP);",
    "CREATE GIS g WITH FEATURES (a, 42);",
    "CREATE GIS g WITH FEATURES (a, b;",
    "CREATE GIS g WITH FEATURES (a, b",
    "CREATE GIS g WITH FEATURES (a,",
    "CREATE GIS g WITH FEATURES (",
    "CREATE GIS g WITH FEATURES a);",
    "CREATE GIS g WITH FEATURES ((a));",
    "CREATE GIS g WITH FEATURES (a)) (b);",
    "CREATE GIS g WITH",
    "CREATE GIS g WITH STYLES (a);",
    "CREATE GIS g FEATURES (a);",
])
def test_hand_written_lists_read_as_the_reference_reads_them(monkeypatch, source):
    assert outcome(parse, source) == reference_outcome(monkeypatch, parser, parse, source)


def test_equal_name_lists_are_one_tuple():
    stream = TokenStream("(a, b) (a, b) (b, a) () ( )", SPEC_KEYWORDS)
    first, second, swapped, empty, spaced = (stream.names() for _ in range(5))
    assert first == second == ("a", "b") and first is second
    assert swapped == ("b", "a")
    assert empty == spaced == () and empty is spaced
