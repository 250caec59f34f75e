"""Canonical printing: parse(format_spec(s)) == s, and formatting is a fixpoint."""

import random

import pytest

from localfeatures import format_spec, parse
from localfeatures.syntax import BoundingBox, LayerRef, MapDecl, ProductDecl, ProductSpec

from generators import random_spec

CANONICAL = """\
CREATE ENTITY Hotel (
    id Long IDENTIFIER,
    name String DISPLAY_STRING REQUIRED,
    rooms Room RELATIONSHIP(1..1, 0..*) BIDIRECTIONAL,
    owner Owner RELATIONSHIP MAPPED_BY hotels
) WITH FEATURES ();

CREATE GEOJSON LAYER hotelsLayer AS Hotels FOR Hotel
WITH STYLES (
    stars DEFAULT,
    capacity
);

CREATE MAP hotelsMap AS Hotels map WITH LAYERS (
    base IS_BASE_LAYER DEFAULT_BASE_LAYER,
    hotelsLayer WITH FEATURES (Clustering)
), WITH CENTER [[40.712, -74.227], [40.774, -74.125]] WITH FEATURES (LayerManager);

CREATE GIS Demo WITH FEATURES (TopMenu);
"""


def test_canonical_text_prints_byte_for_byte():
    assert format_spec(parse(CANONICAL)) == CANONICAL


def test_golden_source_normalizes_to_a_fixpoint(webeiel_source):
    once = format_spec(parse(webeiel_source))
    assert once != webeiel_source  # the fixture uses tabs and extra spaces
    assert format_spec(parse(once)) == once


def test_golden_source_survives_a_print_and_reparse(webeiel_source, webeiel_spec):
    assert parse(format_spec(webeiel_spec)) == webeiel_spec
    assert parse(format_spec(webeiel_spec), filename="other.gis") == webeiel_spec


def test_absent_feature_clause_prints_nothing():
    text = format_spec(parse("CREATE GIS X;"))
    assert text == "CREATE GIS X;\n"


def test_empty_feature_clause_prints_an_empty_list():
    text = format_spec(parse("CREATE GIS X WITH FEATURES();"))
    assert text == "CREATE GIS X WITH FEATURES ();\n"


def test_statements_are_separated_by_blank_lines():
    text = format_spec(parse(
        "CREATE ENTITY E (id Long IDENTIFIER); CREATE GIS X;"))
    assert text == ("CREATE ENTITY E (\n"
                    "    id Long IDENTIFIER\n"
                    ");\n"
                    "\n"
                    "CREATE GIS X;\n")


def test_unbounded_cardinality_prints_as_a_star():
    source = ("CREATE ENTITY A (id Long IDENTIFIER);\n"
              "CREATE ENTITY B (a A RELATIONSHIP(0..*, 1..3));\n"
              "CREATE GIS X;")
    assert "RELATIONSHIP(0..*, 1..3)" in format_spec(parse(source))


def test_integer_valued_coordinates_keep_a_decimal_point():
    source = ("CREATE MAP m AS M WITH LAYERS (a IS_BASE_LAYER),\n"
              "WITH CENTER [[40.0, -74.0], [41.0, -73.0]];\nCREATE GIS X;")
    assert "WITH CENTER [[40.0, -74.0], [41.0, -73.0]]" in format_spec(parse(source))


def test_coordinates_of_any_magnitude_print_without_an_exponent():
    # repr writes 1e16 as 1e+16 and 0.00001 as 1e-05, which the lexer reads as
    # a number followed by a bad character
    rng = random.Random(2010)
    values = [1e16, 0.00001, 1.7976931348623157e308, 5e-324, -0.0, -1e-300, 2.5e-7,
              123456789012345680.0]
    values += [rng.choice((-1, 1)) * rng.uniform(1, 10) * 10.0 ** rng.randint(-30, 30)
               for _ in range(2000)]
    maps = tuple(
        MapDecl(f"m{i}", "M", (LayerRef("a", ("IS_BASE_LAYER",)),),
                BoundingBox(((values[i], values[i + 1]), (values[i + 2], values[i + 3]))))
        for i in range(0, len(values), 4))
    spec = ProductSpec((), (), maps, ProductDecl("X"))
    text = format_spec(spec)
    assert "WITH CENTER [[10000000000000000.0, 0.00001], [" in text
    reparsed = parse(text)
    assert [repr(m.center) for m in reparsed.maps] == [repr(m.center) for m in maps]
    assert format_spec(reparsed) == text


@pytest.mark.parametrize("seed", range(200))
def test_random_specs_round_trip_through_the_printer(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    text = format_spec(spec)
    assert parse(text) == spec
    assert format_spec(parse(text)) == text
