"""Specification parsing: golden structure, error positions, span soundness."""

import pytest

from localfeatures import parse
from localfeatures.errors import (
    DuplicateFlag,
    MissingProduct,
    MultipleProducts,
    ParseError,
)
from localfeatures.parser import parse_statement
from localfeatures.syntax import (
    Cardinality,
    FeatureClause,
    RelationshipSpec,
    Span,
)


# -- golden structure ----------------------------------------------------------

def test_golden_spec_declaration_counts(webeiel_spec):
    assert len(webeiel_spec.entities) == 2
    assert len(webeiel_spec.layers) == 2
    assert len(webeiel_spec.maps) == 2
    assert webeiel_spec.product.name == "WebEIEL"
    assert webeiel_spec.product.features == FeatureClause(
        ("TopMenu", "UserManagement"))


def test_golden_municipality_entity(webeiel_spec):
    municipality = webeiel_spec.entities[0]
    assert municipality.name == "Municipality"
    assert [p.name for p in municipality.properties] == [
        "id", "name", "geom", "hotels"]
    assert municipality.features == FeatureClause(
        ("Form", "List", "FormAccess", "Filterable"))

    id_, name, geom, hotels = municipality.properties
    assert (id_.type_name, id_.flags) == ("Long", ("IDENTIFIER",))
    assert (name.type_name, name.flags) == ("String", ("DISPLAY_STRING", "REQUIRED"))
    assert (geom.type_name, geom.relationship) == ("Polygon", None)
    assert hotels.type_name == "Hotel"
    assert hotels.relationship == RelationshipSpec(
        cardinalities=(Cardinality(1, 1), Cardinality(0, None)),
        bidirectional=True)


def test_golden_hotel_entity(webeiel_spec):
    hotel = webeiel_spec.entities[1]
    assert [p.name for p in hotel.properties] == [
        "id", "name", "stars", "capacity", "geom", "municipality"]
    inverse = hotel.properties[-1]
    assert inverse.relationship == RelationshipSpec(mapped_by="hotels")


def test_golden_layers(webeiel_spec):
    municipalities, hotels = webeiel_spec.layers
    assert municipalities.name == "municipalitiesLayer"
    assert municipalities.display_name == "Municipalities"
    assert municipalities.entity == "Municipality"
    assert municipalities.source_kind == "GEOJSON"
    assert [(s.name, s.is_default) for s in municipalities.styles] == [
        ("blueColor", True)]
    assert [(s.name, s.is_default) for s in hotels.styles] == [
        ("starsStyle", True), ("capacityStyle", False)]


def test_golden_maps(webeiel_spec):
    municipalities, hotels = webeiel_spec.maps
    assert municipalities.display_name == "Municipalities map"
    assert [r.name for r in municipalities.layers] == [
        "baseLayer", "municipalitiesLayer"]
    assert municipalities.layers[0].flags == (
        "IS_BASE_LAYER", "DEFAULT_BASE_LAYER")
    assert municipalities.center.corners == (
        (40.712, -74.227), (40.774, -74.125))
    assert municipalities.features is None

    assert hotels.display_name == "Hotels map"
    assert [r.name for r in hotels.layers] == [
        "baseLayer", "municipalitiesLayer", "hotelsLayer"]
    assert hotels.layers[2].features == FeatureClause(
        ("StyleSelector", "Clustering"))
    assert hotels.features == FeatureClause(("LayerManager", "UserGeolocation"))


def test_declarations_iterates_grouped_by_kind(webeiel_spec):
    kinds = [type(d).__name__ for d in webeiel_spec.declarations()]
    assert kinds == ["EntityDecl", "EntityDecl", "LayerDecl", "LayerDecl",
                     "MapDecl", "MapDecl", "ProductDecl"]


def test_minimal_product():
    spec = parse("CREATE GIS X;")
    assert spec.entities == () and spec.layers == () and spec.maps == ()
    assert spec.product.name == "X"
    assert spec.product.features is None


def test_empty_feature_clause_is_not_an_absent_one():
    spec = parse("CREATE GIS X WITH FEATURES ();")
    assert spec.product.features == FeatureClause(())
    assert spec.product.features != None  # noqa: E711  the point of the test


def test_comments_are_ignored():
    spec = parse("// product line demo\nCREATE GIS X; // done\n")
    assert spec.product.name == "X"


# -- product bracketing ----------------------------------------------------------

def test_spec_without_a_product_is_rejected(webeiel_source):
    headless = webeiel_source.replace(
        "CREATE GIS WebEIEL WITH FEATURES (TopMenu, UserManagement);", "")
    with pytest.raises(MissingProduct):
        parse(headless)


def test_second_product_is_rejected():
    with pytest.raises(MultipleProducts) as exc:
        parse("CREATE GIS One;\nCREATE GIS Two;")
    assert (exc.value.line, exc.value.column) == (2, 1)


# -- error positions -------------------------------------------------------------

def test_missing_comma_before_center_is_reported_at_the_center_keyword(webeiel_source):
    mutated = webeiel_source.replace(
        "), WITH CENTER [ [40.712, -74.227], [40.774, -74.125] ];",
        ") WITH CENTER [ [40.712, -74.227], [40.774, -74.125] ];")
    with pytest.raises(ParseError) as exc:
        parse(mutated)
    assert (exc.value.line, exc.value.column) == (25, 8)
    assert exc.value.expected == ("FEATURES",)


def test_unexpected_character_is_positioned():
    with pytest.raises(ParseError) as exc:
        parse("CREATE GIS X?;")
    assert "unexpected character" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (1, 13)


def test_lowercase_keywords_are_not_keywords():
    with pytest.raises(ParseError) as exc:
        parse("create GIS X;")
    assert (exc.value.line, exc.value.column) == (1, 1)
    assert "CREATE" in exc.value.expected


def test_error_message_carries_the_expected_tokens():
    with pytest.raises(ParseError) as exc:
        parse("CREATE")
    assert {"ENTITY", "MAP", "GIS"} <= set(exc.value.expected)
    assert "expected" in str(exc.value)
    assert str(exc.value).startswith("1:")


@pytest.mark.parametrize("source", [
    "CREATE ENTITY E (id Long IDENTIFIER REQUIRED REQUIRED);\nCREATE GIS X;",
    "CREATE ENTITY E (id Long IDENTIFIER, k Long IDENTIFIER);\nCREATE GIS X;",
    "CREATE ENTITY E (a String DISPLAY_STRING, b String DISPLAY_STRING);\nCREATE GIS X;",
    ("CREATE GEOJSON LAYER l AS L FOR E WITH STYLES (a DEFAULT, b DEFAULT);\n"
     "CREATE GIS X;"),
    ("CREATE MAP m AS M WITH LAYERS (a IS_BASE_LAYER IS_BASE_LAYER);\n"
     "CREATE GIS X;"),
    ("CREATE MAP m AS M WITH LAYERS (a IS_BASE_LAYER)\n"
     "WITH FEATURES () WITH FEATURES ();\nCREATE GIS X;"),
])
def test_duplicate_flags_and_clauses_are_rejected(source):
    with pytest.raises(DuplicateFlag):
        parse(source)


def test_center_declared_twice_is_rejected():
    source = ("CREATE MAP m AS M WITH LAYERS (a IS_BASE_LAYER),\n"
              "WITH CENTER [ [0.0, 0.0], [1.0, 1.0] ],\n"
              "WITH CENTER [ [0.0, 0.0], [1.0, 1.0] ];\nCREATE GIS X;")
    with pytest.raises(ParseError, match="CENTER twice") as exc:
        parse(source)
    assert exc.value.line == 3


def test_map_needs_exactly_one_base_layer():
    with pytest.raises(ParseError, match="no layer IS_BASE_LAYER") as exc:
        parse("CREATE MAP m AS M WITH LAYERS (a, b);\nCREATE GIS X;")
    assert (exc.value.line, exc.value.column) == (1, 36)

    with pytest.raises(ParseError, match="more than one") as exc:
        parse("CREATE MAP m AS M WITH LAYERS (a IS_BASE_LAYER, b IS_BASE_LAYER);\n"
              "CREATE GIS X;")
    assert (exc.value.line, exc.value.column) == (1, 49)


def test_default_base_layer_requires_the_base_flag():
    with pytest.raises(ParseError, match="DEFAULT_BASE_LAYER") as exc:
        parse("CREATE MAP m AS M WITH LAYERS (a DEFAULT_BASE_LAYER);\nCREATE GIS X;")
    assert (exc.value.line, exc.value.column) == (1, 32)


def test_relationship_needs_an_entity_type():
    with pytest.raises(ParseError, match="built-in type"):
        parse("CREATE ENTITY E (h String RELATIONSHIP MAPPED_BY x);\nCREATE GIS X;")


# each malformed cardinality, and the column on line 2 its error is reported at
MALFORMED_CARDINALITIES = {"x..1": 35, "1.5..2": 35, "-1..1": 35, "1..y": 38, "2..1": 35}


@pytest.mark.parametrize("cardinality", MALFORMED_CARDINALITIES)
def test_malformed_cardinalities_are_rejected(cardinality):
    with pytest.raises(ParseError) as exc:
        parse("CREATE ENTITY E (id Long IDENTIFIER);\n"
              f"CREATE ENTITY F (e E RELATIONSHIP({cardinality}, 0..*));\n"
              "CREATE GIS X;")
    assert (exc.value.line, exc.value.column) == (2, MALFORMED_CARDINALITIES[cardinality])


@pytest.mark.parametrize("old, new, column", [
    ("40.712", "9" * 400, 19),
    ("-74.125", "-" + "9" * 400, 46),
], ids=["positive", "negative"])
def test_non_finite_coordinates_are_rejected_at_the_number(webeiel_source, old, new, column):
    # float() turns 400 digits into inf, which JSON cannot carry
    with pytest.raises(ParseError) as exc:
        parse(webeiel_source.replace(old, new, 1))
    assert exc.value.message == "coordinate out of range"
    assert (exc.value.line, exc.value.column) == (25, column)


@pytest.mark.parametrize("cardinality, column", [
    ("9" * 5000 + "..1", 35), ("1.." + "9" * 5000, 38)], ids=["low", "high"])
def test_cardinality_bounds_beyond_int_conversion_are_rejected(cardinality, column):
    # int() refuses more than 4300 digits with a ValueError
    with pytest.raises(ParseError) as exc:
        parse("CREATE ENTITY E (id Long IDENTIFIER);\n"
              f"CREATE ENTITY F (e E RELATIONSHIP({cardinality}, 0..*));\n"
              "CREATE GIS X;")
    assert exc.value.message == "cardinality bound out of range"
    assert (exc.value.line, exc.value.column) == (2, column)


@pytest.mark.parametrize("upper", ["*", "3"])
def test_wellformed_cardinalities(upper):
    spec = parse("CREATE ENTITY E (id Long IDENTIFIER);\n"
                 f"CREATE ENTITY F (e E RELATIONSHIP(1..{upper}, 0..2));\n"
                 "CREATE GIS X;")
    lower_card = spec.entities[1].properties[0].relationship.cardinalities[0]
    assert lower_card == Cardinality(1, None if upper == "*" else 3)


@pytest.mark.parametrize("source", [
    "CREATE GIS X WITH FEATURES (A, B,);",
    "CREATE GEOJSON LAYER l AS L FOR E WITH STYLES ();\nCREATE GIS X;",
    "CREATE MAP m AS M WITH LAYERS ();\nCREATE GIS X;",
    "CREATE MAP m AS M WITH LAYERS (a IS_BASE_LAYER) WITH CENTER [];\nCREATE GIS X;",
    "CREATE ENTITY E ();\nCREATE GIS X;",
    "CREATE ENTITY E (id Long IDENTIFIER) AS;\nCREATE GIS X;",
])
def test_malformed_lists_are_rejected(source):
    with pytest.raises(ParseError):
        parse(source)


def test_display_names_need_at_least_one_word():
    with pytest.raises(ParseError, match="display name"):
        parse("CREATE MAP m AS WITH LAYERS (a IS_BASE_LAYER);\nCREATE GIS X;")


def test_display_names_may_mix_words_and_numbers():
    spec = parse("CREATE MAP m AS Regional overview 2024 WITH LAYERS "
                 "(a IS_BASE_LAYER);\nCREATE GIS X;")
    assert spec.maps[0].display_name == "Regional overview 2024"


# -- spans -----------------------------------------------------------------------

def test_every_golden_declaration_reparses_from_its_span(webeiel_source, webeiel_spec):
    for decl in webeiel_spec.declarations():
        snippet = decl.span.slice(webeiel_source)
        assert parse_statement(snippet) == decl


def test_parse_statement_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_statement("CREATE GIS X; CREATE GIS Y;")


def test_spans_carry_no_weight_in_equality(webeiel_source, webeiel_spec):
    # reparsing shifted text yields equal nodes despite different spans
    shifted = "// header\n" + webeiel_source
    reparsed = parse(shifted)
    assert reparsed.entities[0].span != webeiel_spec.entities[0].span
    assert reparsed == webeiel_spec
    assert hash(reparsed.product) == hash(webeiel_spec.product)


def test_a_span_is_an_immutable_hashable_record():
    span = Span(3, 8, 1, 4)
    assert (span.start, span.end, span.line, span.column) == (3, 8, 1, 4)
    assert span == Span(3, 8, 1, 4)
    assert hash(span) == hash(Span(3, 8, 1, 4))
    assert span != Span(3, 8, 2, 4)
    assert len({span, Span(3, 8, 1, 4), Span(3, 9, 1, 4)}) == 2
    with pytest.raises(AttributeError):
        span.start = 0
    assert span.slice("abcdefghij") == "defgh"
    assert repr(span) == "Span(start=3, end=8, line=1, column=4)"


def test_nodes_compare_and_hash_without_their_spans():
    here, there = Span(0, 5, 1, 1), Span(10, 15, 2, 3)
    assert FeatureClause(("A",), here) == FeatureClause(("A",), there)
    assert hash(FeatureClause(("A",), here)) == hash(FeatureClause(("A",), there))
    assert FeatureClause(("A",), here) != FeatureClause(("B",), here)
