"""Derivation-config emission: deterministic JSON, schema conformance."""

import json
import random
import subprocess
import sys

import pytest

from localfeatures import emit, parse, parse_spl_definition, resolve, verify_schema
from localfeatures.emitter import SCHEMA_VERSION, _write
from localfeatures.errors import UnresolvedErrors
from localfeatures.resolver import ResolvedProduct
from localfeatures.syntax import (
    BoundingBox,
    Cardinality,
    EntityDecl,
    LayerDecl,
    LayerRef,
    MapDecl,
    ProductDecl,
    ProductSpec,
    PropertyDecl,
    RelationshipSpec,
    StyleRef,
)

from generators import derivation_config, definition_clauses, random_spec, scale_spec_text


@pytest.fixture(scope="session")
def golden_json(webeiel_resolved):
    return emit(webeiel_resolved)


@pytest.fixture(scope="session")
def golden_config(golden_json):
    return json.loads(golden_json)


def dumps(config) -> str:
    return json.dumps(config, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


# -- shape -------------------------------------------------------------------------

def test_top_level_shape(golden_config):
    assert set(golden_config) == {
        "schemaVersion", "product", "features", "data", "visualization",
        "bindings"}
    assert golden_config["schemaVersion"] == SCHEMA_VERSION == 1
    assert golden_config["product"] == "WebEIEL"


def test_features_mirror_the_included_tuple(golden_config, webeiel_resolved):
    assert golden_config["features"] == list(webeiel_resolved.included)
    assert golden_config["features"] == sorted(golden_config["features"])


def test_bindings_carry_every_effective_configuration(
        golden_config, webeiel_resolved):
    bindings = golden_config["bindings"]
    assert set(bindings) == set(webeiel_resolved.effective)
    for element, names in bindings.items():
        assert names == sorted(webeiel_resolved.effective[element])
    assert bindings["visualization.hotelsMap"] == [
        "LayerManager", "MapFeature", "UserGeolocation"]


def test_relationships_serialize_both_ways(golden_config):
    municipality, hotel = golden_config["data"]["entities"]
    hotels_property = municipality["properties"][-1]
    assert hotels_property["relationship"] == {
        "cardinalities": ["1..1", "0..*"], "bidirectional": True}
    inverse = hotel["properties"][-1]
    assert inverse["relationship"] == {"mappedBy": "hotels"}
    assert "relationship" not in municipality["properties"][0]


def test_layers_and_maps_serialize_declaratively(golden_config):
    layers = golden_config["visualization"]["layers"]
    assert layers[0] == {
        "name": "municipalitiesLayer",
        "displayName": "Municipalities",
        "entity": "Municipality",
        "source": "GEOJSON",
        "styles": [{"name": "blueColor", "default": True}],
    }
    maps = golden_config["visualization"]["maps"]
    assert maps[0]["center"] == [[40.712, -74.227], [40.774, -74.125]]
    assert maps[0]["layers"][0] == {
        "layer": "baseLayer",
        "flags": ["IS_BASE_LAYER", "DEFAULT_BASE_LAYER"]}
    assert maps[1]["layers"][2]["flags"] == []


def test_minimal_product_emits_empty_sections(gis_definition):
    resolved = resolve(parse("CREATE GIS X;"), gis_definition)
    config = json.loads(emit(resolved))
    assert config["data"]["entities"] == []
    assert config["visualization"] == {"layers": [], "maps": []}
    assert config["bindings"] == {}
    assert config["features"] == [
        "EntityFeature", "GIS_SPL", "LayerFeature", "MapFeature"]


# -- determinism ---------------------------------------------------------------------

def test_two_fresh_resolutions_emit_identical_bytes(
        webeiel_source, gis_spl_source, golden_json):
    from localfeatures.spldef import parse_spl_definition

    spec = parse(webeiel_source, filename="webeiel.gis")
    definition = parse_spl_definition(gis_spl_source, filename="gis.spl")
    assert emit(resolve(spec, definition)) == golden_json


def test_emitted_text_is_canonical_json(golden_json):
    assert golden_json.endswith("\n")
    assert dumps(json.loads(golden_json)) == golden_json


def test_emission_refuses_pending_errors(gis_definition):
    resolved = resolve(
        parse("CREATE GIS X WITH FEATURES (Bogus);"), gis_definition)
    with pytest.raises(UnresolvedErrors, match="1 error diagnostics pending"):
        emit(resolved)


def test_warnings_do_not_block_emission():
    from localfeatures.spldef import parse_spl_definition

    definition = parse_spl_definition(
        "VIEWPOINT data (Entity);\n"
        "FEATUREMODEL G {\n    OPTIONAL W {\n        MANDATORY M\n    }\n}\n"
        "FEATUREMODEL W {\n    MANDATORY M\n}\n"
        "LOCAL W APPLIED TO data.Entity;\n")
    resolved = resolve(
        parse("CREATE ENTITY E (id Long IDENTIFIER) WITH FEATURES ();\n"
              "CREATE GIS X;"), definition)
    assert resolved.warnings and not resolved.errors
    assert verify_schema(emit(resolved))


# -- schema ---------------------------------------------------------------------------

def test_golden_and_minimal_configs_conform(golden_json, gis_definition):
    assert verify_schema(golden_json)
    minimal = emit(resolve(parse("CREATE GIS X;"), gis_definition))
    assert verify_schema(minimal)


def test_non_json_text_does_not_conform():
    assert not verify_schema("{")
    assert not verify_schema("")


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_numbers_do_not_conform(golden_json, constant):
    # json.loads reads these constants, but they are not JSON
    assert "40.712" in golden_json
    assert not verify_schema(golden_json.replace("40.712", constant, 1))


@pytest.mark.parametrize("text", ["[" * 100000, '{"a":' * 100000],
                         ids=["arrays", "objects"])
def test_deeply_nested_text_does_not_conform(text):
    # json.loads raises RecursionError here; verify_schema must not
    assert verify_schema(text) is False


@pytest.mark.parametrize("mutate", [
    lambda c: c.__setitem__("features", {}),
    lambda c: c.__setitem__("schemaVersion", 2),
    lambda c: c.__setitem__("extra", True),
    lambda c: c.pop("product"),
    lambda c: c["bindings"].__setitem__("not an element!", ["GIS_SPL"]),
    lambda c: c["bindings"].__setitem__("data.Hotel", ["not an ident!"]),
    lambda c: c["data"]["entities"][0].__setitem__("properties", []),
    lambda c: c["visualization"]["maps"][0].__setitem__("layers", []),
    lambda c: c["visualization"]["maps"][0]["layers"][0]["flags"].append("LOUD"),
    lambda c: c["data"]["entities"][0]["properties"][0].__setitem__(
        "flags", ["IS_BASE_LAYER"]),
    lambda c: c["visualization"]["layers"][0].__setitem__("styles", []),
])
def test_schema_is_closed_against_mutations(golden_json, mutate):
    config = json.loads(golden_json)
    mutate(config)
    assert not verify_schema(dumps(config))


def test_importing_the_package_does_not_import_jsonschema(package_env):
    # jsonschema is a test dependency only: the package never imports it,
    # and its own schema checker waits for the first verify_schema call
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, localfeatures; "
         "print('jsonschema' in sys.modules, 'localfeatures.schemacheck' in sys.modules)"],
        capture_output=True, text=True, env=package_env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False\n"

    # and verify_schema works where jsonschema cannot be imported: a None
    # entry in sys.modules makes any import of it fail
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from localfeatures import emit, parse, resolve, verify_schema\n"
        "from localfeatures.spldef import parse_spl_definition\n"
        "from importlib import resources\n"
        "data = resources.files('localfeatures') / 'data'\n"
        "resolved = resolve(parse((data / 'webeiel.gis').read_text()),\n"
        "                   parse_spl_definition((data / 'gis.spl').read_text()))\n"
        "print(verify_schema(emit(resolved)))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=package_env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_derivation_config_is_plain_data(webeiel_resolved):
    config = derivation_config(webeiel_resolved)
    assert json.loads(json.dumps(config)) == config


# -- the writer against json.dumps, its oracle ------------------------------------------

def test_emit_writes_what_json_dumps_writes(webeiel_resolved, gis_definition, gis_spl_source):
    for source in ("CREATE GIS Minimal;", scale_spec_text(), scale_spec_text(50)):
        resolved = resolve(parse(source), gis_definition)
        assert emit(resolved) == dumps(derivation_config(resolved))
    assert emit(webeiel_resolved) == dumps(derivation_config(webeiel_resolved))

    # with two local models covering data.Entity, each entity's effective
    # configuration is a union of its own: equal values, distinct objects
    two_on_entities = parse_spl_definition(
        gis_spl_source + "LOCAL MapFeature APPLIED TO data.Entity;\n")
    resolved = resolve(parse(scale_spec_text(2)), two_on_entities)
    entities = [c for e, c in resolved.effective.items() if e.startswith("data.")]
    assert len({id(c) for c in entities}) == len(entities) > len(set(entities))
    assert emit(resolved) == dumps(derivation_config(resolved))


def test_the_writer_matches_json_dumps_on_fuzz_products(gis_definition, ecommerce_on_entities):
    clean = dirty = 0
    for definition in (gis_definition, ecommerce_on_entities):
        draw = definition_clauses(definition)
        for seed in range(100):
            resolved = resolve(random_spec(random.Random(seed), draw), definition)
            expected = dumps(derivation_config(resolved))  # with or without errors
            assert _write(resolved) == expected, seed
            if resolved.errors:
                dirty += 1
            else:
                clean += 1
                assert emit(resolved) == expected, seed
    assert clean > 20 and dirty > 20


def hand_built(entities=(), layers=(), maps=(), product="P", effective=None,
               included=()) -> ResolvedProduct:
    """A resolved product straight from AST nodes, with values the parser
    and resolver never produce."""
    spec = ProductSpec(tuple(entities), tuple(layers), tuple(maps), ProductDecl(product))
    return ResolvedProduct(None, effective or {}, tuple(included), (), spec, None)


def entity(name="E", properties=()):
    return EntityDecl(name, tuple(properties))


def relation(lower, upper, other_lower=0, other_upper=None, bidirectional=False):
    return RelationshipSpec(
        (Cardinality(lower, upper), Cardinality(other_lower, other_upper)), bidirectional)


def centered(*corners):
    return MapDecl("M", "Map", (), BoundingBox(corners))


ODD = ['"', "\\", "a\nb", "\x00\x01\x1f\x7f\b\f\r\t", "\u2028\u2029", "é ñ ü",
       "\U0001f5fa \U00010000", "\ud800", "a/b", "%s %d %%", ""]
SHARED = frozenset({"B", "A"})

HAND_BUILT = {
    "every-branch": hand_built(
        entities=[
            entity("Town", [
                PropertyDecl("id", "Long", ("IDENTIFIER",)),
                PropertyDecl("name", "String", ("DISPLAY_STRING", "REQUIRED")),
                PropertyDecl("hotels", "Hotel", (), relation(1, 1, 0, None, True)),
                PropertyDecl("mayor", "Person", (), relation(0, 1, 1, 5)),
            ]),
            entity("Hotel", [PropertyDecl("town", "Town", (),
                                          RelationshipSpec(mapped_by="hotels"))]),
        ],
        layers=[LayerDecl("l", "Layer", "Hotel", "GEOJSON",
                          (StyleRef("a"), StyleRef("b", True), StyleRef("c")))],
        maps=[MapDecl("m", "Map", (LayerRef("base", ("IS_BASE_LAYER", "DEFAULT_BASE_LAYER")),
                                   LayerRef("l")),
                      BoundingBox(((-0.0, 1e16), (5e-324, 40.712)))),
              MapDecl("n", "Other", (LayerRef("l"),))],
        effective={"visualization.m": SHARED, "data.Town": frozenset({"Z", "A"}),
                   "visualization.n": SHARED, "data.Hotel": SHARED},
        included=("A", "B", "Z")),
    "strings": hand_built(
        entities=[entity(n, [PropertyDecl(n, n, (n,), RelationshipSpec(mapped_by=n))])
                  for n in ODD],
        layers=[LayerDecl(n, n, n, n, (StyleRef(n),)) for n in ODD],
        maps=[MapDecl(n, n, (LayerRef(n, (n,)),)) for n in ODD],
        product='quote " newline \n separator \u2028 astral \U0001f5fa',
        effective={n: frozenset(ODD) for n in ODD}, included=ODD),
    "floats": hand_built(maps=[
        centered((-0.0, 0.0), (1e16, 1e-7)),
        centered((5e-324, 1.7976931348623157e308), (40.712, -74.125)),
        centered((0.1, -1e-300), (123456789.0, -2.5))]),
    "ints": hand_built(entities=[entity("E", [
        PropertyDecl("a", "T", (), relation(0, None)),
        PropertyDecl("b", "T", (), relation(2 ** 70, 2 ** 70, 7, 10 ** 30, True))])]),
    "empty": hand_built(),
    "key-order": hand_built(
        effective={k: frozenset({"b", "a", "B", "é", "\U0001f5fa", "a b"})
                   for k in ["b", "a", "B", "é", "\U0001f5fa", "a b", "a.b", "a-b"]}),
    "empty-list": hand_built(
        entities=[entity("E"), entity("F", [PropertyDecl("p", "Long")])],
        layers=[LayerDecl("l", "L", "E", "WMS", ())],
        maps=[MapDecl("m", "M", ()), MapDecl("n", "N", (LayerRef("l"),))],
        effective={"data.E": frozenset()}),
    "empty-object": hand_built(entities=[entity("E")], layers=[
        LayerDecl("l", "L", "E", "WMS", (StyleRef("s", True),))]),
    "null": hand_built(
        entities=[entity("E", [PropertyDecl("p", "Long", ("IDENTIFIER",), None)])],
        maps=[MapDecl("m", "M", (LayerRef("l"),), None)]),
    "shared": hand_built(effective={
        # one object shared, and equal but distinct objects
        **{f"e{i}": SHARED for i in range(5)},
        **{f"f{i}": frozenset({"A", "B"}) for i in range(5)},
        **{f"g{i}": frozenset({f"X{i}"}) for i in range(5)}}),
}


@pytest.mark.parametrize("resolved", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_the_writer_matches_json_dumps_on_hand_built_values(resolved):
    assert _write(resolved) == dumps(derivation_config(resolved))
    assert emit(resolved) == _write(resolved)


@pytest.mark.parametrize("build", [
    lambda: hand_built(product={1, 2}),
    lambda: hand_built(layers=[LayerDecl("l", object(), "E", "WMS", ())]),
    lambda: hand_built(entities=[entity(b"bytes")]),
    lambda: hand_built(entities=[entity("E", [PropertyDecl("p", "T", (frozenset(),))])]),
    lambda: hand_built(effective={1: SHARED}),
    lambda: hand_built(effective={("t",): SHARED}),
], ids=["set", "object", "bytes", "nested-frozenset", "int-key", "tuple-key"])
def test_the_writer_rejects_what_it_cannot_write(build):
    # a name that is not a str raises rather than being written unquoted
    with pytest.raises(TypeError):
        _write(build())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), (1.0, float("-inf"))])
def test_the_writer_rejects_non_finite_floats(value):
    # a float as the first coordinate, a pair as the second corner
    if isinstance(value, float):
        resolved = hand_built(maps=[centered((value, 0.0), (0.0, 0.0))])
    else:
        resolved = hand_built(maps=[centered((0.0, 0.0), value)])
    with pytest.raises(ValueError, match="is not JSON"):
        emit(resolved)
