"""The compiled schema check against jsonschema's Draft-07 validator, the
oracle it replaced: on every emitted fixture, on seeded and exhaustive
mutations of them, and on small schemas that pin Draft-07's edge cases."""

import copy
import json
import random
from importlib import resources

import jsonschema
import pytest

from localfeatures import emit, parse, resolve, verify_schema
from localfeatures.schemacheck import compile_schema
from localfeatures.errors import UnsupportedSchema

from generators import definition_clauses, random_spec, scale_spec_text

SCHEMA = json.loads((resources.files("localfeatures") / "schema"
                     / "derivation-config.schema.json").read_text(encoding="utf-8"))
ORACLE = jsonschema.Draft7Validator(SCHEMA)
NON_OBJECTS = [[], "x", 1, 1.5, True, None]


def oracle(text: str) -> bool:
    try:
        document = json.loads(text)
    except ValueError:
        return False
    return ORACLE.is_valid(document)


def dumps(document) -> str:
    return json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def disagreements(documents) -> list[str]:
    """Labels of the (label, document) pairs the two checks judge differently."""
    found = []
    for label, document in documents:
        text = dumps(document)
        if verify_schema(text) != oracle(text):
            found.append(f"{label}: verify_schema says {verify_schema(text)}")
    return found


# -- mutations -------------------------------------------------------------------------

def nodes(node, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from nodes(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from nodes(value, path + (index,))


def replaced(document, path, value):
    """A copy of the document with the value at path replaced."""
    if not path:
        return value
    out = copy.deepcopy(document)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return out


def variants(value):
    """The mutations of one value: every one keeps the rest of the document."""
    if isinstance(value, dict):
        for key in value:
            yield f"drop {key!r}", {k: v for k, v in value.items() if k != key}
        yield "extra key", {**value, "extra": True}
        if "cardinalities" in value or "mappedBy" in value:
            # a relationship with both branches' keys, or with neither
            yield "both branches", {"cardinalities": ["1..1", "0..*"],
                                    "bidirectional": True, "mappedBy": "x"}
            yield "no branch", {"bidirectional": True}
        for other in NON_OBJECTS:
            yield f"non-object {other!r}", other
    elif isinstance(value, list):
        yield "empty", []
        if value:
            yield "one fewer", value[:-1]
            yield "one more", value + value[-1:]
        yield "non-array", {}
    elif isinstance(value, str):
        for text in (value + "\n", "\n" + value, "", "bad name", "9x", "a.b",
                     "a..b", ".a", value + "."):
            yield f"string {text!r}", text
        yield "number for a string", 1
    elif isinstance(value, bool):
        yield "1 for a boolean", 1
        yield "string for a boolean", "true"
    elif isinstance(value, (int, float)):
        yield "true for a number", True
        yield "false for a number", False
        yield "float", float(value)
        yield "one more", value + 1
        yield "string for a number", str(value)
    yield "null", None


def location(path) -> tuple:
    """The path with array indices and binding names wildcarded: values at one
    location are checked against the same subschema."""
    return tuple("*" if isinstance(step, int) or (i == 1 and path[0] == "bindings")
                 else step for i, step in enumerate(path))


def exhaustive_mutations(document):
    """Every variant of the first value at each location, plus extra keys in
    the bindings."""
    seen = set()
    for path, value in nodes(document):
        if location(path) not in seen:
            seen.add(location(path))
            for label, variant in variants(value):
                yield f"{path} {label}", replaced(document, path, variant)
    for key in ("data.Hotel\n", "data", "data..X", "Data.X", "data.X.", "data.9"):
        bindings = {**document["bindings"], key: ["GIS_SPL"]}
        yield f"binding key {key!r}", replaced(document, ("bindings",), bindings)


def seeded_mutations(document, rng: random.Random, count: int):
    """count mutations, each of a value drawn with rng."""
    everything = list(nodes(document))
    for _ in range(count):
        path, value = rng.choice(everything)
        label, variant = rng.choice(list(variants(value)))
        yield f"{path} {label}", replaced(document, path, variant)


# -- fixtures --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden(webeiel_resolved):
    return json.loads(emit(webeiel_resolved))


@pytest.fixture(scope="module")
def minimal(gis_definition):
    return json.loads(emit(resolve(parse("CREATE GIS Minimal;"), gis_definition)))


@pytest.fixture(scope="module")
def scale_x1(gis_definition):
    return json.loads(emit(resolve(parse(scale_spec_text()), gis_definition)))


@pytest.fixture(scope="module")
def fuzz_products(gis_definition, ecommerce_on_entities):
    """The clean products of the definition-aware fuzz, 300 seeds per definition."""
    documents = []
    for name, definition in (("gis", gis_definition),
                             ("ecommerce", ecommerce_on_entities)):
        draw = definition_clauses(definition)
        for seed in range(300):
            resolved = resolve(random_spec(random.Random(seed), draw), definition)
            if not resolved.errors:
                documents.append((f"{name} seed {seed}", json.loads(emit(resolved))))
    return documents


# -- the packaged schema ---------------------------------------------------------------

def test_the_packaged_schema_compiles():
    check = compile_schema(SCHEMA)
    assert check(json.loads(dumps(SCHEMA))) is False  # a schema is no derivation


def test_emitted_fixtures_agree(golden, minimal, scale_x1, fuzz_products):
    documents = [("golden", golden), ("minimal", minimal),
                 ("scale x1", scale_x1)] + fuzz_products
    assert len(fuzz_products) > 50
    for label, document in documents:
        assert verify_schema(dumps(document)), label
        assert oracle(dumps(document)), label


def test_every_mutation_of_the_golden_document_agrees(golden):
    mutations = list(exhaustive_mutations(golden))
    assert len(mutations) > 300
    assert disagreements(mutations) == []
    # both accept and reject among them, so agreement shows something
    verdicts = {verify_schema(dumps(document)) for _, document in mutations}
    assert verdicts == {True, False}


def test_every_mutation_of_the_minimal_document_agrees(minimal):
    assert disagreements(exhaustive_mutations(minimal)) == []


def test_seeded_mutations_of_the_scale_product_agree(scale_x1):
    mutations = seeded_mutations(scale_x1, random.Random(5), 4)
    assert disagreements(mutations) == []


def test_seeded_mutations_of_fuzz_products_agree(fuzz_products):
    rng = random.Random(6)
    mutations = [(f"{label}: {what}", mutated)
                 for label, document in fuzz_products
                 for what, mutated in seeded_mutations(document, rng, 3)]
    assert disagreements(mutations) == []


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constants_are_the_one_intended_difference(golden, constant):
    text = dumps(golden).replace("40.712", constant, 1)
    assert oracle(text)  # json.loads accepts them; JSON does not
    assert not verify_schema(text)


# -- Draft-07 edge cases on small schemas ----------------------------------------------

SCHEMAS = [
    ({"const": 1}, [1, 1.0, True, False, 0, "1", [1], None]),
    ({"const": [1, {"a": False}]},
     [[1, {"a": False}], [1.0, {"a": False}], [True, {"a": False}], [1, {"a": 0}],
      [1], [1, {"a": False}, 2]]),
    ({"enum": [1, "a", True, None, [0, False], {"k": 0}]},
     [1, 1.0, True, False, 0, "a", "b", None, [0, False], [False, False],
      [0.0, False], {"k": 0}, {"k": False}, {"k": 0.0}, {}]),
    ({"enum": ["a", "b"]}, ["a", "c", 1, None, ["a"], {"a": 1}]),
    ({"type": "number"}, [0, -1.5, True, False, "1", None, []]),
    ({"type": "boolean"}, [True, False, 0, 1, "true", None]),
    ({"type": "string"}, ["", "x", 1, None]),
    ({"type": "object"}, [{}, [], "x", None]),
    ({"type": "array"}, [[], {}, "x", None]),
    ({"pattern": "^a$"}, ["a", "a\n", "\na", "ba", "", 1, None, ["a"]]),
    ({"pattern": "b"}, ["abc", "ac"]),
    ({"properties": {"a": {"type": "string"}}, "required": ["a"]},
     [{"a": "x"}, {"a": 1}, {}, {"b": 1, "a": "x"}, [], "s", 3, None]),
    ({"additionalProperties": {"type": "number"},
      "propertyNames": {"pattern": "^[a-z]+$"}},
     [{}, {"ab": 1}, {"Ab": 1}, {"ab": "x"}, {"ab": True}, [], "x"]),
    ({"properties": {"a": True}, "additionalProperties": False},
     [{"a": None}, {"a": 1, "b": 2}, {}, [1]]),
    ({"items": {"type": "string"}, "minItems": 1, "maxItems": 2},
     [[], ["a"], ["a", "b"], ["a", "b", "c"], [1], "ab", {}, None]),
    ({"type": "array", "minItems": 1}, [[], [None], {}, "x"]),
    ({"items": False}, [[], [1], "x"]),
    ({"oneOf": [{"type": "number"}, {"const": 1}]}, [1, 1.0, 2, "x", True]),
    ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]},
     [{"a": 1}, {"b": 1}, {"a": 1, "b": 2}, {}, 5]),
    ({"type": "string", "properties": {"a": False}}, ["x", {"a": 1}, {}]),
    ({"type": "object", "pattern": "^a$", "items": False}, [{}, "a", [1], []]),
    ({"$ref": "#/definitions/id", "definitions": {"id": {"pattern": "^x"}},
      "title": "t", "description": "d", "$schema": "http://json-schema.org/draft-07/schema#"},
     ["x", "y", 1]),
    (True, [1, None, {}]),
    (False, [1, None, {}]),
    ({}, [1, None, {}]),
]


@pytest.mark.parametrize("schema, instances", SCHEMAS,
                         ids=[str(i) for i in range(len(SCHEMAS))])
def test_small_schemas_agree_with_draft7(schema, instances):
    check = compile_schema(schema)
    validator = jsonschema.Draft7Validator(schema)
    for instance in instances:
        assert check(instance) == validator.is_valid(instance), (schema, instance)
        assert isinstance(check(instance), bool)


@pytest.mark.parametrize("schema", [
    {"type": "string", "minLength": 1},
    {"patternProperties": {"^a": {}}},
    {"type": "string", "format": "email"},
    {"properties": {"a": {"$ref": "#/properties/b"}}},
    {"$ref": "other.json#/definitions/a", "definitions": {"a": {}}},
    {"$ref": "#/definitions/missing"},
    {"$ref": "#/definitions/a", "type": "string", "definitions": {"a": {}}},
    {"$ref": "#/definitions/a", "definitions": {"a": {"items": {"$ref": "#/definitions/a"}}}},
    {"definitions": {"unused": {"minimum": 0}}},
    {"type": "integer"},
    {"type": ["string", "null"]},
    {"items": [{"type": "string"}]},
    {"minItems": -1},
    {"maxItems": True},
    {"required": "name"},
    {"enum": "ab"},
    {"oneOf": []},
    {"properties": {"a": "not a schema"}},
    [],
], ids=lambda schema: json.dumps(schema)[:40])
def test_schemas_outside_the_subset_are_refused_at_compile_time(schema):
    with pytest.raises(UnsupportedSchema):
        compile_schema(schema)
