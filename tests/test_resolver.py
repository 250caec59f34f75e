"""Resolution: diagnostics instead of exceptions, bindings, defaults, explain."""

import gc
import random

import pytest

from localfeatures import (
    emit,
    explain,
    format_spec,
    parse,
    resolve,
    validate_configuration,
    verify_schema,
)
from localfeatures.errors import UnknownElement
from localfeatures.multimodel import LocalBinding, ModelEntity
from localfeatures.resolver import Diagnostic, Provenance
from localfeatures.spldef import parse_spl_definition
from localfeatures.syntax import (
    EntityDecl,
    FeatureClause,
    ProductDecl,
    ProductSpec,
    PropertyDecl,
    Span,
)

from generators import (
    definition_clauses,
    random_spec,
    reference_close_selection_traced,
    scale_spec_text,
)

XOR_LOCAL_DEFINITION = """\
VIEWPOINT data (Entity);

FEATUREMODEL G {
    OPTIONAL W {
        MANDATORY M XOR {
            A
            B
        }
    }
}

FEATUREMODEL W {
    MANDATORY M XOR {
        A
        B
    }
}

LOCAL W APPLIED TO data.Entity;
"""

MANDATORY_LOCAL_DEFINITION = """\
VIEWPOINT data (Entity);

FEATUREMODEL G {
    OPTIONAL W {
        MANDATORY M {
            OPTIONAL A
        }
    }
}

FEATUREMODEL W {
    MANDATORY M {
        OPTIONAL A
    }
}

LOCAL W APPLIED TO data.Entity;
"""


def resolve_text(source, definition, name="spec.gis"):
    return resolve(parse(source, filename=name), definition)


def codes(resolved):
    return [(d.severity, d.code) for d in resolved.diagnostics]


def placed(mm):
    """(qualified name, kind) of every element over all viewpoints, in model order."""
    return [(f"{vp.name}.{name}", entity.kind)
            for vp in mm.viewpoints.values() for name, entity in vp.entities.items()]


# -- the golden product ----------------------------------------------------------

def test_golden_product_resolves_without_diagnostics(webeiel_resolved):
    assert webeiel_resolved.diagnostics == ()
    assert webeiel_resolved.errors == ()
    assert webeiel_resolved.warnings == ()


def test_golden_effective_configurations(webeiel_resolved):
    assert webeiel_resolved.effective == {
        "data.Hotel": {"EntityFeature", "Form", "Creatable", "Editable",
                       "List", "FormAccess", "Filterable"},
        "data.Municipality": {"EntityFeature", "Form", "List", "FormAccess",
                              "Filterable"},
        "visualization.municipalitiesMap": {"MapFeature"},
        "visualization.hotelsMap": {"MapFeature", "LayerManager",
                                    "UserGeolocation"},
        "visualization.municipalitiesMap.baseLayer": {"LayerFeature"},
        "visualization.municipalitiesMap.municipalitiesLayer": {"LayerFeature"},
        "visualization.hotelsMap.baseLayer": {"LayerFeature"},
        "visualization.hotelsMap.municipalitiesLayer": {"LayerFeature"},
        "visualization.hotelsMap.hotelsLayer": {"LayerFeature", "StyleSelector",
                                                "Clustering"},
    }


def test_golden_included_features(webeiel_resolved):
    assert webeiel_resolved.included == (
        "Clustering", "Creatable", "Editable", "EntityFeature", "Filterable",
        "Form", "FormAccess", "GIS_SPL", "LayerFeature", "LayerManager",
        "List", "MapFeature", "Menu", "StyleSelector", "TopMenu",
        "UserGeolocation", "UserManagement")


def test_resolution_is_deterministic(webeiel_source, gis_definition):
    first = resolve_text(webeiel_source, gis_definition, name="webeiel.gis")
    second = resolve_text(webeiel_source, gis_definition, name="webeiel.gis")
    assert first.diagnostics == second.diagnostics
    assert first.effective == second.effective
    assert first.included == second.included


def test_minimal_product_gets_the_mandatory_closure(gis_definition):
    resolved = resolve_text("CREATE GIS X;", gis_definition)
    assert resolved.diagnostics == ()
    assert resolved.effective == {}
    assert resolved.included == (
        "EntityFeature", "GIS_SPL", "LayerFeature", "MapFeature")


def test_included_is_the_union_of_global_and_effective(webeiel_resolved):
    expected = set(webeiel_resolved.multimodel.global_selection)
    for config in webeiel_resolved.effective.values():
        expected |= config
    assert set(webeiel_resolved.included) == expected


def test_editing_one_element_does_not_disturb_the_others(
        webeiel_source, gis_definition):
    before = resolve_text(webeiel_source, gis_definition)
    mutated = webeiel_source.replace(
        "], [40.774, -74.125] ];",
        "], [40.774, -74.125] ] WITH FEATURES (LayerManager);", 1)
    after = resolve_text(mutated, gis_definition)
    assert after.diagnostics == ()
    changed = "visualization.municipalitiesMap"
    assert after.effective[changed] == {"MapFeature", "LayerManager"}
    for element, config in before.effective.items():
        if element != changed:
            assert after.effective[element] == config


# -- name resolution diagnostics ---------------------------------------------------

def test_duplicate_declarations_are_reported(gis_definition):
    source = (
        "CREATE ENTITY City (id Long IDENTIFIER);\n"
        "CREATE ENTITY City (id Long IDENTIFIER);\n"
        "CREATE GEOJSON LAYER l AS L FOR City WITH STYLES (a DEFAULT);\n"
        "CREATE GEOJSON LAYER l AS L FOR City WITH STYLES (a DEFAULT);\n"
        "CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER, l);\n"
        "CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER, l);\n"
        "CREATE MAP n AS N WITH LAYERS (b IS_BASE_LAYER, l, l);\n"
        "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "duplicate-name")] * 4
    lines = [d.span.line for d in resolved.diagnostics]
    assert lines == [2, 4, 6, 7]
    assert "references layer 'l' twice" in resolved.diagnostics[3].message
    assert placed(resolved.multimodel) == [
        ("data.City", "Entity"), ("visualization.l", "Layer"),
        ("visualization.m", "Map"), ("visualization.m.b", "LayerInMap"),
        ("visualization.m.l", "LayerInMap"), ("visualization.n", "Map"),
        ("visualization.n.b", "LayerInMap"), ("visualization.n.l", "LayerInMap")]


def lines_by_code(resolved):
    return [(d.span.line, d.code) for d in resolved.diagnostics]


def test_a_repeated_entity_has_its_clause_checked_but_not_bound(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (List);\n"
              "CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (Nope);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert lines_by_code(resolved) == [(2, "duplicate-name"), (2, "unknown-feature")]
    assert "entity 'City' selects 'Nope'" in resolved.diagnostics[1].message
    assert [b.element for b in resolved.multimodel.bindings] == ["data.City"]
    assert resolved.effective == {"data.City": {"EntityFeature", "List"}}


def test_a_repeated_layer_has_its_entity_and_styles_checked(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER);\n"
              "CREATE GEOJSON LAYER l AS L FOR City WITH STYLES (a DEFAULT);\n"
              "CREATE GEOJSON LAYER l AS Again FOR Nowhere WITH STYLES (a DEFAULT, a);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert lines_by_code(resolved) == [
        (3, "duplicate-name"), (3, "duplicate-style"), (3, "unknown-entity")]
    assert "FOR unknown entity 'Nowhere'" in resolved.diagnostics[2].message
    assert placed(resolved.multimodel) == [("data.City", "Entity"), ("visualization.l", "Layer")]


def test_a_repeated_map_has_its_clause_checked_but_not_bound(gis_definition):
    source = ("CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER) WITH FEATURES (LayerManager);\n"
              "CREATE MAP m AS Again WITH LAYERS (b IS_BASE_LAYER) WITH FEATURES (Bogus);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert lines_by_code(resolved) == [(2, "duplicate-name"), (2, "unknown-feature")]
    assert "map 'm' selects 'Bogus'" in resolved.diagnostics[1].message
    assert [b.element for b in resolved.multimodel.bindings] == ["visualization.m"]
    assert resolved.effective["visualization.m"] == {"MapFeature", "LayerManager"}


def test_a_repeated_maps_layer_references_are_checked_but_not_placed(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER);\n"
              "CREATE GEOJSON LAYER l AS L FOR City WITH STYLES (a DEFAULT);\n"
              "CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER);\n"
              "CREATE MAP m AS Again WITH LAYERS (\n"
              "    b IS_BASE_LAYER,\n"
              "    ghost,\n"
              "    l WITH FEATURES (Nope),\n"
              "    l\n"
              ");\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert lines_by_code(resolved) == [
        (4, "duplicate-name"), (6, "unknown-layer"), (7, "unknown-feature"),
        (8, "duplicate-name")]
    assert "layer 'l' in map 'm' selects 'Nope'" in resolved.diagnostics[2].message
    assert "references layer 'l' twice" in resolved.diagnostics[3].message
    assert placed(resolved.multimodel) == [
        ("data.City", "Entity"), ("visualization.l", "Layer"),
        ("visualization.m", "Map"), ("visualization.m.b", "LayerInMap")]
    assert resolved.multimodel.bindings == ()


def test_unknown_property_type_is_reported(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER, x Foo);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "unknown-type")]
    assert "unknown type 'Foo'" in resolved.diagnostics[0].message


def test_unknown_relationship_target_is_reported(gis_definition):
    source = ("CREATE ENTITY City (x Foo RELATIONSHIP(1..1, 0..*));\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "unknown-entity")]


def test_layer_for_unknown_entity_is_reported(gis_definition):
    source = ("CREATE GEOJSON LAYER l AS L FOR Ghost WITH STYLES (a DEFAULT);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "unknown-entity")]


def test_mapped_by_must_name_an_inverse_property(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER);\n"
              "CREATE ENTITY Shop (c City RELATIONSHIP MAPPED_BY shops);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "invalid-mapped-by")]
    assert "names no property" in resolved.diagnostics[0].message


def test_mapped_by_target_must_be_bidirectional(gis_definition):
    source = ("CREATE ENTITY City (shops Shop RELATIONSHIP(1..1, 0..*));\n"
              "CREATE ENTITY Shop (c City RELATIONSHIP MAPPED_BY shops);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "invalid-mapped-by")]
    assert "not a BIDIRECTIONAL" in resolved.diagnostics[0].message


def test_mapped_by_target_must_point_back(gis_definition):
    source = (
        "CREATE ENTITY Region (id Long IDENTIFIER);\n"
        "CREATE ENTITY City (regions Region RELATIONSHIP(1..1, 0..*) BIDIRECTIONAL);\n"
        "CREATE ENTITY Shop (c City RELATIONSHIP MAPPED_BY regions);\n"
        "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "invalid-mapped-by")]
    assert "relates 'Region', not 'Shop'" in resolved.diagnostics[0].message


def test_duplicate_style_is_reported(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER);\n"
              "CREATE GEOJSON LAYER l AS L FOR City "
              "WITH STYLES (a DEFAULT, a);\nCREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "duplicate-style")]


def test_duplicate_property_is_reported(gis_definition):
    source = "CREATE ENTITY E (id Long IDENTIFIER, id String);\nCREATE GIS X;"
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "duplicate-property")]
    [diagnostic] = resolved.diagnostics
    assert diagnostic.span.slice(source) == "id String"


def test_undeclared_layer_reference_is_reported(gis_definition):
    source = ("CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER, ghost);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "unknown-layer")]
    assert "'ghost'" in resolved.diagnostics[0].message


def test_base_layer_references_are_exempt_from_declaration(gis_definition):
    # base layers name built-in tile sources, not declared data layers
    source = ("CREATE MAP m AS M WITH LAYERS (osm IS_BASE_LAYER);\n"
              "CREATE GIS X;")
    assert resolve_text(source, gis_definition).diagnostics == ()


# -- selection diagnostics -----------------------------------------------------------

def test_unknown_global_feature_is_reported_with_the_model_name(gis_definition):
    resolved = resolve_text("CREATE GIS X WITH FEATURES (Bogus);", gis_definition)
    assert codes(resolved) == [("error", "unknown-feature")]
    assert "global model 'GIS_SPL'" in resolved.diagnostics[0].message


def test_invalid_global_selection_is_reported_at_the_product(gis_definition):
    resolved = resolve_text(
        "CREATE GIS X WITH FEATURES (TopMenu, LeftMenu);", gis_definition)
    assert codes(resolved) == [("error", "invalid-global-selection")]
    diag = resolved.diagnostics[0]
    assert "xor group 'Menu'" in diag.message
    assert diag.span.line == 1


def test_clause_feature_of_another_local_model_gets_a_hint(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER) "
              "WITH FEATURES (LayerManager);\nCREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "unknown-feature")]
    assert "belongs to local model 'MapFeature'" in resolved.diagnostics[0].message


def test_clause_feature_of_the_global_model_gets_a_hint(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER) "
              "WITH FEATURES (TopMenu);\nCREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert "belongs to the global model" in resolved.diagnostics[0].message


def test_clause_feature_known_nowhere_gets_no_hint(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER) "
              "WITH FEATURES (Bogus);\nCREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "unknown-feature")]
    assert "belongs to" not in resolved.diagnostics[0].message


def test_clause_without_an_applicable_local_model(gis_definition):
    mutated_definition = parse_spl_definition(
        "VIEWPOINT data (Entity);\n\n"
        "FEATUREMODEL G {\n    MANDATORY W {\n        OPTIONAL A\n    }\n}\n\n"
        "FEATUREMODEL W {\n    OPTIONAL A\n}\n\n"
        "LOCAL W APPLIED TO data.Entity;\n", filename="mut.spl")
    source = ("CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER)\n"
              "WITH FEATURES (A);\nCREATE GIS X;")
    resolved = resolve_text(source, mutated_definition)
    by_code = {d.code for d in resolved.errors}
    assert "no-local-model" in by_code
    assert any("no local model is applied to visualization.Map" in d.message
               for d in resolved.errors)


def test_unplaceable_elements_are_reported_once(gis_spl_source):
    mutated = gis_spl_source.replace(
        "VIEWPOINT visualization (Map, Layer, LayerInMap);",
        "VIEWPOINT visualization (Map, Layer);").replace(
        "LOCAL LayerFeature APPLIED TO visualization.LayerInMap;\n", "").replace(
        "FEATUREMODEL LayerFeature {\n"
        "    OPTIONAL Clustering\n"
        "    OPTIONAL StyleSelector\n"
        "    OPTIONAL OpacitySelector\n"
        "}\n\n", "")
    definition = parse_spl_definition(mutated, filename="mut.spl")
    source = ("CREATE ENTITY City (id Long IDENTIFIER);\n"
              "CREATE GEOJSON LAYER cityLayer AS Cities FOR City "
              "WITH STYLES (plain DEFAULT);\n"
              "CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER, cityLayer "
              "WITH FEATURES (Clustering));\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, definition)
    placement = [d for d in resolved.errors if d.code == "no-metaclass"]
    assert len(placement) == 2  # one per layer-in-map element
    assert all(d.source == "spec.gis" for d in placement)
    assert {d.code for d in resolved.errors} == {"no-metaclass", "no-local-model"}


LAYER_MAP_CLASH = ("CREATE ENTITY Hotel (id Long IDENTIFIER);\n"
                   "CREATE GEOJSON LAYER hotels AS H FOR Hotel WITH STYLES (a DEFAULT);\n"
                   "CREATE MAP hotels AS M WITH LAYERS (b IS_BASE_LAYER, hotels)\n"
                   "    WITH FEATURES (LayerManager);\n")


@pytest.mark.parametrize("source", [
    LAYER_MAP_CLASH,
    # the map is the one reported wherever it stands in the source
    "\n".join(LAYER_MAP_CLASH.splitlines()[i] for i in (0, 2, 3, 1)) + "\n",
], ids=["layer-first", "map-first"])
def test_a_map_may_not_reuse_a_layer_name(gis_spl_source, source):
    definition = parse_spl_definition(
        gis_spl_source + "LOCAL LayerFeature APPLIED TO visualization.Layer;\n",
        filename="layers.spl")
    resolved = resolve_text(source + "CREATE GIS X;", definition)
    [clash] = resolved.errors
    assert clash.code == "duplicate-name"
    assert clash.message == "map 'hotels' has the same name as layer 'hotels'"
    map_line = next(i for i, line in enumerate(source.splitlines(), 1)
                    if line.startswith("CREATE MAP"))
    assert (clash.source, clash.span.line, clash.span.column) == ("spec.gis", map_line, 1)
    mm = resolved.multimodel
    assert mm.element("visualization.hotels").kind == "Layer"
    assert resolved.effective["visualization.hotels"] == {"LayerFeature"}
    assert mm.bindings == ()
    assert "visualization.hotels.hotels" in resolved.effective


def test_invalid_closed_clause_selection_is_reported():
    definition = parse_spl_definition(XOR_LOCAL_DEFINITION, filename="xor.spl")
    source = ("CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (A, B);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, definition)
    assert ("error", "invalid-selection") in codes(resolved)
    assert "invalid against 'W'" in resolved.errors[0].message


def test_each_element_with_the_same_invalid_clause_is_reported():
    definition = parse_spl_definition(XOR_LOCAL_DEFINITION, filename="xor.spl")
    source = ("CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (A, B);\n"
              "CREATE ENTITY Town (id Long IDENTIFIER) WITH FEATURES (B, A);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, definition)
    invalid = [d for d in resolved.errors if d.code == "invalid-selection"]
    assert [d.span.line for d in invalid] == [1, 2]
    assert "'data.City'" in invalid[0].message
    assert "'data.Town'" in invalid[1].message
    assert resolved.multimodel.bindings == ()


def test_each_element_with_the_same_unknown_feature_is_reported_at_its_clause(
        gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (List, Bogus);\n"
              "CREATE ENTITY Town (id Long IDENTIFIER)\n"
              "    WITH FEATURES (List, Bogus);\n"
              "CREATE GIS X;")
    spec = parse(source, filename="spec.gis")
    resolved = resolve(spec, gis_definition)
    assert [(d.code, d.span) for d in resolved.diagnostics] == [
        ("unknown-feature", decl.features.span) for decl in spec.entities]
    assert [d.message for d in resolved.diagnostics] == [
        f"entity {name!r} selects 'Bogus', which is not a feature of local model "
        "'EntityFeature'" for name in ("City", "Town")]
    assert resolved.multimodel.bindings == () and resolved.clause_spans == {}


def test_equal_clauses_through_different_local_models_are_checked_apart(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (List);\n"
              "CREATE ENTITY Town (id Long IDENTIFIER) WITH FEATURES ();\n"
              "CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER) WITH FEATURES (List);\n"
              "CREATE MAP n AS N WITH LAYERS (b IS_BASE_LAYER) WITH FEATURES ();\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert [(d.code, d.span.line) for d in resolved.diagnostics] == [("unknown-feature", 3)]
    assert "map 'm' selects 'List'" in resolved.diagnostics[0].message
    assert "belongs to local model 'EntityFeature'" in resolved.diagnostics[0].message
    assert {(b.element, b.local_model): b.selection
            for b in resolved.multimodel.bindings} == {
        ("data.City", "EntityFeature"): {"EntityFeature", "List"},
        ("data.Town", "EntityFeature"): {"EntityFeature"},
        ("visualization.n", "MapFeature"): {"MapFeature"},
    }


def test_every_bound_element_keeps_its_own_clause_span(gis_definition):
    spec = parse(scale_spec_text(2), filename="scale.gis")
    resolved = resolve(spec, gis_definition)
    expected = {f"data.{e.name}": e.features.span for e in spec.entities}
    for m in spec.maps:
        if m.features is not None:
            expected[f"visualization.{m.name}"] = m.features.span
        for ref in m.layers:
            if ref.features is not None:
                expected[f"visualization.{m.name}.{ref.name}"] = ref.features.span
    assert resolved.diagnostics == ()
    assert resolved.clause_spans == expected
    assert len(set(expected.values())) == len(expected) == len(resolved.multimodel.bindings)


def placed_by_spec(spec):
    """(qualified name, kind, feature clause) of each element a spec with no
    repeated declaration places, in the order resolve places them."""
    rows = [(f"data.{e.name}", "Entity", e.features) for e in spec.entities]
    rows += [(f"visualization.{layer.name}", "Layer", None) for layer in spec.layers]
    for m in spec.maps:
        rows.append((f"visualization.{m.name}", "Map", m.features))
        rows += [(f"visualization.{m.name}.{ref.name}", "LayerInMap", ref.features)
                 for ref in m.layers]
    return rows


@pytest.mark.parametrize("copies", [0, 2])  # 0 is webeiel.gis
def test_read_views_equal_what_the_spec_places_and_binds(copies, webeiel_spec, gis_definition):
    spec = webeiel_spec if copies == 0 else parse(scale_spec_text(copies), filename="scale.gis")
    resolved = resolve(spec, gis_definition)
    assert resolved.diagnostics == ()
    mm = resolved.multimodel
    locals_ = gis_definition.functional.locals
    first_local = {}
    for d in gis_definition.applied_to:
        first_local.setdefault(f"{d.viewpoint}.{d.metaclass}", d.local_model)

    entities = {name: {} for name in gis_definition.viewpoints}
    expected, seeds = [], {}
    for element, kind, clause in placed_by_spec(spec):
        viewpoint, _, name = element.partition(".")
        entities[viewpoint][name] = ModelEntity(name, kind)
        assert mm.element(element) == ModelEntity(name, kind)
        if clause is not None:
            local_model = first_local[f"{viewpoint}.{kind}"]
            selection, trace = reference_close_selection_traced(locals_[local_model], clause.names)
            expected.append((element, local_model, selection, trace))
            seeds[element] = (local_model, frozenset(clause.names))
    assert {name: list(vp.entities.items()) for name, vp in mm.viewpoints.items()} == {
        name: list(placed.items()) for name, placed in entities.items()}
    assert [tuple(b) for b in mm.bindings] == expected
    assert all(type(b) is LocalBinding for b in mm.bindings)
    for row in expected:
        binding = mm.binding(*row[:2])
        assert type(binding) is LocalBinding and tuple(binding) == row

    # equal seeds over one local model share one selection object
    shared = {}
    for element, local_model, _, _ in expected:
        selection = mm.binding(element, local_model).selection
        assert shared.setdefault(seeds[element], selection) is selection

    # removing a binding falls back to the default; binding again goes last
    element, local_model, _, _ = expected[0]
    selection = mm.binding(element, local_model).selection
    mm.remove_binding(element, local_model)
    assert mm.binding(element, local_model) is None
    assert mm.effective_configuration(element, local_model) == mm.global_default(local_model)
    assert mm.bind_local(element, local_model, seeds[element][1]) is selection
    assert [tuple(b) for b in mm.bindings] == expected[1:] + expected[:1]


def test_the_multimodel_shares_each_default_and_closure(gis_definition):
    resolved = resolve(parse(scale_spec_text(2), filename="scale.gis"), gis_definition)
    mm = resolved.multimodel
    covering = {}
    for element, local_model in mm.covered_elements():
        covering.setdefault(element, []).append(local_model)
    locals_ = gis_definition.functional.locals
    fallers = 0
    for local_model in locals_:
        default = mm.global_default(local_model)
        assert mm.global_default(local_model) is default
        for element, models in covering.items():
            if models == [local_model] and mm.binding(element, local_model) is None:
                assert resolved.effective[element] is default
                fallers += 1
    assert fallers == 200  # per copy, 46 maps and 54 base layer references with no clause
    closures = {id(b.selection) for b in mm.bindings}
    assert len({id(c) for c in resolved.effective.values()}) <= len(closures) + len(locals_)


def test_resolve_leaves_no_tracked_object_per_element(gis_definition):
    """What resolve leaves for the cyclic collector must not grow with the
    number of elements: each full collection walks all of it."""
    specs = {copies: parse(scale_spec_text(copies), filename="scale.gis") for copies in (2, 8)}
    resolve(specs[2], gis_definition)  # first use fills the interpreter's caches
    added, kept = {}, []
    for copies, spec in specs.items():
        gc.collect()
        before = len(gc.get_objects())
        kept.append(resolve(spec, gis_definition))
        gc.collect()
        added[copies] = len(gc.get_objects()) - before
    assert abs(added[8] - added[2]) <= 10, added
    for resolved in kept:
        assert not any(gc.is_tracked(vp.kinds) for vp in resolved.multimodel.viewpoints.values())


def test_equal_clauses_in_one_parse_share_their_names(gis_definition):
    spec = parse(scale_spec_text(2), filename="scale.gis")
    owners = [*spec.entities, *spec.maps, spec.product, *(r for m in spec.maps for r in m.layers)]
    clauses = [owner.features for owner in owners if owner.features is not None]
    shared = {}
    for clause in clauses:
        assert shared.setdefault(clause.names, clause.names) is clause.names
    assert len(shared) == 7 and len(clauses) == 531  # 6 element clauses, 1 product clause
    assert parse(format_spec(spec)) == spec


def test_invalid_default_is_an_error_when_elements_fall_back_to_it():
    definition = parse_spl_definition(XOR_LOCAL_DEFINITION, filename="xor.spl")
    source = "CREATE ENTITY City (id Long IDENTIFIER);\nCREATE GIS X;"
    resolved = resolve_text(source, definition)
    assert codes(resolved) == [("error", "invalid-global-default")]
    diag = resolved.diagnostics[0]
    assert diag.source == "xor.spl"
    assert "data.City" in diag.message
    assert "fall back to it" in diag.message


def test_invalid_default_without_defaults_is_cited_at_the_first_local_line():
    definition = parse_spl_definition(XOR_LOCAL_DEFINITION, filename="xor.spl")
    assert definition.defaults_span is None
    resolved = resolve_text("CREATE ENTITY City (id Long IDENTIFIER);\nCREATE GIS X;",
                            definition)
    (diag,) = resolved.diagnostics
    assert (diag.code, diag.source) == ("invalid-global-default", "xor.spl")
    assert diag.span == definition.applied_to[0].span
    assert (diag.span.line, diag.span.column) == (19, 1)


def test_invalid_default_is_a_warning_when_every_element_is_bound():
    definition = parse_spl_definition(XOR_LOCAL_DEFINITION, filename="xor.spl")
    source = ("CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (A);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, definition)
    assert codes(resolved) == [("warning", "invalid-global-default")]
    assert resolved.errors == ()
    assert "no element falls back to it" in resolved.diagnostics[0].message


def test_faller_listing_is_truncated_after_three_elements():
    definition = parse_spl_definition(XOR_LOCAL_DEFINITION, filename="xor.spl")
    entities = "\n".join(
        f"CREATE ENTITY E{i} (id Long IDENTIFIER);" for i in range(5))
    resolved = resolve_text(entities + "\nCREATE GIS X;", definition)
    message = resolved.diagnostics[0].message
    assert "E0" in message and "E2" in message
    assert "(and 2 more)" in message


def test_diagnostics_are_sorted_by_source_position(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER, x Foo) "
              "WITH FEATURES (Bogus);\n"
              "CREATE MAP m AS M WITH LAYERS (b IS_BASE_LAYER, ghost);\n"
              "CREATE GIS X WITH FEATURES (Missing);")
    resolved = resolve_text(source, gis_definition)
    assert len(resolved.diagnostics) == 4
    keys = [d.sort_key() for d in resolved.diagnostics]
    assert keys == sorted(keys)
    assert [d.span.line for d in resolved.diagnostics] == [1, 1, 2, 3]


def test_errors_do_not_abort_resolution(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER, x Foo) "
              "WITH FEATURES (Form);\nCREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert codes(resolved) == [("error", "unknown-type")]
    # the binding still happened despite the property error
    assert resolved.effective["data.City"] == {"EntityFeature", "Form"}


# -- defaults and clause shapes ---------------------------------------------------

def test_absent_clause_falls_back_while_empty_clause_binds_the_root(gis_definition):
    source = ("CREATE ENTITY Absent (id Long IDENTIFIER);\n"
              "CREATE ENTITY Empty (id Long IDENTIFIER) WITH FEATURES ();\n"
              "CREATE GIS X WITH FEATURES (Filterable);")
    resolved = resolve_text(source, gis_definition)
    assert resolved.diagnostics == ()
    assert resolved.effective["data.Absent"] == {
        "EntityFeature", "List", "Filterable"}
    assert resolved.effective["data.Empty"] == {"EntityFeature"}


def test_two_locals_covering_one_element_union_their_configurations(
        gis_spl_source):
    definition = parse_spl_definition(
        gis_spl_source + "LOCAL MapFeature APPLIED TO data.Entity;\n",
        filename="mut.spl")
    source = "CREATE ENTITY City (id Long IDENTIFIER);\nCREATE GIS X;"
    resolved = resolve_text(source, definition)
    assert resolved.effective["data.City"] == {"EntityFeature", "MapFeature"}
    rows = explain(resolved, "data.City")
    assert {r.feature for r in rows} == {"EntityFeature", "MapFeature"}
    assert {(r.origin, r.span.line) for r in rows} == {("global-default", 2)}


def test_two_locals_explain_a_bound_element_with_the_other_default(gis_spl_source):
    definition = parse_spl_definition(
        gis_spl_source + "LOCAL MapFeature APPLIED TO data.Entity;\n",
        filename="mut.spl")
    source = ("CREATE ENTITY City (id Long IDENTIFIER) "
              "WITH FEATURES (FormAccess);\nCREATE GIS X;")
    resolved = resolve_text(source, definition)
    assert resolved.diagnostics == ()
    rows = {r.feature: (r.origin, r.detail, r.span.line, r.span.column)
            for r in explain(resolved, "data.City")}
    assert rows == {
        "EntityFeature": ("local", "bound local root", 1, 41),
        "Form": ("closure(requires)", "required by FormAccess", 1, 41),
        "FormAccess": ("local", None, 1, 41),
        "List": ("closure(parent)", "parent of FormAccess", 1, 41),
        "MapFeature": ("global-default", "no binding exists", 2, 1),
    }
    assert rows.keys() == resolved.effective["data.City"]


NESTED_LOCALS_DEFINITION = """\
VIEWPOINT data (Entity);

FEATUREMODEL G {
    OPTIONAL A {
        OPTIONAL B {
            OPTIONAL C
        }
    }
}

FEATUREMODEL A {
    OPTIONAL B {
        OPTIONAL C
    }
}

FEATUREMODEL B {
    OPTIONAL C
}

LOCAL A APPLIED TO data.Entity;
LOCAL B APPLIED TO data.Entity;

DEFAULTS (C);
"""


def test_a_feature_two_locals_share_keeps_the_bound_row():
    definition = parse_spl_definition(NESTED_LOCALS_DEFINITION, filename="nested.spl")
    source = "CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (C);\nCREATE GIS X;"
    resolved = resolve_text(source, definition)
    assert resolved.diagnostics == ()
    # B defaults to {B, C}, but A's binding gives both, so its rows are shown
    rows = {r.feature: (r.origin, r.span.line) for r in explain(resolved, "data.City")}
    assert rows == {"A": ("local", 1), "B": ("closure(parent)", 1), "C": ("local", 1)}


# Local models Listing and Layout nest, and both cover data.Entity; the two
# LOCAL lines go in either order.
BOOKSHOP_DEFINITION = """\
VIEWPOINT data (Entity);

FEATUREMODEL Shop {{
    OPTIONAL Listing {{
        MANDATORY Layout XOR {{
            Grid
            List
        }}
    }}
}}

FEATUREMODEL Listing {{
    MANDATORY Layout XOR {{
        Grid
        List
    }}
}}

FEATUREMODEL Layout XOR {{
    Grid
    List
}}

LOCAL {}
LOCAL {}
DEFAULTS (List);
"""
BOOKSHOP_LOCALS = ("Listing APPLIED TO data.Entity;", "Layout APPLIED TO data.Entity;")
BOOKSHOP_SPEC = "CREATE ENTITY Book (id Long IDENTIFIER) WITH FEATURES (Grid);\nCREATE GIS Bookshop;"


@pytest.mark.parametrize("first", [0, 1], ids=["Listing-first", "Layout-first"])
def test_a_binding_and_a_nested_default_that_clash_are_an_invalid_selection(first):
    """Book binds Grid through the first covering model and takes the other
    one's default, List: the union holds two children of xor group Layout,
    which each covering model restricted to its own features must accept."""
    lines = BOOKSHOP_LOCALS[first], BOOKSHOP_LOCALS[1 - first]
    definition = parse_spl_definition(BOOKSHOP_DEFINITION.format(*lines), filename="shop.spl")
    resolved = resolve_text(BOOKSHOP_SPEC, definition)
    first_model = lines[0].split()[0]
    assert resolved.diagnostics == (Diagnostic(
        "error", "invalid-selection",
        f"entity 'Book' gets a configuration that is invalid against local model "
        f"{first_model!r}: xor group 'Layout' has 2 selected children, needs exactly 1",
        Span(40, 60, 1, 41), "spec.gis"),)
    assert resolved.diagnostics[0].span.slice(BOOKSHOP_SPEC) == "WITH FEATURES (Grid)"
    assert resolved.effective["data.Book"] == {"Grid", "Layout", "List", "Listing"}


# -- explain ----------------------------------------------------------------------

def test_explain_orders_rows_by_feature_name(webeiel_resolved):
    rows = explain(webeiel_resolved, "data.Municipality")
    assert [r.feature for r in rows] == [
        "EntityFeature", "Filterable", "Form", "FormAccess", "List"]
    assert all(r.origin == "local" for r in rows)
    root_row = rows[0]
    assert root_row.detail == "bound local root"
    assert root_row.source == "webeiel.gis"


def test_explain_defaulted_element_cites_the_product(webeiel_resolved):
    rows = explain(webeiel_resolved, "visualization.municipalitiesMap")
    assert len(rows) == 1
    assert rows[0].feature == "MapFeature"
    assert rows[0].origin == "global-default"
    assert rows[0].detail == "no binding exists"
    assert rows[0].span.line == 40  # the product declaration


def test_explain_reports_closure_steps(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER) "
              "WITH FEATURES (FormAccess);\nCREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    rows = {r.feature: r for r in explain(resolved, "data.City")}
    assert rows["FormAccess"].origin == "local"
    assert rows["FormAccess"].detail is None
    assert (rows["List"].origin, rows["List"].detail) == (
        "closure(parent)", "parent of FormAccess")
    assert (rows["Form"].origin, rows["Form"].detail) == (
        "closure(requires)", "required by FormAccess")
    assert rows["EntityFeature"].detail == "bound local root"


def test_elements_with_the_same_clause_each_cite_their_own_line(gis_definition):
    source = ("CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (FormAccess);\n"
              "CREATE ENTITY Town (id Long IDENTIFIER)\n"
              "    WITH FEATURES (FormAccess);\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, gis_definition)
    assert resolved.diagnostics == ()
    city = explain(resolved, "data.City")
    town = explain(resolved, "data.Town")
    assert [r.feature for r in city] == [r.feature for r in town]
    assert [(r.origin, r.detail) for r in city] == [(r.origin, r.detail) for r in town]
    assert {(r.span.line, r.span.column) for r in city} == {(1, 41)}
    assert {(r.span.line, r.span.column) for r in town} == {(3, 5)}


def test_explain_reports_mandatory_closure_steps():
    definition = parse_spl_definition(
        MANDATORY_LOCAL_DEFINITION, filename="mand.spl")
    source = ("CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES ();\n"
              "CREATE GIS X;")
    resolved = resolve_text(source, definition)
    # the default {W} misses mandatory M, but every element is bound
    assert codes(resolved) == [("warning", "invalid-global-default")]
    rows = {r.feature: r for r in explain(resolved, "data.City")}
    assert (rows["M"].origin, rows["M"].detail) == (
        "closure(mandatory)", "mandatory child of W")


def test_an_inert_local_line_is_a_warning_at_that_line(ecommerce_definition, ecommerce_source):
    resolved = resolve_text("CREATE GIS X;", ecommerce_definition)
    assert codes(resolved) == [("warning", "inert-local")]
    [warning] = resolved.diagnostics
    assert warning.source == "ecommerce.spl"
    assert (warning.span.line, warning.span.column) == (41, 1)
    assert warning.span.slice(ecommerce_source) == (
        "LOCAL CategoryDisplay APPLIED TO catalog.Category;")


def test_local_lines_on_placed_metaclasses_are_not_inert(webeiel_resolved):
    assert "inert-local" not in {d.code for d in webeiel_resolved.diagnostics}
    # plain layers are placed, so a local model applied to them gives them defaults
    definition = parse_spl_definition(
        "VIEWPOINT visualization (Layer);\n"
        "FEATUREMODEL G {\n    OPTIONAL W\n}\n"
        "FEATUREMODEL W {\n}\n"
        "LOCAL W APPLIED TO visualization.Layer;\n")
    resolved = resolve_text(
        "CREATE ENTITY E (id Long IDENTIFIER);\n"
        "CREATE GEOJSON LAYER l AS L FOR E WITH STYLES (s);\n"
        "CREATE GIS X;", definition)
    assert "inert-local" not in {d.code for d in resolved.diagnostics}
    assert "visualization.l" in resolved.effective


def test_explain_rejects_uncovered_elements(webeiel_resolved):
    with pytest.raises(UnknownElement):
        explain(webeiel_resolved, "data.Nope")
    with pytest.raises(UnknownElement):
        # a real element, but no local model applies to plain layers
        explain(webeiel_resolved, "visualization.municipalitiesLayer")


def test_diagnostic_sort_key_tolerates_missing_spans():
    bare = Diagnostic("error", "x", "message")
    assert bare.sort_key() == ("<spec>", 0, 0, "x")


# -- every resolver code, pinned -------------------------------------------------

# One definition and specification that reach every diagnostic code the
# resolver has; the tuple below pins each diagnostic, its order and its span.
GOLDEN_DEFINITION = """\
VIEWPOINT data (Entity, Row);
VIEWPOINT visualization (Map, Layer);

FEATUREMODEL G {
    MANDATORY W {
        MANDATORY M XOR {
            A
            B
        }
        OPTIONAL C
    }
    OPTIONAL V {
        OPTIONAL D
    }
    MANDATORY X {
        MANDATORY K XOR {
            P
            Q
        }
    }
    OPTIONAL Menu XOR {
        Top
        Left
    }
}

FEATUREMODEL W {
    MANDATORY M XOR {
        A
        B
    }
    OPTIONAL C
}

FEATUREMODEL V {
    OPTIONAL D
}

FEATUREMODEL X {
    MANDATORY K XOR {
        P
        Q
    }
}

LOCAL W APPLIED TO data.Entity;
LOCAL V APPLIED TO data.Entity;
LOCAL V APPLIED TO data.Row;
LOCAL X APPLIED TO visualization.Map;

DEFAULTS (D);
"""

GOLDEN_SPEC = """\
CREATE ENTITY City (
    id Long IDENTIFIER,
    id String,
    shape Blob,
    owner Ghost RELATIONSHIP(1..1, 0..*),
    shop Shop RELATIONSHIP MAPPED_BY nothing
) WITH FEATURES (A, B);

CREATE ENTITY Shop (
    id Long IDENTIFIER,
    city City RELATIONSHIP MAPPED_BY shop
) WITH FEATURES (C, Bogus, D, Top);

CREATE ENTITY City (id Long IDENTIFIER, size Huge) WITH FEATURES (Nope);
CREATE ENTITY Depot (id Long IDENTIFIER);
CREATE ENTITY Zone (id Long IDENTIFIER);
CREATE ENTITY Yard (id Long IDENTIFIER) WITH FEATURES (A);

CREATE GEOJSON LAYER cities AS Cities FOR City WITH STYLES (plain DEFAULT, plain);
CREATE GEOJSON LAYER cities AS Again FOR Nowhere WITH STYLES (x DEFAULT);
CREATE GEOJSON LAYER shops AS Shops FOR Ghost WITH STYLES (s DEFAULT);

CREATE MAP overview AS Overview WITH LAYERS (
    base IS_BASE_LAYER,
    cities WITH FEATURES (C),
    cities,
    ghost
) WITH FEATURES (P);

CREATE MAP overview AS Again WITH LAYERS (base IS_BASE_LAYER);
CREATE MAP shops AS Clash WITH LAYERS (base IS_BASE_LAYER) WITH FEATURES (Q, P);

CREATE GIS Golden WITH FEATURES (Top, Left, Bogus);
"""

GOLDEN_DIAGNOSTICS = (
    ("error", "duplicate-property",
     "entity 'City' declares property 'id' twice",
     (49, 58, 3, 5), "golden.gis"),
    ("error", "unknown-type",
     "property 'shape' of entity 'City' has unknown type 'Blob'",
     (64, 74, 4, 5), "golden.gis"),
    ("error", "unknown-entity",
     "relationship 'owner' of entity 'City' targets unknown entity 'Ghost'",
     (80, 116, 5, 5), "golden.gis"),
    ("error", "invalid-mapped-by",
     "MAPPED_BY 'nothing' names no property of entity 'Shop'",
     (122, 162, 6, 5), "golden.gis"),
    ("error", "invalid-selection",
     "selection for 'data.City' is invalid against 'W': xor group 'M' has 2 selected "
     "children, needs exactly 1",
     (165, 185, 7, 3), "golden.gis"),
    ("error", "invalid-mapped-by",
     "MAPPED_BY target City.shop is not a BIDIRECTIONAL relationship",
     (237, 274, 11, 5), "golden.gis"),
    ("error", "unknown-feature",
     "entity 'Shop' selects 'Bogus', which is not a feature of local model 'W'",
     (277, 309, 12, 3), "golden.gis"),
    ("error", "unknown-feature",
     "entity 'Shop' selects 'D', which is not a feature of local model 'W'; it belongs to "
     "local model 'V'",
     (277, 309, 12, 3), "golden.gis"),
    ("error", "unknown-feature",
     "entity 'Shop' selects 'Top', which is not a feature of local model 'W'; it belongs to "
     "the global model",
     (277, 309, 12, 3), "golden.gis"),
    ("error", "duplicate-name",
     "entity 'City' is declared twice",
     (312, 384, 14, 1), "golden.gis"),
    ("error", "unknown-type",
     "property 'size' of entity 'City' has unknown type 'Huge'",
     (352, 361, 14, 41), "golden.gis"),
    ("error", "unknown-feature",
     "entity 'City' selects 'Nope', which is not a feature of local model 'W'",
     (363, 383, 14, 52), "golden.gis"),
    ("error", "duplicate-style",
     "layer 'cities' declares style 'plain' twice",
     (528, 610, 19, 1), "golden.gis"),
    ("error", "duplicate-name",
     "layer 'cities' is declared twice",
     (611, 684, 20, 1), "golden.gis"),
    ("error", "unknown-entity",
     "layer 'cities' is FOR unknown entity 'Nowhere'",
     (611, 684, 20, 1), "golden.gis"),
    ("error", "unknown-entity",
     "layer 'shops' is FOR unknown entity 'Ghost'",
     (685, 755, 21, 1), "golden.gis"),
    ("error", "no-metaclass",
     "definition declares no visualization.LayerInMap; cannot place element 'overview.base'",
     (807, 825, 24, 5), "golden.gis"),
    ("error", "no-metaclass",
     "definition declares no visualization.LayerInMap; cannot place element "
     "'overview.cities'",
     (831, 855, 25, 5), "golden.gis"),
    ("error", "no-local-model",
     "layer 'cities' in map 'overview' has a feature clause, but no local model is applied "
     "to visualization.LayerInMap",
     (838, 855, 25, 12), "golden.gis"),
    ("error", "duplicate-name",
     "map 'overview' references layer 'cities' twice",
     (861, 867, 26, 5), "golden.gis"),
    ("error", "no-metaclass",
     "definition declares no visualization.LayerInMap; cannot place element 'overview.ghost'",
     (873, 878, 27, 5), "golden.gis"),
    ("error", "unknown-layer",
     "map 'overview' references undeclared layer 'ghost'",
     (873, 878, 27, 5), "golden.gis"),
    ("error", "duplicate-name",
     "map 'overview' is declared twice",
     (901, 963, 30, 1), "golden.gis"),
    ("error", "duplicate-name",
     "map 'shops' has the same name as layer 'shops'",
     (964, 1044, 31, 1), "golden.gis"),
    ("error", "no-metaclass",
     "definition declares no visualization.LayerInMap; cannot place element 'shops.base'",
     (1003, 1021, 31, 40), "golden.gis"),
    ("error", "invalid-global-selection",
     "global selection is invalid: xor group 'M' has 0 selected children, needs exactly 1",
     (1046, 1097, 33, 1), "golden.gis"),
    ("error", "invalid-global-selection",
     "global selection is invalid: xor group 'K' has 0 selected children, needs exactly 1",
     (1046, 1097, 33, 1), "golden.gis"),
    ("error", "invalid-global-selection",
     "global selection is invalid: xor group 'Menu' has 2 selected children, needs exactly 1",
     (1046, 1097, 33, 1), "golden.gis"),
    ("error", "unknown-feature",
     "product selects 'Bogus', which is not a feature of the global model 'G'",
     (1064, 1096, 33, 19), "golden.gis"),
    ("warning", "inert-local",
     "LOCAL V APPLIED TO data.Row binds nothing: specification elements are only "
     "data.Entity, visualization.Layer, visualization.Map, visualization.LayerInMap",
     (631, 659, 48, 1), "golden.spl"),
    ("error", "invalid-global-default",
     "global default for local model 'W' is invalid (xor group 'M' has 0 selected children, "
     "needs exactly 1) and data.City, data.Depot, data.Shop (and 1 more) fall back to it",
     (699, 712, 51, 1), "golden.spl"),
    ("warning", "invalid-global-default",
     "global default for local model 'X' is invalid (xor group 'K' has 0 selected children, "
     "needs exactly 1); no element falls back to it",
     (699, 712, 51, 1), "golden.spl"),
)


def test_every_resolver_code_is_pinned():
    definition = parse_spl_definition(GOLDEN_DEFINITION, filename="golden.spl")
    resolved = resolve_text(GOLDEN_SPEC, definition, name="golden.gis")
    assert resolved.diagnostics == GOLDEN_DIAGNOSTICS
    default_w = {"W", "M", "V", "D"}
    assert resolved.effective == {
        "data.City": default_w, "data.Shop": default_w, "data.Depot": default_w,
        "data.Zone": default_w, "data.Yard": default_w | {"A"},
        "visualization.overview": {"X", "K", "P"}}
    assert resolved.included == ("A", "D", "G", "K", "Left", "M", "Menu", "P", "Top",
                                 "V", "W", "X")
    assert {element: span.line for element, span in resolved.clause_spans.items()} == {
        "data.Yard": 17, "visualization.overview": 28}


def test_a_repeated_declaration_node_is_placed_once(gis_definition):
    city = EntityDecl("City", (PropertyDecl("id", "Long", ("IDENTIFIER",)),
                               PropertyDecl("x", "Foo")), FeatureClause(("List",)))
    resolved = resolve(ProductSpec((city, city), (), (), ProductDecl("P")), gis_definition)
    nowhere = (0, 0, 1, 1)
    unknown = "property 'x' of entity 'City' has unknown type 'Foo'"
    assert resolved.diagnostics == (
        ("error", "duplicate-name", "entity 'City' is declared twice", nowhere, "<spec>"),
        ("error", "unknown-type", unknown, nowhere, "<spec>"),
        ("error", "unknown-type", unknown, nowhere, "<spec>"))
    assert [b.element for b in resolved.multimodel.bindings] == ["data.City"]
    assert resolved.effective == {"data.City": {"EntityFeature", "List"}}
    assert resolved.clause_spans == {"data.City": nowhere}


# -- definition-aware fuzz ------------------------------------------------------------

# What 300 seeds must reach per definition: diagnostic codes, explain origins,
# "bound" when some element got a binding and "clean" for a product without
# errors.
FUZZ_REACHES = {
    "gis_definition": {"clean", "bound", "global-default", "closure(parent)",
                       "closure(requires)", "unknown-feature",
                       "invalid-global-selection"},
    "ecommerce_definition": {"no-metaclass", "no-local-model", "inert-local"},
    "ecommerce_on_entities": {"clean", "bound", "global-default", "closure(parent)",
                              "invalid-selection", "no-local-model"},
}


def clauses_by_element(spec):
    clauses = {}
    for decl in spec.entities:
        clauses[f"data.{decl.name}"] = decl.features
    for map_decl in spec.maps:
        clauses[f"visualization.{map_decl.name}"] = map_decl.features
        for ref in map_decl.layers:
            clauses.setdefault(f"visualization.{map_decl.name}.{ref.name}", ref.features)
    return clauses


def first_of_each_name(decls):
    first = {}
    for decl in decls:
        first.setdefault(decl.name, decl)
    return first.values()


def expected_placement(spec, definition):
    """(qualified name, kind) of each element the spec places, in model order,
    worked out from the AST: the first entity, layer and map of each name and
    each map's first reference to each layer name, wherever the definition
    declares the element's metaclass."""
    elements = {"data": [(e.name, "Entity") for e in first_of_each_name(spec.entities)],
                "visualization": [(l.name, "Layer") for l in first_of_each_name(spec.layers)]}
    for map_decl in first_of_each_name(spec.maps):
        elements["visualization"].append((map_decl.name, "Map"))
        for ref in first_of_each_name(map_decl.layers):
            elements["visualization"].append((f"{map_decl.name}.{ref.name}", "LayerInMap"))
    return [(f"{viewpoint}.{name}", kind)
            for viewpoint, metaclasses in definition.viewpoints.items()
            for name, kind in elements.get(viewpoint, ()) if kind in metaclasses]


def expected_row(feature, step, span, source):
    """The explain row for one closure step, spelled out independently of
    the resolver."""
    if step.cause == "seed":
        return Provenance(feature, "local", None, span, source)
    if step.cause == "root":
        return Provenance(feature, "local", "bound local root", span, source)
    detail = {"parent": f"parent of {step.of}",
              "mandatory": f"mandatory child of {step.of}",
              "requires": f"required by {step.of}"}[step.cause]
    return Provenance(feature, f"closure({step.cause})", detail, span, source)


@pytest.mark.parametrize("fixture", sorted(FUZZ_REACHES))
def test_definition_aware_specs_resolve_consistently(fixture, request):
    definition = request.getfixturevalue(fixture)
    local_models = definition.functional.locals
    draw = definition_clauses(definition)
    reached = set()
    for seed in range(300):
        ast = random_spec(random.Random(seed), draw)
        text = format_spec(ast)
        spec = parse(text, filename="fuzz.gis")
        assert spec == ast, seed
        resolved = resolve(spec, definition)  # must never raise
        mm = resolved.multimodel
        clean = not resolved.errors
        assert placed(mm) == expected_placement(spec, definition), seed

        assert resolved.included == mm.included_features(), seed
        covered = {}
        for element, local_model in mm.covered_elements():
            covered.setdefault(element, []).append(local_model)
        assert resolved.effective.keys() == covered.keys(), seed
        for element, models in covered.items():
            configs = [mm.effective_configuration(element, m) for m in models]
            assert resolved.effective[element] == frozenset().union(*configs), seed
            if clean:
                for m, config in zip(models, configs):
                    assert validate_configuration(local_models[m], config).valid, seed
            rows = explain(resolved, element)
            assert {r.feature for r in rows} == resolved.effective[element], seed
            reached.update(row.origin for row in rows)
        if clean:
            assert verify_schema(emit(resolved)), seed
            reached.add("clean")

        clauses = clauses_by_element(spec)
        for binding in mm.bindings:
            clause = clauses[binding.element]
            _, trace = reference_close_selection_traced(
                local_models[binding.local_model], clause.names)
            assert binding.trace == trace, seed
            expected = tuple(expected_row(f, trace[f], clause.span, "fuzz.gis")
                             for f in sorted(trace))
            assert explain(resolved, binding.element) == expected, seed
        reached.update(d.code for d in resolved.diagnostics)
        if mm.bindings:
            reached.add("bound")
    assert FUZZ_REACHES[fixture] <= reached, FUZZ_REACHES[fixture] - reached
