"""End-to-end acceptance checks. One test per shipping criterion, so the
``pytest -v`` report reads as the acceptance checklist."""

import hashlib
import random
import time
from collections import Counter

import pytest

from localfeatures import (
    ModelEntity,
    Multimodel,
    ViewpointModel,
    close_selection,
    emit,
    enumerate_configurations,
    format_spec,
    format_spl,
    parse,
    parse_spl_definition,
    resolve,
    validate_configuration,
    verify_schema,
)
from localfeatures.errors import ParseError

from generators import random_feature_model, random_token_soup, scale_spec_text


def test_criterion_1_golden_sources_roundtrip_and_resolve_clean(
        webeiel_source, gis_spl_source):
    started = time.perf_counter()

    spec = parse(webeiel_source, filename="webeiel.gis")
    definition = parse_spl_definition(gis_spl_source, filename="gis.spl")

    printed = format_spec(spec)
    assert format_spec(parse(printed)) == printed
    printed_spl = format_spl(definition)
    assert format_spl(parse_spl_definition(printed_spl)) == printed_spl

    resolved = resolve(spec, definition)
    assert resolved.diagnostics == ()
    assert time.perf_counter() - started < 1.0


def test_criterion_2_effective_configurations_match_the_worked_product(
        webeiel_resolved):
    effective = webeiel_resolved.effective
    assert effective["data.Municipality"] == {
        "EntityFeature", "Form", "List", "FormAccess", "Filterable"}
    assert effective["data.Hotel"] == (
        effective["data.Municipality"] | {"Creatable", "Editable"})
    assert effective["visualization.hotelsMap"] == {
        "MapFeature", "LayerManager", "UserGeolocation"}
    assert effective["visualization.hotelsMap.hotelsLayer"] == {
        "LayerFeature", "StyleSelector", "Clustering"}
    # no binding anywhere: the global default is just the local root
    assert effective["visualization.municipalitiesMap"] == {"MapFeature"}


def test_criterion_3_included_features_follow_the_bindings(
        webeiel_source, webeiel_resolved, gis_definition):
    assert {"TopMenu", "UserManagement", "Clustering", "LayerManager",
            "StyleSelector", "UserGeolocation", "Form", "Creatable",
            "Editable", "List", "FormAccess", "Filterable"
            } <= set(webeiel_resolved.included)

    # the hotels layer holds the only binding that names StyleSelector and
    # Clustering, so dropping its clause removes exactly those two
    mutated = webeiel_source.replace(
        "hotelsLayer WITH FEATURES ( StyleSelector, Clustering )", "hotelsLayer")
    assert mutated != webeiel_source
    resolved = resolve(parse(mutated, filename="mutated.gis"), gis_definition)
    assert resolved.diagnostics == ()
    assert set(resolved.included) == (
        set(webeiel_resolved.included) - {"Clustering", "StyleSelector"})


def test_criterion_4_exhaustive_validation_agrees_with_enumeration():
    started = time.perf_counter()
    rng = random.Random(4242)
    for _ in range(120):
        fm = random_feature_model(rng, max_features=12)
        names = sorted(fm.feature_names)
        enumerated = set(enumerate_configurations(fm))
        for bits in range(1 << len(names)):
            subset = frozenset(n for i, n in enumerate(names) if bits >> i & 1)
            assert validate_configuration(fm, subset).valid == (subset in enumerated)
    assert time.perf_counter() - started < 60.0


def test_criterion_5_scale_product_reproduces_the_reference_counts(
        gis_definition):
    started = time.perf_counter()
    resolved = resolve(parse(scale_spec_text(), filename="scale.gis"),
                       gis_definition)
    assert resolved.diagnostics == ()

    counts = Counter(
        feature for cfg in resolved.effective.values() for feature in cfg)
    assert counts["Form"] == 90          # 11 context + 79 editable
    assert counts["Creatable"] == 79
    assert counts["Editable"] == 79
    assert counts["Filterable"] == 107   # every entity
    assert counts["LayerManager"] == 8
    assert counts["UserGeolocation"] == 8
    assert counts["Clustering"] == 0
    assert counts["OpacitySelector"] == 150
    # every map element carries the local root, bound or defaulted
    assert counts["MapFeature"] == 54
    assert time.perf_counter() - started < 10.0


def test_criterion_6_categories_bind_and_default_independently(
        ecommerce_definition):
    functional = ecommerce_definition.functional
    shop = functional.global_model
    selection = close_selection(
        shop, frozenset({"Catalog", "Payment", "CreditCard"})
        | frozenset(ecommerce_definition.defaults))
    assert validate_configuration(shop, selection).valid

    catalog = ViewpointModel(
        "catalog", frozenset({"Category", "CategoryComposite"}),
        {name: ModelEntity(name, "Category") for name in ("Films", "Pencils")})
    mm = Multimodel(functional, {"catalog": catalog}, selection)
    for decl in ecommerce_definition.applied_to:
        mm.declare_applied_to(decl.local_model, decl.viewpoint, decl.metaclass)
    mm.bind_local("catalog.Films", "CategoryDisplay", {"VideoSnippet", "Grid"})

    films = mm.effective_configuration("catalog.Films", "CategoryDisplay")
    pencils = mm.effective_configuration("catalog.Pencils", "CategoryDisplay")
    assert films == {"CategoryDisplay", "Preview", "VideoSnippet",
                     "Layout", "Grid"}
    assert pencils == {"CategoryDisplay", "Preview", "NoPreview",
                       "Layout", "List"}


def test_criterion_7_emission_is_deterministic_and_schema_valid(
        webeiel_source, gis_spl_source):
    for source in (webeiel_source, "CREATE GIS Minimal;", scale_spec_text()):
        digests = set()
        emitted = ""
        for _ in range(2):
            definition = parse_spl_definition(gis_spl_source, filename="gis.spl")
            emitted = emit(resolve(parse(source), definition))
            digests.add(hashlib.sha256(emitted.encode("utf-8")).hexdigest())
        assert len(digests) == 1
        assert verify_schema(emitted)


def test_criterion_8_parser_survives_ten_thousand_token_soups():
    rng = random.Random(81)
    for _ in range(10_000):
        soup = random_token_soup(rng)
        with pytest.raises(ParseError) as err:
            parse(soup)
        assert err.value.line >= 1
        assert err.value.column >= 1
