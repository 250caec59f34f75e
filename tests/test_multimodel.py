"""Local feature models bound to elements of other system models."""

import random

import pytest

from localfeatures import (
    FunctionalModel,
    Multimodel,
    build_feature_model,
    close_selection,
    mandatory,
    optional,
    requires,
    validate_configuration,
)
from localfeatures.errors import (
    DuplicateBinding,
    EntityNameMismatch,
    FeatureModelError,
    InvalidSelection,
    KindMismatch,
    MultimodelError,
    TwinMismatch,
    UnknownElement,
    UnknownFeature,
    UnknownLocalModel,
    UnknownMetaclass,
)
from localfeatures.features import XOR
from localfeatures.multimodel import ModelEntity, ViewpointModel
from localfeatures.spldef import parse_spl_definition

from generators import random_feature_model, reference_check_subtree, twin_mutants


def local_twin(tree, constraints=()):
    return build_feature_model(tree, constraints, name=tree.name)


def viewpoints():
    data = ViewpointModel("data", frozenset({"Entity"}), {
        "Municipality": ModelEntity("Municipality", "Entity"),
        "Hotel": ModelEntity("Hotel", "Entity"),
    })
    visualization = ViewpointModel(
        "visualization", frozenset({"Map", "Layer", "LayerInMap"}), {
            "municipalitiesMap": ModelEntity("municipalitiesMap", "Map"),
            "hotelsMap": ModelEntity("hotelsMap", "Map"),
        })
    return {"data": data, "visualization": visualization}


@pytest.fixture
def gis_multimodel(gis_definition):
    functional = gis_definition.functional
    selection = close_selection(
        functional.global_model, frozenset({"TopMenu", "UserManagement"}))
    mm = Multimodel(functional, viewpoints(), selection)
    for decl in gis_definition.applied_to:
        mm.declare_applied_to(decl.local_model, decl.viewpoint, decl.metaclass)
    return mm


# -- structural twins ----------------------------------------------------------

def test_matching_twin_is_accepted(gis_definition):
    # the packaged definition registers three locals, all twins of the global
    assert set(gis_definition.functional.locals) == {
        "EntityFeature", "MapFeature", "LayerFeature"}


def test_twin_with_missing_child_rejected():
    g = build_feature_model(
        mandatory("Root", optional("Widget", optional("A"), optional("B"))))
    twin = local_twin(mandatory("Widget", optional("A")))
    with pytest.raises(TwinMismatch, match="children"):
        FunctionalModel(g, {"Widget": twin})


def test_twin_with_different_child_kind_rejected():
    g = build_feature_model(mandatory("Root", optional("Widget", optional("A"))))
    twin = local_twin(mandatory("Widget", mandatory("A")))
    with pytest.raises(TwinMismatch, match="locally"):
        FunctionalModel(g, {"Widget": twin})


def test_twin_with_different_group_rejected():
    g = build_feature_model(
        mandatory("Root", optional("Widget", optional("A"), optional("B"))))
    twin = local_twin(mandatory("Widget", optional("A"), optional("B"), group=XOR))
    with pytest.raises(TwinMismatch, match="group"):
        FunctionalModel(g, {"Widget": twin})


def test_twin_with_reordered_children_rejected():
    g = build_feature_model(
        mandatory("Root", optional("Widget", optional("A"), optional("B"))))
    twin = local_twin(mandatory("Widget", optional("B"), optional("A")))
    with pytest.raises(TwinMismatch):
        FunctionalModel(g, {"Widget": twin})


def test_twin_constraints_must_match_within_subtree():
    g = build_feature_model(
        mandatory("Root", optional("Widget", optional("A"), optional("B"))),
        (requires("A", "B"),))
    twin = local_twin(mandatory("Widget", optional("A"), optional("B")))
    with pytest.raises(TwinMismatch, match="constraint"):
        FunctionalModel(g, {"Widget": twin})


def test_twin_ignores_constraints_outside_the_subtree():
    g = build_feature_model(
        mandatory("Root",
                  optional("Widget", optional("A"), optional("B")),
                  optional("C"), optional("D")),
        (requires("A", "B"), requires("C", "D")))
    twin = local_twin(
        mandatory("Widget", optional("A"), optional("B")), (requires("A", "B"),))
    fm = FunctionalModel(g, {"Widget": twin})
    assert fm.locals["Widget"] is twin


def test_local_root_without_global_copy_rejected():
    g = build_feature_model(mandatory("Root", optional("Widget")))
    twin = local_twin(mandatory("Gadget"))
    with pytest.raises(TwinMismatch, match="no copy"):
        FunctionalModel(g, {"Gadget": twin})


def test_local_registered_under_wrong_name_rejected():
    g = build_feature_model(mandatory("Root", optional("Widget")))
    twin = local_twin(mandatory("Widget"))
    with pytest.raises(TwinMismatch, match="registered"):
        FunctionalModel(g, {"Other": twin})


def twin_message(check):
    """The TwinMismatch message check() raises, or None if it raises none."""
    try:
        check()
    except TwinMismatch as exc:
        return str(exc)
    return None


def tree_names(f):
    return {f.name}.union(*map(tree_names, f.children))


def assert_twin_checks_agree(global_model, name, constraints):
    """Every buildable mutant of a local twin of global_model's copy of name
    is rejected by FunctionalModel exactly as the recursive reference
    rejects it, or accepted by both. The twin keeps the constraints among
    its names, so only the trees differ. Returns how many were rejected."""
    copy = global_model.feature(name)
    rejected = 0
    for change, tree in [("none", copy), *twin_mutants(copy)]:
        names = tree_names(tree)
        try:
            local = local_twin(tree, [c for c in constraints
                                      if c.lhs in names and c.rhs in names])
        except FeatureModelError:
            continue
        expected = twin_message(
            lambda: reference_check_subtree(copy, local.root, name, is_root=True))
        assert twin_message(lambda: FunctionalModel(global_model, {name: local})) == expected, (
            name, change)
        rejected += expected is not None
    return rejected


def test_twin_check_agrees_with_the_reference_on_the_packaged_models(gis_definition):
    functional = gis_definition.functional
    for name, local in functional.locals.items():
        rejected = assert_twin_checks_agree(functional.global_model, name, local.constraints)
        assert rejected > len(local.features) * 4


@pytest.mark.parametrize("seed", range(20))
def test_twin_check_agrees_with_the_reference_on_random_models(seed):
    rng = random.Random(2900 + seed)
    rejected = 0
    for _ in range(5):
        g = random_feature_model(rng, max_features=10)
        name = rng.choice([f.name for f in g.features if f.children])
        rejected += assert_twin_checks_agree(g, name, g.constraints)
    assert rejected > 0


# -- multimodel wiring ---------------------------------------------------------

def test_invalid_global_selection_rejected_at_construction(gis_definition):
    functional = gis_definition.functional
    with pytest.raises(InvalidSelection):
        Multimodel(functional, viewpoints(),
                   frozenset({"GIS_SPL", "Menu", "TopMenu", "LeftMenu"}))
    mm = Multimodel(functional, viewpoints(),
                    frozenset({"GIS_SPL", "Menu", "TopMenu", "LeftMenu"}),
                    validate=False)
    assert "LeftMenu" in mm.global_selection


def test_default_selection_is_the_closure_of_nothing(gis_definition):
    mm = Multimodel(gis_definition.functional)
    assert mm.global_selection == close_selection(
        gis_definition.functional.global_model, frozenset())


def test_declare_applied_to_is_idempotent(gis_multimodel):
    before = list(gis_multimodel.covered_elements())
    gis_multimodel.declare_applied_to("EntityFeature", "data", "Entity")
    assert list(gis_multimodel.covered_elements()) == before


def test_declare_applied_to_checks_endpoints(gis_multimodel):
    with pytest.raises(UnknownLocalModel):
        gis_multimodel.declare_applied_to("Nope", "data", "Entity")
    with pytest.raises(UnknownMetaclass):
        gis_multimodel.declare_applied_to("EntityFeature", "data", "Nope")
    with pytest.raises(UnknownMetaclass):
        gis_multimodel.declare_applied_to("EntityFeature", "nowhere", "Entity")


def test_covered_elements_follow_declaration_order(gis_multimodel):
    covered = list(gis_multimodel.covered_elements())
    assert covered == [
        ("data.Municipality", "EntityFeature"),
        ("data.Hotel", "EntityFeature"),
        ("visualization.municipalitiesMap", "MapFeature"),
        ("visualization.hotelsMap", "MapFeature"),
    ]


def test_viewpoint_rejects_an_element_under_another_name():
    # stored as name -> kind, such an element would be covered as data.y
    # and then unknown to every lookup by that name
    with pytest.raises(EntityNameMismatch, match="element 'y' under 'x'"):
        ViewpointModel("data", frozenset({"Entity"}), {"x": ModelEntity("y", "Entity")})
    assert issubclass(EntityNameMismatch, MultimodelError)
    data = viewpoints()["data"]
    assert data.entities == {"Municipality": ModelEntity("Municipality", "Entity"),
                             "Hotel": ModelEntity("Hotel", "Entity")}
    assert data == ViewpointModel("data", frozenset({"Entity"}), data.entities)


def test_viewpoint_rejects_an_element_of_an_undeclared_metaclass():
    # such an element could never be covered, since declare_applied_to
    # accepts only the viewpoint's own metaclasses
    with pytest.raises(UnknownMetaclass, match="element 'x' of undeclared metaclass 'Map'"):
        ViewpointModel("data", frozenset({"Entity"}), {"x": ModelEntity("x", "Map")})


def test_multimodel_rejects_a_viewpoint_under_another_name(gis_definition):
    # filed under "data", its elements would be covered as vis.x, a name
    # that no lookup finds
    vis = ViewpointModel("vis", frozenset({"Map"}), {"x": ModelEntity("x", "Map")})
    with pytest.raises(EntityNameMismatch, match="viewpoint 'vis' under 'data'"):
        Multimodel(gis_definition.functional, {"data": vis})


def test_element_lookup_partitions_on_the_first_dot(gis_multimodel):
    assert gis_multimodel.element("data.Hotel").kind == "Entity"
    with pytest.raises(UnknownElement):
        gis_multimodel.element("data.Nope")
    with pytest.raises(UnknownElement):
        gis_multimodel.element("Hotel")


# -- binding -------------------------------------------------------------------

def test_binding_stores_the_closed_selection(gis_multimodel):
    returned = gis_multimodel.bind_local(
        "data.Hotel", "EntityFeature",
        {"Form", "Creatable", "Editable", "List", "FormAccess", "Filterable"})
    stored = gis_multimodel.binding("data.Hotel", "EntityFeature").selection
    assert stored == {"EntityFeature", "Form", "Creatable", "Editable",
                      "List", "FormAccess", "Filterable"}
    assert returned is stored


def test_equal_seeds_share_one_selection(gis_multimodel):
    # the emitter renders each distinct selection object once
    first = gis_multimodel.bind_local("data.Hotel", "EntityFeature", {"Form", "List"})
    second = gis_multimodel.bind_local("data.Municipality", "EntityFeature", {"List", "Form"})
    assert second is first
    assert gis_multimodel.binding("data.Municipality", "EntityFeature").selection is first


def test_binding_seeds_are_closed_under_requires(gis_multimodel):
    gis_multimodel.bind_local("data.Hotel", "EntityFeature", {"FormAccess"})
    stored = gis_multimodel.binding("data.Hotel", "EntityFeature").selection
    assert stored == {"EntityFeature", "List", "FormAccess", "Form"}


def test_binding_rejects_features_of_other_local_models(gis_multimodel):
    with pytest.raises(UnknownFeature):
        gis_multimodel.bind_local(
            "visualization.hotelsMap", "MapFeature", {"StyleSelector"})


def test_binding_rejects_elements_of_the_wrong_metaclass(gis_definition):
    functional = gis_definition.functional
    mm = Multimodel(functional, viewpoints())
    mm.declare_applied_to("EntityFeature", "visualization", "Map")
    with pytest.raises(KindMismatch):
        mm.bind_local("data.Hotel", "EntityFeature", {"Form"})


def test_a_declaration_covers_its_own_viewpoint_only(gis_definition):
    archive = ViewpointModel("archive", frozenset({"Entity"}), {
        "OldHotel": ModelEntity("OldHotel", "Entity")})
    mm = Multimodel(gis_definition.functional, {**viewpoints(), "archive": archive})
    mm.declare_applied_to("EntityFeature", "data", "Entity")
    # binding and reading run one coverage check, with one error
    with pytest.raises(KindMismatch) as bound:
        mm.bind_local("archive.OldHotel", "EntityFeature", {"Form"})
    with pytest.raises(KindMismatch) as read:
        mm.effective_configuration("archive.OldHotel", "EntityFeature")
    assert str(read.value) == str(bound.value) == (
        "local model 'EntityFeature' is not applied to any metaclass matching element "
        "'archive.OldHotel' of kind 'Entity'")
    mm.bind_local("data.Hotel", "EntityFeature", {"Form"})


def test_binding_without_a_covering_declaration_is_a_kind_mismatch(gis_multimodel):
    with pytest.raises(KindMismatch):
        gis_multimodel.bind_local("data.Hotel", "LayerFeature", {"Clustering"})


def test_binding_unknown_element_or_model(gis_multimodel):
    with pytest.raises(UnknownElement):
        gis_multimodel.bind_local("data.Nope", "EntityFeature", set())
    with pytest.raises(UnknownLocalModel):
        gis_multimodel.bind_local("data.Hotel", "Nope", set())


def test_rebinding_an_element_is_rejected(gis_multimodel):
    gis_multimodel.bind_local("data.Hotel", "EntityFeature", {"Form"})
    with pytest.raises(DuplicateBinding):
        gis_multimodel.bind_local("data.Hotel", "EntityFeature", {"List"})


def test_invalid_closed_selection_is_rejected(ecommerce_definition):
    functional = ecommerce_definition.functional
    catalog = ViewpointModel("catalog", frozenset({"Category"}), {
        "Films": ModelEntity("Films", "Category")})
    selection = close_selection(
        functional.global_model, frozenset(ecommerce_definition.defaults))
    mm = Multimodel(functional, {"catalog": catalog}, selection)
    mm.declare_applied_to("CategoryDisplay", "catalog", "Category")
    with pytest.raises(InvalidSelection):
        mm.bind_local("catalog.Films", "CategoryDisplay",
                      {"AudioSnippet", "VideoSnippet"})
    assert mm.binding("catalog.Films", "CategoryDisplay") is None


# -- defaults and effective configurations --------------------------------------

def test_global_default_restricts_the_selection_to_the_subtree(gis_multimodel):
    # TopMenu and UserManagement sit outside every local subtree
    assert gis_multimodel.global_default("EntityFeature") == {"EntityFeature"}
    assert gis_multimodel.global_default("MapFeature") == {"MapFeature"}
    with pytest.raises(UnknownLocalModel):
        gis_multimodel.global_default("Nope")


def test_global_default_keeps_globally_selected_subtree_features(gis_definition):
    functional = gis_definition.functional
    selection = close_selection(
        functional.global_model, frozenset({"LayerManager", "Filterable"}))
    mm = Multimodel(functional, viewpoints(), selection)
    assert mm.global_default("MapFeature") == {"MapFeature", "LayerManager"}
    assert mm.global_default("EntityFeature") == {
        "EntityFeature", "List", "Filterable"}


def test_global_default_always_contains_the_local_root():
    g = build_feature_model(mandatory("Root", optional("Widget", optional("A"))))
    functional = FunctionalModel(
        g, {"Widget": local_twin(mandatory("Widget", optional("A")))})
    mm = Multimodel(functional)
    assert "Widget" not in mm.global_selection
    assert mm.global_default("Widget") == {"Widget"}


def test_unbound_elements_fall_back_to_the_default(gis_multimodel):
    assert gis_multimodel.effective_configuration(
        "visualization.municipalitiesMap", "MapFeature") == {"MapFeature"}


def test_effective_configuration_requires_a_covering_declaration(gis_multimodel):
    with pytest.raises(KindMismatch):
        gis_multimodel.effective_configuration(
            "visualization.hotelsMap", "EntityFeature")


def test_binding_one_element_leaves_the_others_alone(gis_multimodel):
    untouched = gis_multimodel.effective_configuration("data.Hotel", "EntityFeature")
    gis_multimodel.bind_local("data.Municipality", "EntityFeature", {"Form"})
    assert gis_multimodel.effective_configuration(
        "data.Hotel", "EntityFeature") == untouched


def test_effective_configurations_validate_against_their_local_model(gis_multimodel):
    gis_multimodel.bind_local("data.Hotel", "EntityFeature", {"FormAccess"})
    gis_multimodel.bind_local("visualization.hotelsMap", "MapFeature", {"LayerManager"})
    for element, local_name in gis_multimodel.covered_elements():
        cfg = gis_multimodel.effective_configuration(element, local_name)
        local = gis_multimodel.functional.locals[local_name]
        assert validate_configuration(local, cfg).valid


# -- included features ----------------------------------------------------------

def test_included_features_without_declarations_is_the_global_selection(gis_definition):
    functional = gis_definition.functional
    selection = close_selection(functional.global_model, frozenset({"CSVImporter"}))
    mm = Multimodel(functional, viewpoints(), selection)
    assert mm.included_features() == tuple(sorted(selection))


def test_included_features_union_global_and_effective(gis_multimodel):
    gis_multimodel.bind_local("data.Hotel", "EntityFeature", {"Creatable"})
    included = set(gis_multimodel.included_features())
    expected = set(gis_multimodel.global_selection)
    for element, local_name in gis_multimodel.covered_elements():
        expected |= gis_multimodel.effective_configuration(element, local_name)
    assert included == expected
    assert gis_multimodel.included_features() == tuple(
        sorted(gis_multimodel.included_features()))


def test_included_features_grow_monotonically_with_bindings(gis_multimodel):
    before = set(gis_multimodel.included_features())
    gis_multimodel.bind_local(
        "visualization.hotelsMap", "MapFeature", {"UserGeolocation"})
    after = set(gis_multimodel.included_features())
    assert after >= before
    assert "UserGeolocation" in after


# -- worked example: per-category product displays -------------------------------

def test_categories_display_their_own_preview_and_layout(ecommerce_definition):
    functional = ecommerce_definition.functional
    catalog = ViewpointModel("catalog", frozenset({"Category", "CategoryComposite"}), {
        name: ModelEntity(name, "Category")
        for name in ("Films", "Pencils", "Books")})
    selection = close_selection(
        functional.global_model,
        frozenset({"Payment", "CreditCard"}) | set(ecommerce_definition.defaults))
    mm = Multimodel(functional, {"catalog": catalog}, selection)
    for decl in ecommerce_definition.applied_to:
        mm.declare_applied_to(decl.local_model, decl.viewpoint, decl.metaclass)

    mm.bind_local("catalog.Films", "CategoryDisplay", {"VideoSnippet", "Grid"})

    films = mm.effective_configuration("catalog.Films", "CategoryDisplay")
    assert films == {"CategoryDisplay", "Preview", "VideoSnippet", "Layout", "Grid"}
    assert "NoPreview" not in films

    # unbound categories inherit the defaults chosen for the whole shop
    pencils = mm.effective_configuration("catalog.Pencils", "CategoryDisplay")
    assert pencils == {"CategoryDisplay", "Preview", "NoPreview", "Layout", "List"}

    local = functional.locals["CategoryDisplay"]
    assert validate_configuration(local, films).valid
    assert validate_configuration(local, pencils).valid
    assert {"VideoSnippet", "NoPreview", "Grid", "List"} <= set(mm.included_features())


def test_ecommerce_definition_parses_with_defaults(ecommerce_source):
    d = parse_spl_definition(ecommerce_source, filename="ecommerce.spl")
    assert d.defaults == ("List", "NoPreview")
    assert d.functional.global_model.name == "ECommerce"
    assert set(d.functional.locals) == {"CategoryDisplay"}
