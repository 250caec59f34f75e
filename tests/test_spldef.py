"""Product line definition files: viewpoints, feature models, LOCAL, DEFAULTS."""

import pytest

from localfeatures.errors import (
    DanglingConstraintEndpoint,
    DuplicateFeatureName,
    GroupTooSmall,
    ParseError,
    SelfConstraint,
    TwinMismatch,
)
from localfeatures.features import OR, XOR
from localfeatures.multimodel import AppliedToDeclaration
from localfeatures.spldef import MAX_FEATURE_DEPTH, format_spl, parse_spl_definition

from generators import nested_spl

MINIMAL = """\
VIEWPOINT data (Entity);

FEATUREMODEL Shop {
    MANDATORY Widget {
        OPTIONAL A
        OPTIONAL B XOR {
            C
            D
        }
    }
    REQUIRES A C
}

FEATUREMODEL Widget {
    OPTIONAL A
    OPTIONAL B XOR {
        C
        D
    }
    REQUIRES A C
}

LOCAL Widget APPLIED TO data.Entity;

DEFAULTS (A);
"""

# a global and a local model whose roots head groups
GROUPED_ROOTS = """\
VIEWPOINT data (Entity);

FEATUREMODEL Shop XOR {
    Pay OR {
        Card
        Cash
    }
    Free
}

FEATUREMODEL Pay OR {
    Card
    Cash
}

LOCAL Pay APPLIED TO data.Entity;
"""


# -- packaged definitions --------------------------------------------------------

def test_gis_definition_structure(gis_definition):
    assert gis_definition.viewpoints == {
        "data": ("Entity",),
        "visualization": ("Map", "Layer", "LayerInMap"),
    }
    assert gis_definition.functional.global_model.name == "GIS_SPL"
    assert set(gis_definition.functional.locals) == {
        "EntityFeature", "MapFeature", "LayerFeature"}
    assert gis_definition.applied_to == (
        AppliedToDeclaration("EntityFeature", "data", "Entity"),
        AppliedToDeclaration("MapFeature", "visualization", "Map"),
        AppliedToDeclaration("LayerFeature", "visualization", "LayerInMap"),
    )
    assert gis_definition.defaults == ()
    assert gis_definition.defaults_span is None


def test_gis_locals_are_marked_local_and_carry_their_constraints(gis_definition):
    entity = gis_definition.functional.locals["EntityFeature"]
    assert entity.name == "EntityFeature"
    assert [(c.kind, c.lhs, c.rhs) for c in entity.constraints] == [
        ("requires", "FormAccess", "Form")]
    assert gis_definition.functional.locals["MapFeature"].constraints == ()


def test_gis_menu_group_is_modeled_as_xor(gis_definition):
    menu = gis_definition.functional.global_model.feature("Menu")
    assert menu.group == XOR
    assert [c.name for c in menu.children] == ["TopMenu", "LeftMenu"]


def test_ecommerce_definition_structure(ecommerce_definition):
    d = ecommerce_definition
    assert d.functional.global_model.name == "ECommerce"
    assert d.viewpoints == {"catalog": ("Category", "CategoryComposite")}
    assert d.defaults == ("List", "NoPreview")
    assert d.defaults_span is not None
    preview = d.functional.locals["CategoryDisplay"].feature("Preview")
    assert preview.group == XOR
    assert len(preview.children) == 4
    payment = d.functional.global_model.feature("Payment")
    assert payment.group == OR


# -- canonical printing ------------------------------------------------------------

def test_canonical_definition_prints_byte_for_byte():
    for source in (MINIMAL, GROUPED_ROOTS):
        assert format_spl(parse_spl_definition(source)) == source


def test_packaged_definitions_round_trip(gis_definition, ecommerce_definition):
    for definition in (gis_definition, ecommerce_definition):
        text = format_spl(definition)
        assert parse_spl_definition(text) == definition
        assert format_spl(parse_spl_definition(text)) == text


def test_abstract_features_round_trip():
    source = ("FEATUREMODEL R {\n"
              "    OPTIONAL Display ABSTRACT {\n"
              "        OPTIONAL Small\n"
              "    }\n"
              "}\n")
    definition = parse_spl_definition(source)
    assert definition.functional.global_model.feature("Display").abstract
    assert format_spl(definition) == source


def test_empty_model_body_is_a_single_root():
    definition = parse_spl_definition("FEATUREMODEL R {\n}\n")
    assert definition.functional.global_model.feature_names == {"R"}


def test_root_level_group_marker():
    definition = parse_spl_definition("FEATUREMODEL R XOR {\n    A\n    B\n}\n")
    assert definition.functional.global_model.root.group == XOR


# -- global model inference ---------------------------------------------------------

def test_two_candidate_globals_are_rejected():
    source = "FEATUREMODEL A {\n}\nFEATUREMODEL B {\n}\n"
    with pytest.raises(ParseError, match="exactly one feature model") as exc:
        parse_spl_definition(source)
    assert "A, B" in str(exc.value)


def test_no_candidate_global_is_rejected():
    with pytest.raises(ParseError, match="candidates: none") as exc:
        parse_spl_definition("VIEWPOINT data (Entity);")
    # with no model and no LOCAL line, no token is to blame
    error = exc.value
    assert (error.line, error.column, error.start, error.end) == (1, 1, 0, 0)


def test_global_model_errors_blame_what_the_definition_shows(gis_spl_source):
    # a second candidate is reported at its FEATUREMODEL keyword
    source = gis_spl_source + "FEATUREMODEL Extra {\n}\nFEATUREMODEL More {\n}\n"
    with pytest.raises(ParseError, match="candidates: GIS_SPL, Extra, More") as exc:
        parse_spl_definition(source)
    error = exc.value
    assert (error.line, error.column) == (67, 1)
    assert source[error.start:error.end] == "FEATUREMODEL"
    assert source[error.start:].startswith("FEATUREMODEL Extra")

    # with every model LOCAL, at the first LOCAL line
    source = ("VIEWPOINT data (Entity, Map);\nFEATUREMODEL R {\n}\n"
              "LOCAL R APPLIED TO data.Entity;\nLOCAL R APPLIED TO data.Map;\n")
    with pytest.raises(ParseError, match="candidates: none") as exc:
        parse_spl_definition(source)
    error = exc.value
    assert (error.line, error.column) == (4, 1)
    assert source[error.start:error.end] == "LOCAL R APPLIED TO data.Entity;"


# -- declaration errors ---------------------------------------------------------------

def test_duplicate_viewpoint_rejected():
    with pytest.raises(ParseError, match="duplicate viewpoint"):
        parse_spl_definition(
            "VIEWPOINT data (Entity);\nVIEWPOINT data (Entity);\n"
            "FEATUREMODEL R {\n}\n")


def test_duplicate_metaclass_rejected_at_the_second_name():
    with pytest.raises(ParseError, match="duplicate metaclass 'Entity'") as exc:
        parse_spl_definition(
            "VIEWPOINT data (Entity, Entity);\n"
            "FEATUREMODEL R {\n}\n")
    assert (exc.value.line, exc.value.column) == (1, 25)


def test_duplicate_metaclass_rejected_before_a_later_syntax_error_in_its_list():
    with pytest.raises(ParseError, match="duplicate metaclass 'Entity'") as exc:
        parse_spl_definition("VIEWPOINT data (Entity, Entity, Map, ;\n")
    assert (exc.value.line, exc.value.column) == (1, 25)


def test_duplicate_feature_model_rejected():
    with pytest.raises(ParseError, match="duplicate feature model") as exc:
        parse_spl_definition("FEATUREMODEL R {\n}\nFEATUREMODEL R {\n}\n")
    assert exc.value.line == 3


def test_repeated_local_line_rejected(gis_spl_source):
    first_local = next(line for line in gis_spl_source.splitlines()
                       if line.startswith("LOCAL "))
    with pytest.raises(ParseError, match="duplicate LOCAL EntityFeature") as exc:
        parse_spl_definition(gis_spl_source + first_local + "\n")
    assert (exc.value.line, exc.value.column) == (67, 7)


def test_duplicate_defaults_rejected():
    with pytest.raises(ParseError, match="DEFAULTS twice"):
        parse_spl_definition("FEATUREMODEL R {\n}\nDEFAULTS ();\nDEFAULTS ();\n")


def test_local_must_reference_a_declared_model():
    source = MINIMAL.replace("LOCAL Widget", "LOCAL Gadget")
    with pytest.raises(ParseError, match="Gadget") as info:
        parse_spl_definition(source)
    assert (info.value.line, info.value.column) == (23, 7)


def test_local_must_reference_a_declared_viewpoint_and_metaclass():
    with pytest.raises(ParseError, match="no viewpoint") as info:
        parse_spl_definition(MINIMAL.replace("TO data.Entity", "TO nowhere.Entity"))
    assert (info.value.line, info.value.column) == (23, 25)
    with pytest.raises(ParseError, match="declares no metaclass") as info:
        parse_spl_definition(MINIMAL.replace("TO data.Entity", "TO data.Nope"))
    assert (info.value.line, info.value.column) == (23, 30)


def test_defaults_must_name_global_features():
    with pytest.raises(ParseError, match="Nope") as info:
        parse_spl_definition(MINIMAL.replace("DEFAULTS (A);", "DEFAULTS (A, Nope);"))
    assert (info.value.line, info.value.column) == (25, 1)


def test_constraint_endpoints_must_exist():
    with pytest.raises(DanglingConstraintEndpoint):
        parse_spl_definition(
            "FEATUREMODEL R {\n    OPTIONAL A\n    REQUIRES A Nope\n}\n")


def test_local_copy_must_mirror_the_global_subtree():
    # the local model drops child A, so the twin check fails
    source = MINIMAL.replace(
        "FEATUREMODEL Widget {\n    OPTIONAL A\n",
        "FEATUREMODEL Widget {\n")
    source = source.replace("    REQUIRES A C\n}\n\nLOCAL", "}\n\nLOCAL")
    source = source.replace("DEFAULTS (A);", "DEFAULTS ();")
    with pytest.raises(TwinMismatch, match="children"):
        parse_spl_definition(source)


TWIN_CONSTRAINTS = """\
FEATUREMODEL G {
    OPTIONAL W {
        OPTIONAL A
        OPTIONAL B
    }
    REQUIRES A B
}

  FEATUREMODEL W {
    OPTIONAL A
    OPTIONAL B
}
LOCAL W APPLIED TO data.Entity;
VIEWPOINT data (Entity);
"""


@pytest.mark.parametrize("source, error, line, column, blamed", [
    ("FEATUREMODEL R {\n    OPTIONAL A\n    OPTIONAL A\n}\n", DuplicateFeatureName, 3, 14, "A"),
    ("FEATUREMODEL R {\n  OPTIONAL R\n}\n", DuplicateFeatureName, 2, 12, "R"),
    ("FEATUREMODEL R {\n  OPTIONAL A { OPTIONAL B }\n  OPTIONAL B { OPTIONAL A }\n}\n",
     DuplicateFeatureName, 3, 25, "A"),
    ("FEATUREMODEL R XOR {\n  A\n}\n", GroupTooSmall, 1, 14, "R"),
    ("FEATUREMODEL R {\n  OPTIONAL A XOR { B }\n}\n", GroupTooSmall, 2, 12, "A"),
    ("FEATUREMODEL R {\n  OPTIONAL A\n  OPTIONAL A OR { B }\n}\n", GroupTooSmall, 3, 12, "A"),
    ("FEATUREMODEL R {\n  OPTIONAL A\n  REQUIRES A Nope\n}\n",
     DanglingConstraintEndpoint, 3, 14, "Nope"),
    ("FEATUREMODEL R {\n  REQUIRES Nope A\n  OPTIONAL A\n}\n",
     DanglingConstraintEndpoint, 2, 12, "Nope"),
    ("FEATUREMODEL R {\n  OPTIONAL A\n  EXCLUDES A A\n}\n", SelfConstraint, 3, 12, "A"),
    ("FEATUREMODEL G {\n  OPTIONAL W\n}\nFEATUREMODEL W XOR {\n  A\n}\n"
     "LOCAL W APPLIED TO d.E;\nVIEWPOINT d (E);", GroupTooSmall, 4, 14, "W"),
    (TWIN_CONSTRAINTS, TwinMismatch, 9, 3, "FEATUREMODEL"),
    (TWIN_CONSTRAINTS.replace("OPTIONAL B\n}\nLOCAL", "OPTIONAL C\n}\nLOCAL"),
     TwinMismatch, 9, 3, "FEATUREMODEL"),
    (TWIN_CONSTRAINTS.replace("FEATUREMODEL G {\n    OPTIONAL W", "FEATUREMODEL G {\n    OPTIONAL V"),
     TwinMismatch, 9, 3, "FEATUREMODEL"),
], ids=["duplicate", "duplicate-root", "duplicate-nested", "small-root-group", "small-group",
        "small-group-of-a-duplicate", "dangling-rhs", "dangling-lhs", "self", "local-model",
        "twin-constraints", "twin-names", "twin-without-copy"])
def test_model_errors_are_spanned_where_they_are_written(source, error, line, column, blamed):
    """Errors found while building the models keep their type and message,
    and carry the span of the feature, constraint endpoint or local
    FEATUREMODEL keyword they are about."""
    with pytest.raises(error) as exc:
        parse_spl_definition(source)
    span = exc.value.span
    assert (span.line, span.column) == (line, column)
    assert span.slice(source) == blamed


# -- body grammar ------------------------------------------------------------------

def test_kinded_nodes_are_required_outside_groups():
    with pytest.raises(ParseError) as exc:
        parse_spl_definition("FEATUREMODEL R {\n    A\n}\n")
    assert {"MANDATORY", "OPTIONAL", "}"} <= set(exc.value.expected)


def test_bare_nodes_are_required_inside_groups():
    with pytest.raises(ParseError) as exc:
        parse_spl_definition("FEATUREMODEL R XOR {\n    MANDATORY A\n    B\n}\n")
    assert exc.value.line == 2


def test_constraints_are_only_accepted_at_model_level():
    source = ("FEATUREMODEL R {\n"
              "    OPTIONAL A {\n"
              "        OPTIONAL B\n"
              "        REQUIRES B A\n"
              "    }\n"
              "}\n")
    with pytest.raises(ParseError) as exc:
        parse_spl_definition(source)
    assert exc.value.line == 4


# -- nesting depth -------------------------------------------------------------------

def test_features_nest_up_to_the_depth_limit_and_round_trip():
    definition = parse_spl_definition(nested_spl(MAX_FEATURE_DEPTH))
    model = definition.functional.global_model
    assert len(model.feature_names) == MAX_FEATURE_DEPTH + 1
    parent_of = {c.name: f.name for f in model.iter_features() for c in f.children}
    assert parent_of[f"F{MAX_FEATURE_DEPTH}"] == f"F{MAX_FEATURE_DEPTH - 1}"
    text = format_spl(definition)
    assert parse_spl_definition(text) == definition
    assert format_spl(parse_spl_definition(text)) == text


@pytest.mark.parametrize("depth", [MAX_FEATURE_DEPTH + 1, 5000])
def test_nesting_past_the_limit_is_a_positioned_parse_error(depth):
    with pytest.raises(ParseError) as exc:
        parse_spl_definition(nested_spl(depth))
    # the first feature too deep is F<limit + 1>, on its own line at column 3
    assert (exc.value.line, exc.value.column) == (MAX_FEATURE_DEPTH + 2, 3)
    assert "deeper than 200" in exc.value.message


def test_group_children_count_towards_the_depth_limit():
    source = nested_spl(MAX_FEATURE_DEPTH).replace(
        f"  OPTIONAL F{MAX_FEATURE_DEPTH}\n",
        f"  OPTIONAL F{MAX_FEATURE_DEPTH} XOR {{\n  X\n  Y\n}}\n")
    with pytest.raises(ParseError) as exc:
        parse_spl_definition(source)
    assert (exc.value.line, exc.value.column) == (MAX_FEATURE_DEPTH + 2, 3)
