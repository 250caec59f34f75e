"""Record semantics: which fields take part in equality, hashing and repr,
and that no record can be changed once built."""

import pytest

from localfeatures.features import (
    ClosureStep,
    FeatureModel,
    build_feature_model,
    mandatory,
    optional,
)
from localfeatures.multimodel import (
    AppliedToDeclaration,
    FunctionalModel,
    LocalBinding,
    Multimodel,
    ViewpointModel,
)
from localfeatures.resolver import Diagnostic, ResolvedProduct
from localfeatures.spldef import SplDefinition
from localfeatures.syntax import (
    BoundingBox,
    EntityDecl,
    FeatureClause,
    LayerDecl,
    LayerRef,
    MapDecl,
    ProductDecl,
    ProductSpec,
    PropertyDecl,
    Span,
    StyleRef,
)

HERE, THERE = Span(0, 5, 1, 1), Span(10, 15, 2, 3)
MODEL = build_feature_model(mandatory("G", optional("A"), optional("B")))
FUNCTIONAL = FunctionalModel(MODEL)
MULTIMODEL = Multimodel(FUNCTIONAL)


def spec(span: Span, source_name: str = "<spec>", product: str = "P") -> ProductSpec:
    clause = FeatureClause(("A",), span)
    prop = PropertyDecl("p", "String", ("REQUIRED",), None, span)
    return ProductSpec(
        (EntityDecl("E", (prop,), clause, span),),
        (LayerDecl("L", "Layer", "E", "WFS", (StyleRef("s", True),), span),),
        (MapDecl("M", "Map", (LayerRef("L", (), clause, span),),
                 BoundingBox(((0.0, 0.0), (1.0, 1.0))), clause, span),),
        ProductDecl(product, clause, span), source_name)


def definition(span: Span, source_name: str = "<definition>",
               defaults: tuple[str, ...] = ("A",)) -> SplDefinition:
    return SplDefinition(FUNCTIONAL, {"data": ("Entity",)},
                         (AppliedToDeclaration("G", "data", "Entity", span),),
                         defaults, source_name, span)


def resolved(span: Span, included: tuple[str, ...] = ("A", "G")) -> ResolvedProduct:
    return ResolvedProduct(MULTIMODEL, {"data.E": frozenset({"G"})}, included,
                           (Diagnostic("warning", "w", "m", HERE),),
                           spec(span), definition(span), {"data.E": span})


def trace(cause: str) -> dict[str, ClosureStep]:
    return {"G": ClosureStep(cause)}


# Per record that ignores fields: two records that differ only in those
# fields, then one that differs in a compared field too.
CASES = {
    "FeatureClause": (FeatureClause(("A",), HERE), FeatureClause(("A",), THERE),
                      FeatureClause(("B",), HERE)),
    "PropertyDecl": (PropertyDecl("p", "String", (), None, HERE),
                     PropertyDecl("p", "String", (), None, THERE),
                     PropertyDecl("p", "Long", (), None, HERE)),
    "EntityDecl": (spec(HERE).entities[0], spec(THERE).entities[0],
                   EntityDecl("E", (), None, HERE)),
    "LayerDecl": (spec(HERE).layers[0], spec(THERE).layers[0],
                  spec(HERE).layers[0]._replace(source_kind="WMS")),
    "LayerRef": (spec(HERE).maps[0].layers[0], spec(THERE).maps[0].layers[0],
                 LayerRef("L", ("IS_BASE_LAYER",), None, HERE)),
    "MapDecl": (spec(HERE).maps[0], spec(THERE).maps[0],
                spec(HERE).maps[0]._replace(center=None)),
    "ProductDecl": (ProductDecl("P", None, HERE), ProductDecl("P", None, THERE),
                    ProductDecl("Q", None, HERE)),
    "ProductSpec": (spec(HERE), spec(THERE, "other.gis"), spec(HERE, product="Q")),
    "AppliedToDeclaration": (AppliedToDeclaration("G", "data", "Entity", HERE),
                             AppliedToDeclaration("G", "data", "Entity", None),
                             AppliedToDeclaration("G", "data", "Map", HERE)),
    "LocalBinding": (LocalBinding("data.E", "G", frozenset({"G"}), trace("root")),
                     LocalBinding("data.E", "G", frozenset({"G"}), trace("seed")),
                     LocalBinding("data.F", "G", frozenset({"G"}), trace("root"))),
    "SplDefinition": (definition(HERE), definition(THERE, "other.spl"),
                      definition(HERE, defaults=("B",))),
    "ResolvedProduct": (resolved(HERE), resolved(THERE), resolved(HERE, ("G",))),
}
UNHASHABLE = {"SplDefinition", "ResolvedProduct"}  # a dict among the compared fields


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def lookalike(record):
    """A record of another type with the same name, fields and values."""
    cls = type(record)
    return type(cls.__name__, (cls,), {})(*values(record))


def assert_consistent(a, b) -> None:
    assert (a != b) is (not a == b)
    assert (b != a) is (not b == a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_compare_without_their_ignored_fields(name):
    a, b, c = CASES[name]
    ignored = a._fields[a._compared:]
    assert ignored and any(getattr(a, f) != getattr(b, f) for f in ignored)
    assert a == b and not a != b
    assert a != c and not a == c
    for x, y in ((a, b), (a, c), (b, c)):
        assert_consistent(x, y)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_equal_only_records_of_their_own_type(name):
    a = CASES[name][0]
    others = [lookalike(a), values(a), values(a)[:a._compared]]
    others += [case[0] for other, case in CASES.items() if other != name]
    for other in others:
        assert a != other and other != a
        assert not a == other and not other == a
        assert_consistent(a, other)
        # a lookalike's own methods answer first; the record's agree
        assert type(a).__eq__(a, other) is False and type(a).__ne__(a, other) is True


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_cannot_be_changed(name):
    a = CASES[name][0]
    for field in (*a._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, a._fields[0])


def test_reprs_leave_out_what_they_always_did():
    a, _, _ = CASES["AppliedToDeclaration"]
    assert repr(a) == "AppliedToDeclaration(local_model='G', viewpoint='data', metaclass='Entity')"
    binding = CASES["LocalBinding"][0]
    assert repr(binding) == ("LocalBinding(element='data.E', local_model='G', "
                             "selection=frozenset({'G'}))")
    text = repr(resolved(HERE))
    assert text.startswith(f"ResolvedProduct(multimodel={MULTIMODEL!r}, effective=")
    assert text.endswith(", included=('A', 'G'), diagnostics=(Diagnostic(severity='warning', "
                         "code='w', message='m', span=Span(start=0, end=5, line=1, column=1), "
                         "source='<spec>'),))")
    for hidden in ("spec=", "definition=", "clause_spans="):
        assert hidden not in text
    # the ignored fields of the syntax nodes and the definition are shown
    assert repr(CASES["ProductDecl"][0]) == (
        "ProductDecl(name='P', features=None, span=Span(start=0, end=5, line=1, column=1))")
    assert "source_name='other.spl', defaults_span=Span(" in repr(CASES["SplDefinition"][1])


def test_plain_class_records_compare_every_field():
    model = build_feature_model(mandatory("G", optional("A"), optional("B")))
    assert model == MODEL and hash(model) == hash(MODEL)
    model.features, model.end, model.rank_layout  # in the instance, not fields
    assert model == MODEL and repr(model) == repr(MODEL)
    assert repr(model) == (
        "FeatureModel(root=Feature(name='G', kind='mandatory', group=None, abstract=False, "
        "children=(Feature(name='A', kind='optional', group=None, abstract=False, "
        "children=()), Feature(name='B', kind='optional', group=None, abstract=False, "
        "children=()))), constraints=(), name='G')")
    assert model != FeatureModel(model.root, (), "H")
    assert model != lookalike(model) and model != values(model)
    assert FunctionalModel(model) == FUNCTIONAL
    assert repr(FUNCTIONAL) == f"FunctionalModel(global_model={MODEL!r}, locals={{}})"
    viewpoint = ViewpointModel("data", frozenset({"Entity"}))
    assert viewpoint == ViewpointModel("data", frozenset({"Entity"}), {})
    assert viewpoint != ViewpointModel("data", frozenset({"Map"}))
    assert repr(viewpoint) == "ViewpointModel(name='data', metaclasses=frozenset({'Entity'}), entities={})"
    for record in (model, FUNCTIONAL, viewpoint):
        with pytest.raises(AttributeError):
            record.name = "X"
