"""Resolution of a product specification against a product line definition.

resolve() first warns about each LOCAL line whose metaclass no specification
element can have, then closes and validates the global selection. It then
visits each declaration once, in the specification's order, after a first
pass over the entity names, which properties may name before they are
declared. One visit checks the declaration's names, places its element in its
viewpoint, binds its feature clause and records its effective configuration.
Last, it checks the global defaults that unbound elements fall back to, which
it reads off the multimodel. Semantic problems never raise: they become
Diagnostics and resolution continues, so one run reports as much as possible.
Error-severity diagnostics block emission downstream. Diagnostics about spec
elements, no-metaclass included, cite the spec; those about the global
defaults cite the definition.

The specification's syntactic positions route feature clauses: an entity
clause binds through the first local model applied to data.Entity, a map
clause through visualization.Map, a layer reference clause through
visualization.LayerInMap. A clause feature that lives in a different local
tree is an error, never silently promoted.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .errors import InvalidSelection, UnknownElement
from .features import Configuration, close_selection, validate_configuration
from .multimodel import Multimodel, ViewpointModel
from .records import Record
from .spldef import SplDefinition
from .syntax import BUILTIN_TYPES, EntityDecl, FeatureClause, ProductSpec, Span

# every viewpoint.metaclass a specification places elements of: its entities,
# layers, maps and each map's references to layers, in that order
PLACED_METACLASSES = ("data.Entity", "visualization.Layer", "visualization.Map",
                      "visualization.LayerInMap")

# explain's origin and detail for each closure rule; {} is the feature that pulled it in
_CLOSURE_ORIGINS = {
    "seed": ("local", None),
    "root": ("local", "bound local root"),
    "parent": ("closure(parent)", "parent of {}"),
    "mandatory": ("closure(mandatory)", "mandatory child of {}"),
    "requires": ("closure(requires)", "required by {}"),
}


def _described(metaclass: str, name: str) -> str:
    """How a diagnostic names a placed element: "entity 'E'", "layer 'L'",
    "map 'M'" or, for a layer in a map, "layer 'L' in map 'M'"."""
    if metaclass == "LayerInMap":
        map_name, _, layer = name.partition(".")
        return f"layer {layer!r} in map {map_name!r}"
    return f"{metaclass.lower()} {name!r}"


class Diagnostic(NamedTuple):
    severity: Literal["error", "warning"]
    code: str
    message: str
    span: Span | None = None
    source: str = "<spec>"

    def sort_key(self) -> tuple:
        line = self.span.line if self.span else 0
        column = self.span.column if self.span else 0
        return (self.source, line, column, self.code)


class Provenance(NamedTuple):
    """Why one feature is part of an element's effective configuration."""

    feature: str
    origin: str  # "local", "global-default", or "closure(<rule>)"
    detail: str | None = None
    span: Span | None = None
    source: str = "<spec>"


class ResolvedProduct(Record):
    multimodel: Multimodel
    effective: dict[str, Configuration]
    included: tuple[str, ...]
    diagnostics: tuple[Diagnostic, ...]
    # carried along for explain and emission
    spec: ProductSpec
    definition: SplDefinition
    clause_spans: dict[str, Span]  # bound element -> its feature clause
    _fields = ("multimodel", "effective", "included", "diagnostics",
               "spec", "definition", "clause_spans")
    _compared = 4

    def __init__(self, multimodel: Multimodel, effective: dict[str, Configuration],
                 included: tuple[str, ...], diagnostics: tuple[Diagnostic, ...],
                 spec: ProductSpec, definition: SplDefinition,
                 clause_spans: dict[str, Span] | None = None):
        vars(self).update(multimodel=multimodel, effective=effective, included=included,
                          diagnostics=diagnostics, spec=spec, definition=definition,
                          clause_spans={} if clause_spans is None else clause_spans)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")


def resolve(spec: ProductSpec, definition: SplDefinition) -> ResolvedProduct:
    return _Resolution(spec, definition).run()


def explain(resolved: ResolvedProduct, element: str) -> tuple[Provenance, ...]:
    """Per-feature origin of an element's effective configuration, sorted by
    feature name. The element must be covered by some applied-to declaration.
    Each covering local model gives its binding's closure trace, cited at the
    clause, or else its global default, cited at the product. For a feature
    two models share, the first declaration's row wins; a clause binds through
    the first model applied to its metaclass, so a bound row beats a default."""
    if element not in resolved.effective:
        raise UnknownElement(f"no covered element {element!r} in the resolved product")
    mm, source = resolved.multimodel, resolved.spec.source_name
    rows: dict[str, Provenance] = {}
    for local_model in mm.covering(element.partition(".")[0], mm.element(element).kind):
        binding = mm.binding(element, local_model)
        if binding is None:
            for feature in mm.global_default(local_model):
                rows.setdefault(feature, Provenance(feature, "global-default", "no binding exists",
                                                    resolved.spec.product.span, source))
            continue
        for feature, step in binding.trace.items():
            origin, detail = _CLOSURE_ORIGINS[step.cause]
            rows.setdefault(feature, Provenance(feature, origin, detail and detail.format(step.of),
                                                resolved.clause_spans[element], source))
    return tuple(rows[name] for name in sorted(rows))


class _Resolution:

    def __init__(self, spec: ProductSpec, definition: SplDefinition):
        self.spec = spec
        self.definition = definition
        self.diagnostics: list[Diagnostic] = []
        self.clause_spans: dict[str, Span] = {}
        self.effective: dict[str, Configuration] = {}

    def report(self, code: str, message: str, span: Span | None,
               source: str | None = None, severity: str = "error") -> None:
        self.diagnostics.append(Diagnostic(
            severity, code, message, span, source or self.spec.source_name))

    # -- pipeline -------------------------------------------------------------

    def run(self) -> ResolvedProduct:
        definition = self.definition
        self.check_local_lines()
        global_selection = self.global_selection()
        viewpoints = {name: ViewpointModel(name, frozenset(metaclasses))
                      for name, metaclasses in definition.viewpoints.items()}
        mm = Multimodel(definition.functional, viewpoints, global_selection, validate=False)
        for decl in definition.applied_to:
            mm.declare_applied_to(decl.local_model, decl.viewpoint, decl.metaclass)
        self.default_reports = {name: validate_configuration(local, mm.global_default(name))
                                for name, local in definition.functional.locals.items()}
        self.place_all(mm)
        self.check_defaults(mm)

        self.diagnostics.sort(key=Diagnostic.sort_key)
        effective = self.effective
        return ResolvedProduct(mm, effective,
                               tuple(sorted(global_selection.union(*effective.values()))),
                               tuple(self.diagnostics), spec=self.spec, definition=definition,
                               clause_spans=self.clause_spans)

    # -- first: LOCAL lines no element can use ---------------------------------

    def check_local_lines(self) -> None:
        for decl in self.definition.applied_to:
            place = f"{decl.viewpoint}.{decl.metaclass}"
            if place not in PLACED_METACLASSES:
                self.report("inert-local",
                            f"LOCAL {decl.local_model} APPLIED TO {place} binds nothing: "
                            f"specification elements are only {', '.join(PLACED_METACLASSES)}",
                            decl.span, self.definition.source_name, "warning")

    # -- then: the global selection ---------------------------------------------

    def global_selection(self) -> Configuration:
        global_model = self.definition.functional.global_model
        product = self.spec.product
        seeds = set(self.definition.defaults)
        if product.features is not None:
            span = product.features.span
            for name in product.features.names:
                if name not in global_model:
                    self.report("unknown-feature",
                                f"product selects {name!r}, which is not a feature of "
                                f"the global model {global_model.name!r}", span)
                else:
                    seeds.add(name)
        selection = close_selection(global_model, seeds)
        report = validate_configuration(global_model, selection)
        for violation in report.violations:
            self.report("invalid-global-selection",
                        f"global selection is invalid: {violation.message}", product.span)
        return selection

    # -- then: one visit per declaration ------------------------------------------

    def place_all(self, mm: Multimodel) -> None:
        """Visit each declaration once, in the specification's order, after
        a first pass over the entity names, which properties may name before
        they are declared. A visit checks every declaration's names and
        clause; the first declaration of each name, and each map's first
        reference to each layer, is then placed. A repeat is not placed, nor
        are its map's layer references, so its clause is checked, not bound."""
        entity, layer, map_, layer_in_map = (self.slot(mm, *place.split("."))
                                             for place in PLACED_METACLASSES)
        entities: dict[str, EntityDecl] = {}
        for decl in self.spec.entities:
            entities.setdefault(decl.name, decl)
        declared: set[str] = set()
        for decl in self.spec.entities:
            self.check_properties(decl, entities)
            self.place(mm, entity, decl.name, decl.span, decl.features,
                       self.first(declared, entity, decl.name, decl.span))

        layers: set[str] = set()
        for decl in self.spec.layers:
            first = self.first(layers, layer, decl.name, decl.span)
            if decl.entity not in entities:
                self.report("unknown-entity",
                            f"layer {decl.name!r} is FOR unknown entity {decl.entity!r}",
                            decl.span)
            styles: set[str] = set()
            for style in decl.styles:
                if style.name in styles:
                    self.report("duplicate-style",
                                f"layer {decl.name!r} declares style {style.name!r} twice",
                                decl.span)
                styles.add(style.name)
            self.place(mm, layer, decl.name, decl.span, None, first)

        maps: set[str] = set()
        for decl in self.spec.maps:
            first = self.first(maps, map_, decl.name, decl.span)
            self.place(mm, map_, decl.name, decl.span, decl.features, first)
            refs: set[str] = set()
            for ref in decl.layers:
                # base layers are built-in tile sources, not declared data layers
                if not ref.is_base_layer and ref.name not in layers:
                    self.report("unknown-layer",
                                f"map {decl.name!r} references undeclared layer "
                                f"{ref.name!r}", ref.span)
                if ref.name in refs:
                    self.report("duplicate-name",
                                f"map {decl.name!r} references layer {ref.name!r} twice",
                                ref.span)
                    continue
                refs.add(ref.name)
                self.place(mm, layer_in_map, f"{decl.name}.{ref.name}", ref.span,
                           ref.features, first)

    def first(self, seen: set[str], slot: tuple, name: str, span: Span) -> bool:
        """Whether a declaration is the first of its name, which joins seen;
        a later one is a duplicate-name error."""
        if name in seen:
            self.report("duplicate-name", f"{_described(slot[1], name)} is declared twice", span)
            return False
        seen.add(name)
        return True

    def check_properties(self, decl: EntityDecl, entities: dict[str, EntityDecl]) -> None:
        """Check an entity's properties; a type or target names the first
        entity declared with that name."""
        seen: set[str] = set()
        for prop in decl.properties:
            if prop.name in seen:
                self.report("duplicate-property",
                            f"entity {decl.name!r} declares property {prop.name!r} twice",
                            prop.span)
            seen.add(prop.name)
            rel = prop.relationship
            if rel is None:
                if prop.type_name not in BUILTIN_TYPES and prop.type_name not in entities:
                    self.report("unknown-type",
                                f"property {prop.name!r} of entity {decl.name!r} has "
                                f"unknown type {prop.type_name!r}", prop.span)
                continue
            target = entities.get(prop.type_name)
            if target is None:
                self.report("unknown-entity",
                            f"relationship {prop.name!r} of entity {decl.name!r} "
                            f"targets unknown entity {prop.type_name!r}", prop.span)
                continue
            if rel.mapped_by is None:
                continue
            inverse = next((p for p in target.properties if p.name == rel.mapped_by), None)
            where = f"{prop.type_name}.{rel.mapped_by}"
            if inverse is None:
                problem = (f"MAPPED_BY {rel.mapped_by!r} names no property of "
                           f"entity {prop.type_name!r}")
            elif inverse.relationship is None or not inverse.relationship.bidirectional:
                problem = f"MAPPED_BY target {where} is not a BIDIRECTIONAL relationship"
            elif inverse.type_name != decl.name:
                problem = (f"MAPPED_BY target {where} relates {inverse.type_name!r}, "
                           f"not {decl.name!r}")
            else:
                continue
            self.report("invalid-mapped-by", problem, prop.span)

    def slot(self, mm: Multimodel, viewpoint: str, metaclass: str) -> tuple:
        """What placing an element of a metaclass needs, worked out once for
        all its elements: the viewpoint and metaclass, the viewpoint's
        element kinds (None if it has no such metaclass), and the local
        models covering the metaclass (Multimodel.covering)."""
        vp = mm.viewpoints.get(viewpoint)
        kinds = vp.kinds if vp is not None and metaclass in vp.metaclasses else None
        return viewpoint, metaclass, kinds, mm.covering(viewpoint, metaclass)

    def place(self, mm: Multimodel, slot: tuple, name: str, span: Span,
              clause: FeatureClause | None, first: bool) -> None:
        """Check an element's clause, then place the element, bind the
        clause, and record its effective configuration: the union, over the
        local models covering it, of its binding through the first or else
        each model's global default. A repeat (first is False) is not placed,
        nor is an element that cannot be; its clause is only checked. With
        one covering model, the multimodel's own object is recorded as is.
        With several, the element's configuration, restricted to each
        model's features in turn, must be valid in that model: nested models
        can put a default beside a binding or another default that rules it
        out. That is checked unless a clause failed to bind or a covering
        model's own default is invalid, which is reported already."""
        seeds = self.clause_seeds(slot, name, clause)
        viewpoint, metaclass, kinds, covering = slot
        if not first:
            return
        if kinds is None:
            self.report("no-metaclass",
                        f"definition declares no {viewpoint}.{metaclass}; cannot "
                        f"place element {name!r}", span)
            return
        if name in kinds:
            # layers and maps share the visualization viewpoint's namespace
            self.report("duplicate-name",
                        f"{_described(metaclass, name)} has the same name as "
                        f"{kinds[name].lower()} {name!r}", span)
            return
        kinds[name] = metaclass
        element = f"{viewpoint}.{name}"
        config = None
        if seeds is not None:
            try:
                config = mm.bind_local(element, covering[0], seeds)
            except InvalidSelection as exc:
                self.report("invalid-selection", str(exc), clause.span)
            else:
                self.clause_spans[element] = clause.span
        for local_model in covering if config is None else covering[1:]:
            default = mm.global_default(local_model)
            config = default if config is None else config | default
        if config is not None:
            self.effective[element] = config
        if len(covering) > 1 and (element in self.clause_spans or seeds is None and all(
                self.default_reports[local_model].valid for local_model in covering)):
            for local_model in covering:
                local = self.definition.functional.locals[local_model]
                report = validate_configuration(local, config & local.feature_names)
                if not report.valid:
                    detail = "; ".join(v.message for v in report.violations)
                    self.report("invalid-selection",
                                f"{_described(metaclass, name)} gets a configuration that is "
                                f"invalid against local model {local_model!r}: {detail}",
                                self.clause_spans.get(element, span))
                    break

    def clause_seeds(self, slot: tuple, name: str,
                     clause: FeatureClause | None) -> Configuration | None:
        """The seeds an element's clause binds through the first local model
        covering its slot: its names, once each is known to be a feature of
        that model. None if there is no clause, or if it cannot bind, which is
        reported; every element gets its own diagnostics. The seeds are a
        fresh set per element: bind_local shares one closure among equal
        seeds."""
        if clause is None:
            return None
        viewpoint, metaclass, _, covering = slot
        if not covering:
            self.report("no-local-model",
                        f"{_described(metaclass, name)} has a feature clause, but no local "
                        f"model is applied to {viewpoint}.{metaclass}", clause.span)
            return None
        local_name = covering[0]
        local = self.definition.functional.locals[local_name]
        if local.feature_names.issuperset(clause.names):
            return frozenset(clause.names)
        for feature in clause.names:
            if feature not in local:
                owner = self.owning_model(feature)
                hint = f"; it belongs to {owner}" if owner else ""
                self.report("unknown-feature",
                            f"{_described(metaclass, name)} selects {feature!r}, which is "
                            f"not a feature of local model {local_name!r}{hint}", clause.span)
        return None

    def owning_model(self, feature: str) -> str | None:
        for name, local in self.definition.functional.locals.items():
            if feature in local:
                return f"local model {name!r}"
        if feature in self.definition.functional.global_model:
            return "the global model"
        return None

    # -- last: the global defaults elements fall back to ---------------------------

    def check_defaults(self, mm: Multimodel) -> None:
        for name, report in self.default_reports.items():
            if report.valid:
                continue
            detail = "; ".join(v.message for v in report.violations)
            falling = [element for element, local_model in mm.covered_elements()
                       if local_model == name and mm.binding(element, name) is None]
            if falling:
                more = "" if len(falling) <= 3 else f" (and {len(falling) - 3} more)"
                outcome = f" and {', '.join(sorted(falling)[:3])}{more} fall back to it"
            else:
                outcome = "; no element falls back to it"
            # cited at DEFAULTS, or else at the model's first LOCAL line
            span = self.definition.defaults_span or next(
                (d.span for d in self.definition.applied_to if d.local_model == name), None)
            self.report("invalid-global-default",
                        f"global default for local model {name!r} is invalid ({detail}){outcome}",
                        span, self.definition.source_name, "error" if falling else "warning")
