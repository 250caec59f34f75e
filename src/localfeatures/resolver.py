"""Resolution of a product specification against a product line definition.

resolve() runs four steps, after warning about each LOCAL line whose
metaclass no specification element can have. It checks names, keeping the
first declaration of each entity, layer and map name; closes and validates
the global selection; builds the multimodel from the definition's viewpoints and applied-to
declarations, then walks the kept declarations once, placing each element in
its viewpoint and binding its feature clause in the same visit; and finally
computes each covered element's effective configuration plus the product's
included-feature set, checking the global defaults elements fall back to.
Semantic problems never raise: they become Diagnostics and resolution
continues, so one run reports as much as possible. Error-severity diagnostics
block emission downstream. Diagnostics about spec elements, no-metaclass
included, cite the spec; those about the global defaults cite the definition.

The specification's syntactic positions route feature clauses: an entity
clause binds through the local model applied to data.Entity, a map clause
through visualization.Map, a layer reference clause through
visualization.LayerInMap. A clause feature that lives in a different local
tree is an error, never silently promoted.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .errors import InvalidSelection, UnknownElement
from .features import Configuration, close_selection, validate_configuration
from .multimodel import ModelEntity, Multimodel, ViewpointModel
from .records import Record
from .spldef import SplDefinition
from .syntax import (
    BUILTIN_TYPES,
    EntityDecl,
    FeatureClause,
    MapDecl,
    ProductSpec,
    Span,
)

DATA_VIEWPOINT = "data"
VISUALIZATION_VIEWPOINT = "visualization"
ENTITY_METACLASS = "Entity"
MAP_METACLASS = "Map"
LAYER_METACLASS = "Layer"
LAYER_IN_MAP_METACLASS = "LayerInMap"
# every viewpoint.metaclass a specification can place an element of
PLACED_METACLASSES = (f"{DATA_VIEWPOINT}.{ENTITY_METACLASS}",
                      f"{VISUALIZATION_VIEWPOINT}.{LAYER_METACLASS}",
                      f"{VISUALIZATION_VIEWPOINT}.{MAP_METACLASS}",
                      f"{VISUALIZATION_VIEWPOINT}.{LAYER_IN_MAP_METACLASS}")

# explain's origin and detail for each closure rule; {} is the feature that pulled it in
_CLOSURE_ORIGINS = {
    "seed": ("local", None),
    "root": ("local", "bound local root"),
    "parent": ("closure(parent)", "parent of {}"),
    "mandatory": ("closure(mandatory)", "mandatory child of {}"),
    "requires": ("closure(requires)", "required by {}"),
}


_new = tuple.__new__  # builds a named tuple without a Python frame for its __new__


def _described(metaclass: str, name: str) -> str:
    """How a diagnostic names a placed element: "entity 'E'", "layer 'L'",
    "map 'M'" or, for a layer in a map, "layer 'L' in map 'M'"."""
    if metaclass == LAYER_IN_MAP_METACLASS:
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
    place = (element.partition(".")[0], mm.element(element).kind)
    covering = [d.local_model for d in mm.applied_to if (d.viewpoint, d.metaclass) == place]
    rows: dict[str, Provenance] = {}
    for local_model in covering:
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
        self.route: dict[str, str] = {}  # viewpoint.metaclass -> local model
        # (local model, clause names) -> seeds, for clauses whose every name
        # is a feature of that local model
        self.seeds: dict[tuple[str, tuple[str, ...]], Configuration] = {}
        for decl in definition.applied_to:
            self.route.setdefault(f"{decl.viewpoint}.{decl.metaclass}", decl.local_model)

    # -- diagnostics ----------------------------------------------------------

    def error(self, code: str, message: str, span: Span | None,
              source: str | None = None) -> None:
        self.diagnostics.append(Diagnostic(
            "error", code, message, span, source or self.spec.source_name))

    def warning(self, code: str, message: str, span: Span | None,
                source: str | None = None) -> None:
        self.diagnostics.append(Diagnostic(
            "warning", code, message, span, source or self.spec.source_name))

    # -- pipeline -------------------------------------------------------------

    def run(self) -> ResolvedProduct:
        self.check_local_lines()
        self.check_names()
        global_selection = self.global_selection()
        viewpoints = {name: ViewpointModel(name, frozenset(metaclasses))
                      for name, metaclasses in self.definition.viewpoints.items()}
        mm = Multimodel(self.definition.functional, viewpoints, global_selection,
                        validate=False)
        for decl in self.definition.applied_to:
            mm.declare_applied_to(decl.local_model, decl.viewpoint, decl.metaclass)
        self.place_all(mm)

        defaults = {name: mm.global_default(name) for name in self.definition.functional.locals}
        effective: dict[str, Configuration] = {}
        fallers: dict[str, list[str]] = {}
        for qname, local_model in mm.covered_elements():
            bound = mm.binding(qname, local_model)
            if bound is not None:
                config = bound.selection
            else:
                config = defaults[local_model]
                fallers.setdefault(local_model, []).append(qname)
            effective[qname] = effective[qname] | config if qname in effective else config
        self.check_defaults(defaults, fallers)

        self.diagnostics.sort(key=Diagnostic.sort_key)
        return ResolvedProduct(mm, effective,
                               tuple(sorted(global_selection.union(*effective.values()))),
                               tuple(self.diagnostics),
                               spec=self.spec, definition=self.definition,
                               clause_spans=self.clause_spans)

    # -- before the steps: LOCAL lines no element can use ---------------------

    def check_local_lines(self) -> None:
        for decl in self.definition.applied_to:
            place = f"{decl.viewpoint}.{decl.metaclass}"
            if place not in PLACED_METACLASSES:
                self.warning("inert-local",
                             f"LOCAL {decl.local_model} APPLIED TO {place} binds nothing: "
                             f"specification elements are only {', '.join(PLACED_METACLASSES)}",
                             decl.span, source=self.definition.source_name)

    # -- step 1: name resolution ----------------------------------------------

    def check_names(self) -> None:
        spec = self.spec
        entities: dict[str, EntityDecl] = {}
        for decl in spec.entities:
            if decl.name in entities:
                self.error("duplicate-name",
                           f"entity {decl.name!r} is declared twice", decl.span)
                continue
            entities[decl.name] = decl
        self.entities = entities

        for decl in spec.entities:
            seen_properties: set[str] = set()
            for prop in decl.properties:
                if prop.name in seen_properties:
                    self.error("duplicate-property",
                               f"entity {decl.name!r} declares property {prop.name!r} twice",
                               prop.span)
                seen_properties.add(prop.name)
                rel = prop.relationship
                if rel is None:
                    if prop.type_name not in BUILTIN_TYPES and prop.type_name not in entities:
                        self.error("unknown-type",
                                   f"property {prop.name!r} of entity {decl.name!r} has "
                                   f"unknown type {prop.type_name!r}", prop.span)
                    continue
                target = entities.get(prop.type_name)
                if target is None:
                    self.error("unknown-entity",
                               f"relationship {prop.name!r} of entity {decl.name!r} "
                               f"targets unknown entity {prop.type_name!r}", prop.span)
                    continue
                if rel.mapped_by is not None:
                    inverse = next((p for p in target.properties
                                    if p.name == rel.mapped_by), None)
                    if inverse is None:
                        self.error("invalid-mapped-by",
                                   f"MAPPED_BY {rel.mapped_by!r} names no property of "
                                   f"entity {prop.type_name!r}", prop.span)
                    elif (inverse.relationship is None
                          or not inverse.relationship.bidirectional):
                        self.error("invalid-mapped-by",
                                   f"MAPPED_BY target {prop.type_name}.{rel.mapped_by} is "
                                   "not a BIDIRECTIONAL relationship", prop.span)
                    elif inverse.type_name != decl.name:
                        self.error("invalid-mapped-by",
                                   f"MAPPED_BY target {prop.type_name}.{rel.mapped_by} "
                                   f"relates {inverse.type_name!r}, not {decl.name!r}",
                                   prop.span)

        layers: dict[str, object] = {}
        for layer in spec.layers:
            if layer.name in layers:
                self.error("duplicate-name",
                           f"layer {layer.name!r} is declared twice", layer.span)
                continue
            layers[layer.name] = layer
            if layer.entity not in entities:
                self.error("unknown-entity",
                           f"layer {layer.name!r} is FOR unknown entity {layer.entity!r}",
                           layer.span)
            seen_styles: set[str] = set()
            for style in layer.styles:
                if style.name in seen_styles:
                    self.error("duplicate-style",
                               f"layer {layer.name!r} declares style {style.name!r} twice",
                               layer.span)
                seen_styles.add(style.name)
        self.layers = layers

        maps: dict[str, MapDecl] = {}
        for map_decl in spec.maps:
            if map_decl.name in maps:
                self.error("duplicate-name",
                           f"map {map_decl.name!r} is declared twice", map_decl.span)
                continue
            maps[map_decl.name] = map_decl
        self.maps = maps

    # -- step 2: global selection ----------------------------------------------

    def global_selection(self) -> Configuration:
        global_model = self.definition.functional.global_model
        product = self.spec.product
        seeds = set(self.definition.defaults)
        if product.features is not None:
            span = product.features.span
            for name in product.features.names:
                if name not in global_model:
                    self.error("unknown-feature",
                               f"product selects {name!r}, which is not a feature of "
                               f"the global model {global_model.name!r}", span)
                else:
                    seeds.add(name)
        selection = close_selection(global_model, seeds)
        report = validate_configuration(global_model, selection)
        if not report.valid:
            for violation in report.violations:
                self.error("invalid-global-selection",
                           f"global selection is invalid: {violation.message}",
                           product.span)
        return selection

    # -- step 3: elements and their bindings ---------------------------------------

    def place_all(self, mm: Multimodel) -> None:
        """Place the first declaration of each name, and the first reference to
        each layer in a map, binding each element's clause as it is placed."""
        entity = self.slot(mm, DATA_VIEWPOINT, ENTITY_METACLASS)
        layer = self.slot(mm, VISUALIZATION_VIEWPOINT, LAYER_METACLASS)
        map_ = self.slot(mm, VISUALIZATION_VIEWPOINT, MAP_METACLASS)
        layer_in_map = self.slot(mm, VISUALIZATION_VIEWPOINT, LAYER_IN_MAP_METACLASS)
        for decl in self.entities.values():
            self.place(mm, entity, decl.name, decl.span, decl.features)
        for decl in self.layers.values():
            self.place(mm, layer, decl.name, decl.span, None)
        for map_decl in self.maps.values():
            self.place(mm, map_, map_decl.name, map_decl.span, map_decl.features)
            seen: set[str] = set()
            for ref in map_decl.layers:
                # base layers are built-in tile sources, not declared data layers
                if not ref.is_base_layer and ref.name not in self.layers:
                    self.error("unknown-layer",
                               f"map {map_decl.name!r} references undeclared layer "
                               f"{ref.name!r}", ref.span)
                if ref.name in seen:
                    self.error("duplicate-name",
                               f"map {map_decl.name!r} references layer {ref.name!r} twice",
                               ref.span)
                    continue
                seen.add(ref.name)
                self.place(mm, layer_in_map, f"{map_decl.name}.{ref.name}", ref.span,
                           ref.features)

    def slot(self, mm: Multimodel, viewpoint: str, metaclass: str) -> tuple:
        """What placing and binding an element of a metaclass needs, worked
        out once for all its elements: the viewpoint and metaclass, the
        viewpoint's elements (None if it has no such metaclass), and the
        local model its clauses bind through (None if none applies)."""
        vp = mm.viewpoints.get(viewpoint)
        entities = vp.entities if vp is not None and metaclass in vp.metaclasses else None
        return viewpoint, metaclass, entities, self.route.get(f"{viewpoint}.{metaclass}")

    def place(self, mm: Multimodel, slot: tuple, name: str, span: Span,
              clause: FeatureClause | None) -> None:
        viewpoint, metaclass, entities, _ = slot
        placed = False
        if entities is None:
            self.error("no-metaclass",
                       f"definition declares no {viewpoint}.{metaclass}; cannot "
                       f"place element {name!r}", span)
        elif name in entities:
            # layers and maps share the visualization viewpoint's namespace
            self.error("duplicate-name",
                       f"{_described(metaclass, name)} has the same name as "
                       f"{entities[name].kind.lower()} {name!r}", span)
        else:
            entities[name] = _new(ModelEntity, (name, metaclass))
            placed = True
        if clause is not None:
            self.bind(mm, slot, name, clause, placed)

    def bind(self, mm: Multimodel, slot: tuple, name: str, clause: FeatureClause,
             placed: bool) -> None:
        """Bind an element's clause through its slot's local model. The seeds
        of a fully known clause are worked out once per local model and list
        of names; a clause with an unknown feature is checked afresh for each
        element, so each gets its own diagnostics."""
        viewpoint, metaclass, _, local_name = slot
        if local_name is None:
            self.error("no-local-model",
                       f"{_described(metaclass, name)} has a feature clause, but no local "
                       f"model is applied to {viewpoint}.{metaclass}", clause.span)
            return
        key = (local_name, clause.names)
        seeds = self.seeds.get(key)
        if seeds is None:
            local = self.definition.functional.locals[local_name]
            unknown = [feature for feature in clause.names if feature not in local]
            for feature in unknown:
                owner = self.owning_model(feature)
                hint = f"; it belongs to {owner}" if owner else ""
                self.error("unknown-feature",
                           f"{_described(metaclass, name)} selects {feature!r}, which is not "
                           f"a feature of local model {local_name!r}{hint}", clause.span)
            if unknown:
                return
            seeds = self.seeds[key] = frozenset(clause.names)
        if not placed:  # an unplaced element's clause is checked, never bound
            return

        element = f"{viewpoint}.{name}"
        try:
            mm.bind_local(element, local_name, seeds)
        except InvalidSelection as exc:
            self.error("invalid-selection", str(exc), clause.span)
            return
        self.clause_spans[element] = clause.span

    def owning_model(self, feature: str) -> str | None:
        for name, local in self.definition.functional.locals.items():
            if feature in local:
                return f"local model {name!r}"
        if feature in self.definition.functional.global_model:
            return "the global model"
        return None

    # -- step 4: default sanity ---------------------------------------------------

    def check_defaults(self, defaults: dict[str, Configuration],
                       fallers: dict[str, list[str]]) -> None:
        for name, local in self.definition.functional.locals.items():
            report = validate_configuration(local, defaults[name])
            if report.valid:
                continue
            detail = "; ".join(v.message for v in report.violations)
            falling = fallers.get(name)
            span = self.definition.defaults_span
            if falling:
                shown = ", ".join(sorted(falling)[:3])
                more = "" if len(falling) <= 3 else f" (and {len(falling) - 3} more)"
                self.error("invalid-global-default",
                           f"global default for local model {name!r} is invalid "
                           f"({detail}) and {shown}{more} fall back to it",
                           span, source=self.definition.source_name)
            else:
                self.warning("invalid-global-default",
                             f"global default for local model {name!r} is invalid "
                             f"({detail}); no element falls back to it",
                             span, source=self.definition.source_name)
