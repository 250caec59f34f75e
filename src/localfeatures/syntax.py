"""Abstract syntax for product specifications.

Nodes are immutable named tuples. Every declaration and clause carries a
source span as its last field; spans, and a spec's source name, never take
part in equality or hashing, so a parse / print / parse round trip compares
equal structurally. A statement node's span slices exactly the statement
text out of the source.
"""

from __future__ import annotations

from typing import NamedTuple

from .records import LEADING_FIELDS

BUILTIN_TYPES = frozenset({
    "Long", "Integer", "Double", "String", "Boolean", "Date",
    "Point", "LineString", "Polygon",
})

FLAG_IDENTIFIER = "IDENTIFIER"
FLAG_DISPLAY_STRING = "DISPLAY_STRING"
FLAG_REQUIRED = "REQUIRED"
FLAG_IS_BASE_LAYER = "IS_BASE_LAYER"
FLAG_DEFAULT_BASE_LAYER = "DEFAULT_BASE_LAYER"


class Span(NamedTuple):
    """Half-open character range plus the 1-based position of its start. A
    tuple, so it is immutable and hashable, and cheap to build: a parse
    makes one per declaration, clause and definition line."""

    start: int
    end: int
    line: int
    column: int

    def slice(self, source: str) -> str:
        return source[self.start:self.end]


_NO_SPAN = Span(0, 0, 1, 1)


class FeatureClause(NamedTuple):
    """A WITH FEATURES (...) clause. Absence is represented by None on the
    owner, not by an empty clause: an empty clause is an explicit opt-out."""

    names: tuple[str, ...]
    span: Span = _NO_SPAN

    _compared = 1
    __eq__, __ne__, __hash__ = LEADING_FIELDS


class Cardinality(NamedTuple):
    lower: int
    upper: int | None  # None is the unbounded '*'

    def __str__(self) -> str:
        return f"{self.lower}..{'*' if self.upper is None else self.upper}"


class RelationshipSpec(NamedTuple):
    """Either explicit cardinalities (optionally BIDIRECTIONAL) or the inverse
    end of a bidirectional relationship via MAPPED_BY."""

    cardinalities: tuple[Cardinality, Cardinality] | None = None
    bidirectional: bool = False
    mapped_by: str | None = None


class PropertyDecl(NamedTuple):
    name: str
    type_name: str
    flags: tuple[str, ...] = ()
    relationship: RelationshipSpec | None = None
    span: Span = _NO_SPAN

    _compared = 4
    __eq__, __ne__, __hash__ = LEADING_FIELDS


class EntityDecl(NamedTuple):
    name: str
    properties: tuple[PropertyDecl, ...]
    features: FeatureClause | None = None
    span: Span = _NO_SPAN

    _compared = 3
    __eq__, __ne__, __hash__ = LEADING_FIELDS


class StyleRef(NamedTuple):
    name: str
    is_default: bool = False


class LayerDecl(NamedTuple):
    name: str
    display_name: str
    entity: str
    source_kind: str
    styles: tuple[StyleRef, ...]
    span: Span = _NO_SPAN

    _compared = 5
    __eq__, __ne__, __hash__ = LEADING_FIELDS


class LayerRef(NamedTuple):
    name: str
    flags: tuple[str, ...] = ()
    features: FeatureClause | None = None
    span: Span = _NO_SPAN

    _compared = 3
    __eq__, __ne__, __hash__ = LEADING_FIELDS

    @property
    def is_base_layer(self) -> bool:
        return FLAG_IS_BASE_LAYER in self.flags


class BoundingBox(NamedTuple):
    """Two corner coordinate pairs, passed through uninterpreted."""

    corners: tuple[tuple[float, float], tuple[float, float]]


class MapDecl(NamedTuple):
    name: str
    display_name: str
    layers: tuple[LayerRef, ...]
    center: BoundingBox | None = None
    features: FeatureClause | None = None
    span: Span = _NO_SPAN

    _compared = 5
    __eq__, __ne__, __hash__ = LEADING_FIELDS


class ProductDecl(NamedTuple):
    name: str
    features: FeatureClause | None = None
    span: Span = _NO_SPAN

    _compared = 2
    __eq__, __ne__, __hash__ = LEADING_FIELDS


class ProductSpec(NamedTuple):
    """A parsed specification: declarations in source order per kind, and
    exactly one product declaration."""

    entities: tuple[EntityDecl, ...]
    layers: tuple[LayerDecl, ...]
    maps: tuple[MapDecl, ...]
    product: ProductDecl
    source_name: str = "<spec>"

    _compared = 4
    __eq__, __ne__, __hash__ = LEADING_FIELDS

    def declarations(self):
        return (*self.entities, *self.layers, *self.maps, self.product)
