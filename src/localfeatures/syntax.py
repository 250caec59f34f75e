"""Abstract syntax for product specifications.

Every node carries a source span; spans never take part in equality, so a
parse / print / parse round trip compares equal structurally. A statement
node's span slices exactly the statement text out of the source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


@dataclass(frozen=True)
class FeatureClause:
    """A WITH FEATURES (...) clause. Absence is represented by None on the
    owner, not by an empty clause: an empty clause is an explicit opt-out."""

    names: tuple[str, ...]
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class Cardinality:
    lower: int
    upper: int | None  # None is the unbounded '*'

    def __str__(self) -> str:
        return f"{self.lower}..{'*' if self.upper is None else self.upper}"


@dataclass(frozen=True)
class RelationshipSpec:
    """Either explicit cardinalities (optionally BIDIRECTIONAL) or the inverse
    end of a bidirectional relationship via MAPPED_BY."""

    cardinalities: tuple[Cardinality, Cardinality] | None = None
    bidirectional: bool = False
    mapped_by: str | None = None


@dataclass(frozen=True)
class PropertyDecl:
    name: str
    type_name: str
    flags: tuple[str, ...] = ()
    relationship: RelationshipSpec | None = None
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class EntityDecl:
    name: str
    properties: tuple[PropertyDecl, ...]
    features: FeatureClause | None = None
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class StyleRef:
    name: str
    is_default: bool = False


@dataclass(frozen=True)
class LayerDecl:
    name: str
    display_name: str
    entity: str
    source_kind: str
    styles: tuple[StyleRef, ...]
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class LayerRef:
    name: str
    flags: tuple[str, ...] = ()
    features: FeatureClause | None = None
    span: Span = field(default=_NO_SPAN, compare=False)

    @property
    def is_base_layer(self) -> bool:
        return FLAG_IS_BASE_LAYER in self.flags


@dataclass(frozen=True)
class BoundingBox:
    """Two corner coordinate pairs, passed through uninterpreted."""

    corners: tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class MapDecl:
    name: str
    display_name: str
    layers: tuple[LayerRef, ...]
    center: BoundingBox | None = None
    features: FeatureClause | None = None
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class ProductDecl:
    name: str
    features: FeatureClause | None = None
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class ProductSpec:
    """A parsed specification: declarations in source order per kind, and
    exactly one product declaration."""

    entities: tuple[EntityDecl, ...]
    layers: tuple[LayerDecl, ...]
    maps: tuple[MapDecl, ...]
    product: ProductDecl
    source_name: str = field(default="<spec>", compare=False)

    def declarations(self):
        return (*self.entities, *self.layers, *self.maps, self.product)
