"""Canonical pretty-printing of product specifications.

format_spec is the inverse of parse up to formatting: parsing its output
yields a structurally equal ProductSpec, and printing that parse reproduces
the text byte for byte. Declarations print one statement each, with 4-space
indents inside parenthesized declaration lists; an absent feature clause
prints as nothing, while an explicitly empty clause prints as
"WITH FEATURES ()".
"""

from __future__ import annotations

from decimal import Decimal

from .syntax import (
    BoundingBox,
    EntityDecl,
    FeatureClause,
    LayerDecl,
    LayerRef,
    MapDecl,
    ProductDecl,
    ProductSpec,
    PropertyDecl,
)

_INDENT = "    "


def format_spec(spec: ProductSpec) -> str:
    parts = [*map(_entity, spec.entities), *map(_layer, spec.layers),
             *map(_map, spec.maps), _product(spec.product)]
    return "\n\n".join(parts) + "\n"


def _entity(decl: EntityDecl) -> str:
    body = ",\n".join(_INDENT + _property(p) for p in decl.properties)
    return f"CREATE ENTITY {decl.name} (\n{body}\n){_features(decl.features)};"


def _property(prop: PropertyDecl) -> str:
    parts = [prop.name, prop.type_name, *prop.flags]
    rel = prop.relationship
    if rel is not None:
        if rel.mapped_by is not None:
            parts.append(f"RELATIONSHIP MAPPED_BY {rel.mapped_by}")
        else:
            first, second = rel.cardinalities
            text = f"RELATIONSHIP({first}, {second})"
            if rel.bidirectional:
                text += " BIDIRECTIONAL"
            parts.append(text)
    return " ".join(parts)


def _layer(decl: LayerDecl) -> str:
    styles = ",\n".join(
        _INDENT + s.name + (" DEFAULT" if s.is_default else "")
        for s in decl.styles)
    return (f"CREATE {decl.source_kind} LAYER {decl.name} AS {decl.display_name} "
            f"FOR {decl.entity}\nWITH STYLES (\n{styles}\n);")


def _map(decl: MapDecl) -> str:
    refs = ",\n".join(_INDENT + _layer_ref(r) for r in decl.layers)
    tail = ""
    if decl.center is not None:
        tail += f", WITH CENTER {_bbox(decl.center)}"
    tail += _features(decl.features)
    return (f"CREATE MAP {decl.name} AS {decl.display_name} WITH LAYERS (\n"
            f"{refs}\n){tail};")


def _layer_ref(ref: LayerRef) -> str:
    return " ".join([ref.name, *ref.flags]) + _features(ref.features)


def _bbox(box: BoundingBox) -> str:
    (a, b), (c, d) = box.corners
    return f"[[{_number(a)}, {_number(b)}], [{_number(c)}, {_number(d)}]]"


def _number(value: float) -> str:
    # repr's shortest digits, but never in exponent form, which the lexer
    # has no token for; an integer value keeps its ".0"
    text = format(Decimal(repr(value)), "f")
    return text if "." in text else text + ".0"


def _product(decl: ProductDecl) -> str:
    return f"CREATE GIS {decl.name}{_features(decl.features)};"


def _features(clause: FeatureClause | None) -> str:
    if clause is None:
        return ""
    return f" WITH FEATURES ({', '.join(clause.names)})"
