"""Emission of the derivation configuration.

emit() serializes a resolved product to JSON deterministically: object keys
sorted at every level, arrays in declaration order except feature lists
(sorted), 2-space indent, LF newlines, UTF-8-safe text. Two emissions of the
same resolved product are byte-identical. Emission refuses while any
error-severity diagnostic is present.

The text is exactly what json.dumps(document, ensure_ascii=False, indent=2,
sort_keys=True) writes for the document laid out as nested dicts and lists,
plus a final newline; the tests keep that dict builder and call as the
oracle. emit() builds no such tree. Straight from the spec and the resolved
product, it fills one %s template per object shape of the document, and
quotes strings with the C json.encoder.encode_basestring. One helper,
_object(), builds every template at import from the object's indent and
its keys in sorted order, laying fields out as _block() lays out an array.
Elements share a handful of effective configurations: each distinct
configuration is sorted and written once, and every element then costs one
line.

verify_schema() checks a JSON text against the closed derivation-config
schema shipped with the package. It needs no third-party validator: on
first use, schemacheck.compile_schema() turns the schema into nested
predicates that accept exactly what JSON Schema Draft-07 validation accepts.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring as _quote
from math import isfinite
from typing import Callable, Iterable

from .errors import UnresolvedErrors
from .resolver import ResolvedProduct
from .syntax import EntityDecl, LayerDecl, MapDecl, PropertyDecl

SCHEMA_VERSION = 1


def emit(resolved: ResolvedProduct) -> str:
    """The derivation configuration of a cleanly resolved product, as JSON."""
    errors = resolved.errors
    if errors:
        raise UnresolvedErrors(
            f"cannot emit: {len(errors)} error diagnostics pending, first: "
            f"{errors[0].message}")
    return _write(resolved)


def _write(resolved: ResolvedProduct) -> str:
    """emit() without the error check. Raises ValueError for a coordinate
    that is not finite and TypeError for a name that is not a str."""
    spec = resolved.spec
    written: dict[frozenset[str], str] = {}  # each distinct configuration -> its JSON
    bindings = []
    effective = resolved.effective
    for element in sorted(effective):
        config = effective[element]
        text = written.get(config)
        if text is None:
            text = written[config] = _strings(sorted(config), 4)
        bindings.append(f"{_quote(element)}: {text}")
    return _DOCUMENT % (
        _block("{}", bindings, 2),
        _DATA % _block("[]", [_write_entity(e) for e in spec.entities], 4),
        _strings(resolved.included, 2),
        _quote(spec.product.name),
        SCHEMA_VERSION,
        _VISUALIZATION % (_block("[]", [_write_layer(l) for l in spec.layers], 4),
                          _block("[]", [_write_map(m) for m in spec.maps], 4)))


def _block(brackets: str, items: list[str], indent: int) -> str:
    """A JSON array or object of written items."""
    if not items:
        return brackets
    newline = "\n" + " " * indent
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _strings(values: Iterable[str], indent: int) -> str:
    return _block("[]", [_quote(v) for v in values], indent)


def _boolean(value: bool) -> str:
    return "true" if value else "false"


def _number(value: float) -> str:
    if not isfinite(value):
        raise ValueError(f"{value!r} is not JSON")
    return float.__repr__(value)


def _object(indent: int, *keys: str) -> str:
    """The %s template of a JSON object with these keys, given in sorted
    order, whose first line is indented by indent."""
    return _block("{}", [f"{_quote(key)}: %s" for key in keys], indent)


# One template per object shape, keys in the order json.dumps(sort_keys=True)
# writes them; an object with an optional field has a second template that
# carries it.
_DOCUMENT = _object(0, "bindings", "data", "features", "product", "schemaVersion",
                    "visualization") + "\n"
_DATA = _object(2, "entities")
_VISUALIZATION = _object(2, "layers", "maps")
_ENTITY = _object(6, "name", "properties")
_PROPERTY = _object(10, "flags", "name", "type")
_RELATED_PROPERTY = _object(10, "flags", "name", "relationship", "type")
_MAPPED_BY = _object(12, "mappedBy")
_CARDINALITIES = _object(12, "bidirectional", "cardinalities")
_LAYER = _object(6, "displayName", "entity", "name", "source", "styles")
_STYLE = _object(10, "default", "name")
_MAP = _object(6, "displayName", "layers", "name")
_CENTERED_MAP = _object(6, "center", "displayName", "layers", "name")
_LAYER_REF = _object(10, "flags", "layer")


def _write_entity(decl: EntityDecl) -> str:
    properties = [_write_property(p) for p in decl.properties]
    return _ENTITY % (_quote(decl.name), _block("[]", properties, 8))


def _write_property(prop: PropertyDecl) -> str:
    flags, name, type_name = _strings(prop.flags, 12), _quote(prop.name), _quote(prop.type_name)
    rel = prop.relationship
    if rel is None:
        return _PROPERTY % (flags, name, type_name)
    if rel.mapped_by is not None:
        relationship = _MAPPED_BY % _quote(rel.mapped_by)
    else:
        relationship = _CARDINALITIES % (
            _boolean(rel.bidirectional), _strings([str(c) for c in rel.cardinalities], 14))
    return _RELATED_PROPERTY % (flags, name, relationship, type_name)


def _write_layer(decl: LayerDecl) -> str:
    styles = [_STYLE % (_boolean(s.is_default), _quote(s.name)) for s in decl.styles]
    return _LAYER % (_quote(decl.display_name), _quote(decl.entity), _quote(decl.name),
                     _quote(decl.source_kind), _block("[]", styles, 8))


def _write_map(decl: MapDecl) -> str:
    refs = [_LAYER_REF % (_strings(r.flags, 12), _quote(r.name)) for r in decl.layers]
    fields = (_quote(decl.display_name), _block("[]", refs, 8), _quote(decl.name))
    if decl.center is None:
        return _MAP % fields
    pairs = [_block("[]", [_number(x) for x in pair], 10) for pair in decl.center.corners]
    return _CENTERED_MAP % (_block("[]", pairs, 8), *fields)


@lru_cache(maxsize=1)
def _schema_check() -> Callable[[object], bool]:
    # imported here, not at the top: lfc never verifies, and without cached
    # bytecode compiling the module would cost every import of the package
    from .schemacheck import compile_schema

    text = (resources.files("localfeatures") / "schema"
            / "derivation-config.schema.json").read_text(encoding="utf-8")
    return compile_schema(json.loads(text))


def _reject_constant(name: str) -> object:
    raise ValueError(f"{name} is not JSON")


def verify_schema(text: str) -> bool:
    """True iff the text is JSON conforming to the derivation-config schema.
    NaN, Infinity and -Infinity are not JSON. Never raises for a str."""
    try:
        document = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError):
        return False
    return _schema_check()(document)
