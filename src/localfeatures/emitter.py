"""Emission of the derivation configuration.

emit() serializes a resolved product to JSON deterministically: object keys
sorted at every level, arrays in declaration order except feature lists
(sorted), 2-space indent, LF newlines, UTF-8-safe text. Two emissions of the
same resolved product are byte-identical. Emission refuses while any
error-severity diagnostic is present.

The text is exactly what json.dumps(config, ensure_ascii=False, indent=2,
sort_keys=True) writes, plus a final newline. json.dumps takes its pure-Python
encoder whenever it indents, so emit() writes the document itself: a
recursive writer that quotes strings with the C json.encoder.encode_basestring
and joins each container once.

verify_schema() checks a JSON text against the closed derivation-config
schema shipped with the package. It needs no third-party validator: on
first use, schemacheck.compile_schema() turns the schema into nested
predicates that accept exactly what JSON Schema Draft-07 validation accepts.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring
from math import isfinite
from typing import Callable

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
    return _json(derivation_config(resolved), "\n") + "\n"


def _json(value, newline: str) -> str:
    """value as JSON, laid out as json.dumps(value, ensure_ascii=False,
    indent=2, sort_keys=True) lays it out; newline is a line break plus the
    indent of the line value starts on. Objects need str keys. Raises
    TypeError for a value json.dumps cannot serialize and ValueError for a
    float that is not finite."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring(key)}: {_json(item, inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join([_json(item, inner) for item in value])
                + newline + "]")
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"{value!r} is not JSON")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def derivation_config(resolved: ResolvedProduct) -> dict:
    """The emitted structure, before serialization."""
    spec = resolved.spec
    return {
        "schemaVersion": SCHEMA_VERSION,
        "product": spec.product.name,
        "features": list(resolved.included),
        "data": {
            "entities": [_entity(e) for e in spec.entities],
        },
        "visualization": {
            "layers": [_layer(l) for l in spec.layers],
            "maps": [_map(m) for m in spec.maps],
        },
        "bindings": {
            element: sorted(config)
            for element, config in resolved.effective.items()
        },
    }


def _entity(decl: EntityDecl) -> dict:
    return {
        "name": decl.name,
        "properties": [_property(p) for p in decl.properties],
    }


def _property(prop: PropertyDecl) -> dict:
    out: dict = {
        "name": prop.name,
        "type": prop.type_name,
        "flags": list(prop.flags),
    }
    rel = prop.relationship
    if rel is not None:
        if rel.mapped_by is not None:
            out["relationship"] = {"mappedBy": rel.mapped_by}
        else:
            out["relationship"] = {
                "cardinalities": [str(c) for c in rel.cardinalities],
                "bidirectional": rel.bidirectional,
            }
    return out


def _layer(decl: LayerDecl) -> dict:
    return {
        "name": decl.name,
        "displayName": decl.display_name,
        "entity": decl.entity,
        "source": decl.source_kind,
        "styles": [{"name": s.name, "default": s.is_default} for s in decl.styles],
    }


def _map(decl: MapDecl) -> dict:
    out: dict = {
        "name": decl.name,
        "displayName": decl.display_name,
        "layers": [{"layer": r.name, "flags": list(r.flags)} for r in decl.layers],
    }
    if decl.center is not None:
        out["center"] = [list(pair) for pair in decl.center.corners]
    return out


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
