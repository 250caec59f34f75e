"""A JSON Schema checker for the Draft-07 subset the derivation schema uses.

compile_schema() turns a schema into nested predicates that agree with
Draft-07 validation on every document json.loads can return. Only the
keywords the schema uses are supported; any other keyword, type or $ref form
raises UnsupportedSchema, so an edit to the schema can never be silently left
unchecked. A compiled check returns a bool and stops at the first failure.
Checks recurse only where the schema nests, and a recursive $ref is refused,
so a check's depth is the schema's, however deep the document.
"""

from __future__ import annotations

import re
from typing import Callable

from .errors import UnsupportedSchema

Check = Callable[[object], bool]

_ANNOTATIONS = frozenset({"$schema", "title", "description", "definitions"})
_OBJECT_KEYWORDS = frozenset({
    "properties", "required", "additionalProperties", "propertyNames"})
_ARRAY_KEYWORDS = frozenset({"items", "minItems", "maxItems"})
_KEYWORDS = (_ANNOTATIONS | _OBJECT_KEYWORDS | _ARRAY_KEYWORDS
             | {"$ref", "type", "const", "enum", "pattern", "oneOf"})
_REF = re.compile(r"#/definitions/([A-Za-z0-9_]+)")
_TYPES: dict[str, Check] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _always(value: object) -> bool:
    return True


def _never(value: object) -> bool:
    return False


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UnsupportedSchema(message)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _equal(a: object, b: object) -> bool:
    """JSON equality as Draft-07 defines it: 1 == 1.0, but true != 1."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def compile_schema(schema: dict | bool) -> Check:
    """A predicate true exactly for the documents that validate against the
    Draft-07 schema; raises UnsupportedSchema for a schema outside the
    supported subset."""
    definitions = schema.get("definitions", {}) if isinstance(schema, dict) else {}
    _require(isinstance(definitions, dict), "definitions must be an object")
    compiled: dict[str, Check] = {}
    pending: set[str] = set()

    def ref(pointer: object) -> Check:
        match = _REF.fullmatch(pointer) if isinstance(pointer, str) else None
        _require(match is not None and match[1] in definitions,
                 f"$ref {pointer!r} is not #/definitions/<name> of a definition")
        name = match[1]
        if name not in compiled:
            _require(name not in pending, f"$ref {pointer!r} is recursive")
            pending.add(name)
            compiled[name] = node(definitions[name])
            pending.discard(name)
        return compiled[name]

    def node(sub: object) -> Check:
        if isinstance(sub, bool):
            return _always if sub else _never
        _require(isinstance(sub, dict), f"not a schema: {sub!r}")
        unknown = sub.keys() - _KEYWORDS
        _require(not unknown, f"unsupported keywords: {', '.join(sorted(unknown))}")
        if "$ref" in sub:
            # Draft-07 ignores a $ref's siblings; refuse them instead.
            _require(sub.keys() <= _ANNOTATIONS | {"$ref"},
                     "keywords next to $ref would be ignored")
            return ref(sub["$ref"])
        kind = sub.get("type")
        _require(kind is None or (isinstance(kind, str) and kind in _TYPES),
                 f"unsupported type {kind!r}")
        checks = []
        for group, group_type, build in ((_OBJECT_KEYWORDS, "object", _object_check),
                                         (_ARRAY_KEYWORDS, "array", _array_check),
                                         ({"pattern"}, "string", _string_check)):
            if not group.isdisjoint(sub):
                checks.append(build(sub, node, kind == group_type))
                if kind == group_type:
                    kind = None
        if kind is not None:
            checks.append(_TYPES[kind])
        if "const" in sub:
            constant = sub["const"]
            checks.append(lambda v: _equal(v, constant))
        if "enum" in sub:
            checks.append(_enum_check(sub["enum"]))
        if "oneOf" in sub:
            branches = sub["oneOf"]
            _require(isinstance(branches, list) and branches,
                     "oneOf must be a non-empty array")
            branch_checks = [node(b) for b in branches]
            checks.append(lambda v: sum(b(v) for b in branch_checks) == 1)
        if not checks:
            return _always
        if len(checks) == 1:
            return checks[0]
        return lambda v: all(c(v) for c in checks)

    for name in definitions:
        ref(f"#/definitions/{name}")
    return node(schema)


# Each function below returns the check of one keyword group. A strict check
# also enforces the group's type; otherwise a value of another type passes,
# as Draft-07 applies these keywords to values of their type only.

def _object_check(sub: dict, node: Callable[[object], Check], strict: bool) -> Check:
    properties = sub.get("properties", {})
    required = sub.get("required", [])
    _require(isinstance(properties, dict), "properties must be an object")
    _require(isinstance(required, list)
             and all(isinstance(name, str) for name in required),
             "required must be an array of strings")
    get = {name: node(s) for name, s in properties.items()}.get
    extra = node(sub.get("additionalProperties", True))
    names = node(sub["propertyNames"]) if "propertyNames" in sub else None

    def check(v: object) -> bool:
        if not isinstance(v, dict):
            return not strict
        for name in required:
            if name not in v:
                return False
        for name, value in v.items():
            if not get(name, extra)(value):
                return False
        return names is None or all(map(names, v))
    return check


def _array_check(sub: dict, node: Callable[[object], Check], strict: bool) -> Check:
    low, high = sub.get("minItems", 0), sub.get("maxItems")
    _require(_is_count(low) and (high is None or _is_count(high)),
             "minItems and maxItems must be non-negative integers")
    items = node(sub.get("items", True))

    def check(v: object) -> bool:
        if not isinstance(v, list):
            return not strict
        if len(v) < low or (high is not None and len(v) > high):
            return False
        return all(map(items, v))
    return check


def _string_check(sub: dict, node: Callable[[object], Check], strict: bool) -> Check:
    _require(isinstance(sub["pattern"], str), "pattern must be a string")
    # search, not match or fullmatch, as Draft-07 patterns are unanchored;
    # so "$" also matches before a trailing newline, as in jsonschema.
    search = re.compile(sub["pattern"]).search

    def check(v: object) -> bool:
        if not isinstance(v, str):
            return not strict
        return search(v) is not None
    return check


def _enum_check(values: object) -> Check:
    _require(isinstance(values, list), "enum must be an array")
    if all(isinstance(value, str) for value in values):
        members = frozenset(values)
        return lambda v: isinstance(v, str) and v in members
    return lambda v: any(_equal(v, value) for value in values)
