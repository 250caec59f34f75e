"""Recursive-descent parser for product specifications.

parse() turns source text into a ProductSpec, raising ParseError (or a
subclass) with a 1-based line/column and the expected token kinds on the
first syntactic problem. Name resolution does not happen here: unknown
property types are parsed as relationship targets and judged by the resolver.

Grammar, one declaration per statement. ( x, ... ) is a non-empty comma
list (TokenStream.parenthesised), and names is a possibly empty list of
IDENTs in parentheses (TokenStream.names). Flags come in any order, each at
most once; a display name is one or more IDENT or NUMBER words; a bound is
a whole number, and a high bound may be *; x and y are finite numbers.

    CREATE ENTITY <name> ( <property>, ... ) [features] ;
    CREATE <source kind> LAYER <name> AS <display name> FOR <entity>
        WITH STYLES ( <style> [DEFAULT], ... ) ;
    CREATE MAP <name> AS <display name> WITH LAYERS ( <layer ref>, ... )
        {, WITH CENTER [ [<x>, <y>], [<x>, <y>] ] | features} ;
    CREATE GIS <name> [features] ;

    property:  <name> <type> [IDENTIFIER] [DISPLAY_STRING] [REQUIRED]
               [RELATIONSHIP ( <low>..<high>, <low>..<high> ) [BIDIRECTIONAL]
                | RELATIONSHIP MAPPED_BY <property>]
    layer ref: <layer> [IS_BASE_LAYER] [DEFAULT_BASE_LAYER] [features]
    features:  WITH FEATURES names

A specification has exactly one CREATE GIS, and a map at most one CENTER
and one WITH FEATURES. The parser also rejects two IDENTIFIER or two
DISPLAY_STRING properties in one entity, RELATIONSHIP on a built-in type,
two DEFAULT styles in one layer, and a map without exactly one
IS_BASE_LAYER reference or with a DEFAULT_BASE_LAYER one that is not
IS_BASE_LAYER.
"""

from __future__ import annotations

from math import isfinite

from .errors import DuplicateFlag, MissingProduct, MultipleProducts, ParseError
from .lexer import EOF, IDENT, NUMBER, SPEC_KEYWORDS, TokenStream
from .syntax import (
    BUILTIN_TYPES,
    BoundingBox,
    Cardinality,
    EntityDecl,
    FeatureClause,
    FLAG_DEFAULT_BASE_LAYER,
    FLAG_DISPLAY_STRING,
    FLAG_IDENTIFIER,
    FLAG_IS_BASE_LAYER,
    FLAG_REQUIRED,
    LayerDecl,
    LayerRef,
    MapDecl,
    ProductDecl,
    ProductSpec,
    PropertyDecl,
    RelationshipSpec,
    StyleRef,
)

_PROPERTY_FLAGS = (FLAG_IDENTIFIER, FLAG_DISPLAY_STRING, FLAG_REQUIRED)
_LAYER_REF_FLAGS = (FLAG_IS_BASE_LAYER, FLAG_DEFAULT_BASE_LAYER)
_WORDS = (IDENT, NUMBER)
# Nodes are built as tuple.__new__(Node, fields), which runs no Python frame;
# a named tuple's own __new__ is one more call per node.
_new = tuple.__new__


def parse(source: str, filename: str = "<spec>") -> ProductSpec:
    """Parse a complete product specification."""
    return _Parser(source).spec(filename)


def parse_statement(source: str):
    """Parse exactly one declaration; used to check statement spans re-parse."""
    return _Parser(source).lone_statement()


class _Parser:
    """Tokens are indices into the stream; self.texts[i] is token i's text."""

    def __init__(self, source: str):
        self.ts = TokenStream(source, SPEC_KEYWORDS)
        self.texts = self.ts.texts

    # -- statements ---------------------------------------------------------

    def spec(self, filename: str) -> ProductSpec:
        entities: list[EntityDecl] = []
        layers: list[LayerDecl] = []
        maps: list[MapDecl] = []
        kept = {EntityDecl: entities, LayerDecl: layers, MapDecl: maps}
        product: ProductDecl | None = None

        while self.ts.kind is not EOF:
            decl = self.statement()
            same_kind = kept.get(type(decl))
            if same_kind is not None:
                same_kind.append(decl)
            else:
                if product is not None:
                    raise MultipleProducts.at(
                        "specification declares more than one product", decl.span)
                product = decl

        if product is None:
            raise MissingProduct()
        return ProductSpec(tuple(entities), tuple(layers), tuple(maps), product,
                           source_name=filename)

    def lone_statement(self):
        decl = self.statement()
        self.ts.expect(EOF)
        return decl

    def statement(self):
        start = self.ts.expect("CREATE")
        kind = self.ts.kind
        if kind == "ENTITY":
            return self.entity_decl(start)
        if kind == "MAP":
            return self.map_decl(start)
        if kind == "GIS":
            return self.product_decl(start)
        if kind == IDENT:
            return self.layer_decl(start)
        self.ts.fail("ENTITY", "MAP", "GIS", "layer source kind")

    def entity_decl(self, start: int) -> EntityDecl:
        ts = self.ts
        name = self.texts[ts.expect_run("ENTITY", IDENT) + 1]
        properties = ts.parenthesised(self.property_decl)
        features = self.feature_clause()
        ts.expect(";")

        if len(properties) > 1:
            for flag in (FLAG_IDENTIFIER, FLAG_DISPLAY_STRING):
                carriers = [p for p in properties if flag in p.flags]
                if len(carriers) > 1:
                    raise DuplicateFlag.at(
                        f"entity {name!r} flags more than one property {flag}",
                        carriers[1].span)
        return _new(EntityDecl, (name, properties, features, ts.span_from(start)))

    def property_decl(self) -> PropertyDecl:
        ts = self.ts
        start = ts.expect_run(IDENT, IDENT)
        type_name = self.texts[start + 1]
        flags = self.flags(_PROPERTY_FLAGS)
        relationship = None
        if ts.kind == "RELATIONSHIP":
            rel_tok = ts.advance()
            if type_name in BUILTIN_TYPES:
                raise ParseError.at(
                    f"RELATIONSHIP is not allowed on built-in type {type_name!r}",
                    ts.span(rel_tok))
            relationship = self.relationship_spec()
        return _new(PropertyDecl, (self.texts[start], type_name, flags, relationship,
                                   ts.span_from(start)))

    def relationship_spec(self) -> RelationshipSpec:
        if self.ts.match("("):
            first = self.cardinality()
            self.ts.expect(",")
            second = self.cardinality()
            self.ts.expect(")")
            bidirectional = self.ts.match("BIDIRECTIONAL")
            return RelationshipSpec((first, second), bidirectional, None)
        if self.ts.match("MAPPED_BY"):
            return RelationshipSpec(None, False, self.texts[self.ts.expect(IDENT)])
        self.ts.fail("(", "MAPPED_BY")

    def cardinality(self) -> Cardinality:
        start = self.ts.pos
        low = self.cardinality_bound("cardinality bound")
        self.ts.expect("..")
        if self.ts.match("*"):
            return Cardinality(low, None)
        high = self.cardinality_bound("cardinality bound", "*")
        if low > high:
            raise ParseError.at(
                f"cardinality {low}..{high} has its lower bound above its upper bound",
                self.ts.span(start))
        return Cardinality(low, high)

    def cardinality_bound(self, *expected: str) -> int:
        text = self.texts[self.ts.pos]
        if self.ts.kind != NUMBER or not text.isdigit():
            self.ts.fail(*expected)
        tok = self.ts.advance()
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            raise ParseError.at("cardinality bound out of range", self.ts.span(tok)) from None

    def layer_decl(self, start: int) -> LayerDecl:
        ts, texts = self.ts, self.texts
        first = ts.expect_run(IDENT, "LAYER", IDENT, "AS")
        name = texts[first + 2]
        display = self.display_name()
        entity = texts[ts.expect_run("FOR", IDENT, "WITH", "STYLES") + 1]
        styles = ts.parenthesised(self.style_ref)
        if len(styles) > 1 and sum(s.is_default for s in styles) > 1:
            raise DuplicateFlag.at(f"layer {name!r} marks more than one style DEFAULT",
                                   ts.span(ts.pos - 1))
        ts.expect(";")
        return _new(LayerDecl, (name, display, entity, texts[first], styles,
                                ts.span_from(start)))

    def style_ref(self) -> StyleRef:
        return _new(StyleRef, (self.texts[self.ts.expect(IDENT)], self.ts.match("DEFAULT")))

    def map_decl(self, start: int) -> MapDecl:
        ts = self.ts
        name = self.texts[ts.expect_run("MAP", IDENT, "AS") + 1]
        display = self.display_name()
        ts.expect_run("WITH", "LAYERS")
        refs = ts.parenthesised(self.layer_ref)
        close = ts.pos - 1

        center: BoundingBox | None = None
        features: FeatureClause | None = None
        while True:
            if ts.kind == ",":
                ts.expect_run(",", "WITH", "CENTER")
                if center is not None:
                    raise ParseError.at("map declares CENTER twice", ts.span(ts.pos - 1))
                center = BoundingBox(self.pair(lambda: self.pair(self.coordinate)))
            elif ts.kind == "WITH":
                if features is not None:
                    raise DuplicateFlag.at("map declares WITH FEATURES twice",
                                          ts.span(ts.pos))
                features = self.feature_clause()
            else:
                break
        ts.expect(";")

        base = [r for r in refs if FLAG_IS_BASE_LAYER in r.flags]
        if not base:
            raise ParseError.at(f"map {name!r} flags no layer IS_BASE_LAYER", ts.span(close))
        if len(base) > 1:
            raise ParseError.at(
                f"map {name!r} flags more than one layer IS_BASE_LAYER", base[1].span)
        return _new(MapDecl, (name, display, refs, center, features, ts.span_from(start)))

    def layer_ref(self) -> LayerRef:
        ts = self.ts
        start = ts.expect(IDENT)
        name = self.texts[start]
        flags = self.flags(_LAYER_REF_FLAGS)
        if FLAG_DEFAULT_BASE_LAYER in flags and FLAG_IS_BASE_LAYER not in flags:
            raise ParseError.at(
                f"layer reference {name!r} is DEFAULT_BASE_LAYER but not IS_BASE_LAYER",
                ts.span(start))
        features = self.feature_clause()
        return _new(LayerRef, (name, flags, features, ts.span_from(start)))

    def product_decl(self, start: int) -> ProductDecl:
        ts = self.ts
        name = self.texts[ts.expect_run("GIS", IDENT) + 1]
        features = self.feature_clause()
        ts.expect(";")
        return _new(ProductDecl, (name, features, ts.span_from(start)))

    # -- shared pieces ------------------------------------------------------

    def flags(self, allowed: tuple[str, ...]) -> tuple[str, ...]:
        """The flags among allowed that come next, each at most once."""
        ts = self.ts
        flags: list[str] = []
        while ts.kind in allowed:
            flag = ts.kind
            if flag in flags:
                raise DuplicateFlag.at(f"duplicate flag {flag}", ts.span(ts.pos))
            flags.append(flag)
            ts.advance()
        return tuple(flags)

    def feature_clause(self) -> FeatureClause | None:
        ts = self.ts
        if ts.kind != "WITH":
            return None
        start = ts.expect_run("WITH", "FEATURES")
        return _new(FeatureClause, (ts.names(), ts.span_from(start)))

    def display_name(self) -> str:
        ts = self.ts
        words: list[str] = []
        while ts.kind in _WORDS:
            words.append(self.texts[ts.advance()])
        if not words:
            ts.fail("display name")
        return " ".join(words)

    def pair(self, item) -> tuple:
        """[ item, item ]"""
        self.ts.expect("[")
        first = item()
        self.ts.expect(",")
        second = item()
        self.ts.expect("]")
        return (first, second)

    def coordinate(self) -> float:
        tok = self.ts.expect(NUMBER)
        value = float(self.texts[tok])
        if not isfinite(value):  # JSON has no Infinity to emit it as
            raise ParseError.at("coordinate out of range", self.ts.span(tok))
        return value
