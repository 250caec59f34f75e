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
        product: ProductDecl | None = None

        while not self.ts.at(EOF):
            decl = self.statement()
            if isinstance(decl, EntityDecl):
                entities.append(decl)
            elif isinstance(decl, LayerDecl):
                layers.append(decl)
            elif isinstance(decl, MapDecl):
                maps.append(decl)
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
        if self.ts.at("ENTITY"):
            return self.entity_decl(start)
        if self.ts.at("MAP"):
            return self.map_decl(start)
        if self.ts.at("GIS"):
            return self.product_decl(start)
        if self.ts.at(IDENT):
            return self.layer_decl(start)
        self.ts.fail("ENTITY", "MAP", "GIS", "layer source kind")

    def entity_decl(self, start: int) -> EntityDecl:
        self.ts.expect("ENTITY")
        name = self.texts[self.ts.expect(IDENT)]
        properties = [self.property_decl() for _ in self.ts.parenthesised()]
        features = self.feature_clause()
        self.ts.expect(";")

        for flag in (FLAG_IDENTIFIER, FLAG_DISPLAY_STRING):
            carriers = [p for p in properties if flag in p.flags]
            if len(carriers) > 1:
                raise DuplicateFlag.at(
                    f"entity {name!r} flags more than one property {flag}",
                    carriers[1].span)
        return EntityDecl(name, tuple(properties), features, self.ts.span_from(start))

    def property_decl(self) -> PropertyDecl:
        start = self.ts.expect(IDENT)
        type_name = self.texts[self.ts.expect(IDENT)]
        flags = self.flags(_PROPERTY_FLAGS)
        relationship = None
        if self.ts.at("RELATIONSHIP"):
            rel_tok = self.ts.advance()
            if type_name in BUILTIN_TYPES:
                raise ParseError.at(
                    f"RELATIONSHIP is not allowed on built-in type {type_name!r}",
                    self.ts.span(rel_tok))
            relationship = self.relationship_spec()
        return PropertyDecl(self.texts[start], type_name, flags, relationship,
                            self.ts.span_from(start))

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
        source_kind = self.texts[self.ts.expect(IDENT)]
        self.ts.expect("LAYER")
        name = self.texts[self.ts.expect(IDENT)]
        self.ts.expect("AS")
        display = self.display_name()
        self.ts.expect("FOR")
        entity = self.texts[self.ts.expect(IDENT)]
        self.ts.expect_run("WITH", "STYLES")
        styles = [self.style_ref() for _ in self.ts.parenthesised()]
        defaults = [s for s in styles if s.is_default]
        if len(defaults) > 1:
            raise DuplicateFlag.at(f"layer {name!r} marks more than one style DEFAULT",
                                   self.ts.span(self.ts.pos - 1))
        self.ts.expect(";")
        return LayerDecl(name, display, entity, source_kind, tuple(styles),
                         self.ts.span_from(start))

    def style_ref(self) -> StyleRef:
        return StyleRef(self.texts[self.ts.expect(IDENT)], self.ts.match("DEFAULT"))

    def map_decl(self, start: int) -> MapDecl:
        self.ts.expect("MAP")
        name = self.texts[self.ts.expect(IDENT)]
        self.ts.expect("AS")
        display = self.display_name()
        self.ts.expect_run("WITH", "LAYERS")
        refs = [self.layer_ref() for _ in self.ts.parenthesised()]
        close = self.ts.pos - 1

        center: BoundingBox | None = None
        features: FeatureClause | None = None
        while True:
            if self.ts.at(","):
                self.ts.expect_run(",", "WITH", "CENTER")
                if center is not None:
                    raise ParseError.at("map declares CENTER twice",
                                        self.ts.span(self.ts.pos - 1))
                center = BoundingBox(self.pair(lambda: self.pair(self.coordinate)))
            elif self.ts.at("WITH"):
                if features is not None:
                    raise DuplicateFlag.at("map declares WITH FEATURES twice",
                                          self.ts.span(self.ts.pos))
                features = self.feature_clause()
            else:
                break
        self.ts.expect(";")

        base = [r for r in refs if FLAG_IS_BASE_LAYER in r.flags]
        if not base:
            raise ParseError.at(f"map {name!r} flags no layer IS_BASE_LAYER",
                                self.ts.span(close))
        if len(base) > 1:
            raise ParseError.at(
                f"map {name!r} flags more than one layer IS_BASE_LAYER", base[1].span)
        return MapDecl(name, display, tuple(refs), center, features, self.ts.span_from(start))

    def layer_ref(self) -> LayerRef:
        start = self.ts.expect(IDENT)
        name = self.texts[start]
        flags = self.flags(_LAYER_REF_FLAGS)
        if FLAG_DEFAULT_BASE_LAYER in flags and FLAG_IS_BASE_LAYER not in flags:
            raise ParseError.at(
                f"layer reference {name!r} is DEFAULT_BASE_LAYER but not IS_BASE_LAYER",
                self.ts.span(start))
        features = self.feature_clause()
        return LayerRef(name, flags, features, self.ts.span_from(start))

    def product_decl(self, start: int) -> ProductDecl:
        self.ts.expect("GIS")
        name = self.texts[self.ts.expect(IDENT)]
        features = self.feature_clause()
        self.ts.expect(";")
        return ProductDecl(name, features, self.ts.span_from(start))

    # -- shared pieces ------------------------------------------------------

    def flags(self, allowed: tuple[str, ...]) -> tuple[str, ...]:
        """The flags among allowed that come next, each at most once."""
        flags: list[str] = []
        while self.ts.at(*allowed):
            flag = self.ts.kind
            if flag in flags:
                raise DuplicateFlag.at(f"duplicate flag {flag}", self.ts.span(self.ts.pos))
            flags.append(flag)
            self.ts.advance()
        return tuple(flags)

    def feature_clause(self) -> FeatureClause | None:
        if not self.ts.at("WITH"):
            return None
        start = self.ts.expect_run("WITH", "FEATURES")
        return FeatureClause(self.ts.names(), self.ts.span_from(start))

    def display_name(self) -> str:
        words: list[str] = []
        while self.ts.at(IDENT, NUMBER):
            words.append(self.texts[self.ts.advance()])
        if not words:
            self.ts.fail("display name")
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
