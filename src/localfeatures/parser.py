"""Recursive-descent parser for product specifications.

parse() turns source text into a ProductSpec, raising ParseError (or a
subclass) with a 1-based line/column and the expected token kinds on the
first syntactic problem. Name resolution does not happen here: unknown
property types are parsed as relationship targets and judged by the resolver.
"""

from __future__ import annotations

from math import isfinite

from .errors import DuplicateFlag, MissingProduct, MultipleProducts, ParseError
from .lexer import EOF, IDENT, NUMBER, SPEC_KEYWORDS, Token, TokenStream
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
    Span,
    StyleRef,
)

_DISPLAY_NAME_STOPPERS = ("FOR", "WITH", ",", ")", ";", EOF)
_PROPERTY_FLAGS = (FLAG_IDENTIFIER, FLAG_DISPLAY_STRING, FLAG_REQUIRED)
_LAYER_REF_FLAGS = (FLAG_IS_BASE_LAYER, FLAG_DEFAULT_BASE_LAYER)


def parse(source: str, filename: str = "<spec>") -> ProductSpec:
    """Parse a complete product specification."""
    parser = _Parser(source)
    entities: list[EntityDecl] = []
    layers: list[LayerDecl] = []
    maps: list[MapDecl] = []
    product: ProductDecl | None = None

    while not parser.ts.at(EOF):
        decl = parser.statement()
        if isinstance(decl, EntityDecl):
            entities.append(decl)
        elif isinstance(decl, LayerDecl):
            layers.append(decl)
        elif isinstance(decl, MapDecl):
            maps.append(decl)
        else:
            if product is not None:
                raise MultipleProducts(
                    "specification declares more than one product",
                    decl.span.line, decl.span.column)
            product = decl

    if product is None:
        raise MissingProduct()
    return ProductSpec(tuple(entities), tuple(layers), tuple(maps), product,
                       source_name=filename)


def parse_statement(source: str):
    """Parse exactly one declaration; used to check statement spans re-parse."""
    parser = _Parser(source)
    decl = parser.statement()
    if not parser.ts.at(EOF):
        parser.ts.fail(EOF)
    return decl


class _Parser:

    def __init__(self, source: str):
        self.source = source
        self.ts = TokenStream(source, SPEC_KEYWORDS)

    # -- statements ---------------------------------------------------------

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

    def entity_decl(self, start: Token) -> EntityDecl:
        self.ts.expect("ENTITY")
        name = self.ts.expect(IDENT)
        self.ts.expect("(")
        properties = [self.property_decl()]
        while self.ts.match(","):
            properties.append(self.property_decl())
        self.ts.expect(")")
        features = self.feature_clause()
        end = self.ts.expect(";")

        for flag in (FLAG_IDENTIFIER, FLAG_DISPLAY_STRING):
            carriers = [p for p in properties if flag in p.flags]
            if len(carriers) > 1:
                offender = carriers[1]
                raise DuplicateFlag(
                    f"entity {name.text!r} flags more than one property {flag}",
                    offender.span.line, offender.span.column)
        return EntityDecl(name.text, tuple(properties), features,
                          self.span(start, end))

    def property_decl(self) -> PropertyDecl:
        name = self.ts.expect(IDENT)
        type_name = self.ts.expect(IDENT)
        last = type_name
        flags: list[str] = []
        while self.ts.at(*_PROPERTY_FLAGS):
            tok = self.ts.advance()
            if tok.kind in flags:
                raise DuplicateFlag(f"duplicate flag {tok.kind}", tok.line, tok.column)
            flags.append(tok.kind)
            last = tok
        relationship = None
        if self.ts.at("RELATIONSHIP"):
            rel_tok = self.ts.advance()
            if type_name.text in BUILTIN_TYPES:
                raise ParseError(
                    f"RELATIONSHIP is not allowed on built-in type {type_name.text!r}",
                    rel_tok.line, rel_tok.column)
            relationship, last = self.relationship_spec()
        return PropertyDecl(name.text, type_name.text, tuple(flags), relationship,
                            Span(name.offset, last.end, name.line, name.column))

    def relationship_spec(self) -> tuple[RelationshipSpec, Token]:
        if self.ts.match("("):
            first = self.cardinality()
            self.ts.expect(",")
            second = self.cardinality()
            end = self.ts.expect(")")
            bidirectional = False
            if self.ts.at("BIDIRECTIONAL"):
                end = self.ts.advance()
                bidirectional = True
            return RelationshipSpec((first, second), bidirectional, None), end
        if self.ts.match("MAPPED_BY"):
            target = self.ts.expect(IDENT)
            return RelationshipSpec(None, False, target.text), target
        self.ts.fail("(", "MAPPED_BY")

    def cardinality(self) -> Cardinality:
        start = self.ts.current
        low = self.cardinality_bound("cardinality bound")
        self.ts.expect("..")
        if self.ts.match("*"):
            return Cardinality(low, None)
        high = self.cardinality_bound("cardinality bound", "*")
        if low > high:
            raise ParseError(f"cardinality {low}..{high} has its lower bound above its upper bound",
                             start.line, start.column)
        return Cardinality(low, high)

    def cardinality_bound(self, *expected: str) -> int:
        tok = self.ts.current
        if tok.kind != NUMBER or not tok.text.isdigit():
            self.ts.fail(*expected)
        self.ts.advance()
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise ParseError("cardinality bound out of range",
                             tok.line, tok.column) from None

    def layer_decl(self, start: Token) -> LayerDecl:
        source_kind = self.ts.expect(IDENT)
        self.ts.expect("LAYER")
        name = self.ts.expect(IDENT)
        self.ts.expect("AS")
        display = self.display_name()
        self.ts.expect("FOR")
        entity = self.ts.expect(IDENT)
        self.ts.expect("WITH")
        self.ts.expect("STYLES")
        self.ts.expect("(")
        styles = [self.style_ref()]
        while self.ts.match(","):
            styles.append(self.style_ref())
        close = self.ts.expect(")")
        defaults = [s for s in styles if s.is_default]
        if len(defaults) > 1:
            raise DuplicateFlag(
                f"layer {name.text!r} marks more than one style DEFAULT",
                close.line, close.column)
        end = self.ts.expect(";")
        return LayerDecl(name.text, display, entity.text, source_kind.text,
                         tuple(styles), self.span(start, end))

    def style_ref(self) -> StyleRef:
        name = self.ts.expect(IDENT)
        is_default = self.ts.match("DEFAULT") is not None
        return StyleRef(name.text, is_default)

    def map_decl(self, start: Token) -> MapDecl:
        self.ts.expect("MAP")
        name = self.ts.expect(IDENT)
        self.ts.expect("AS")
        display = self.display_name()
        self.ts.expect("WITH")
        self.ts.expect("LAYERS")
        self.ts.expect("(")
        refs = [self.layer_ref()]
        while self.ts.match(","):
            refs.append(self.layer_ref())
        close = self.ts.expect(")")

        center: BoundingBox | None = None
        features: FeatureClause | None = None
        while True:
            if self.ts.at(","):
                mark = self.ts.advance()
                self.ts.expect("WITH")
                tok = self.ts.expect("CENTER")
                if center is not None:
                    raise ParseError("map declares CENTER twice", tok.line, tok.column)
                center = self.bounding_box()
            elif self.ts.at("WITH"):
                tok = self.ts.current
                if features is not None:
                    raise DuplicateFlag("map declares WITH FEATURES twice",
                                        tok.line, tok.column)
                features = self.feature_clause()
            else:
                break
        end = self.ts.expect(";")

        base = [r for r in refs if FLAG_IS_BASE_LAYER in r.flags]
        if not base:
            raise ParseError(f"map {name.text!r} flags no layer IS_BASE_LAYER",
                             close.line, close.column)
        if len(base) > 1:
            extra = base[1]
            raise ParseError(
                f"map {name.text!r} flags more than one layer IS_BASE_LAYER",
                extra.span.line, extra.span.column)
        return MapDecl(name.text, display, tuple(refs), center, features,
                       self.span(start, end))

    def layer_ref(self) -> LayerRef:
        name = self.ts.expect(IDENT)
        last = name
        flags: list[str] = []
        while self.ts.at(*_LAYER_REF_FLAGS):
            tok = self.ts.advance()
            if tok.kind in flags:
                raise DuplicateFlag(f"duplicate flag {tok.kind}", tok.line, tok.column)
            flags.append(tok.kind)
            last = tok
        if FLAG_DEFAULT_BASE_LAYER in flags and FLAG_IS_BASE_LAYER not in flags:
            raise ParseError(
                f"layer reference {name.text!r} is DEFAULT_BASE_LAYER but not IS_BASE_LAYER",
                name.line, name.column)
        features = self.feature_clause()
        span_end = features.span.end if features is not None else last.end
        return LayerRef(name.text, tuple(flags), features,
                        Span(name.offset, span_end, name.line, name.column))

    def product_decl(self, start: Token) -> ProductDecl:
        self.ts.expect("GIS")
        name = self.ts.expect(IDENT)
        features = self.feature_clause()
        end = self.ts.expect(";")
        return ProductDecl(name.text, features, self.span(start, end))

    # -- shared pieces ------------------------------------------------------

    def feature_clause(self) -> FeatureClause | None:
        if not self.ts.at("WITH"):
            return None
        start = self.ts.advance()
        self.ts.expect("FEATURES")
        self.ts.expect("(")
        names: list[str] = []
        if not self.ts.at(")"):
            names.append(self.ts.expect(IDENT).text)
            while self.ts.match(","):
                names.append(self.ts.expect(IDENT).text)
        end = self.ts.expect(")")
        return FeatureClause(tuple(names), self.span(start, end))

    def display_name(self) -> str:
        words: list[str] = []
        while self.ts.at(IDENT, NUMBER):
            words.append(self.ts.advance().text)
        if not words:
            self.ts.fail("display name")
        return " ".join(words)

    def bounding_box(self) -> BoundingBox:
        self.ts.expect("[")
        first = self.coordinate_pair()
        self.ts.expect(",")
        second = self.coordinate_pair()
        self.ts.expect("]")
        return BoundingBox((first, second))

    def coordinate_pair(self) -> tuple[float, float]:
        self.ts.expect("[")
        x = self.coordinate()
        self.ts.expect(",")
        y = self.coordinate()
        self.ts.expect("]")
        return (x, y)

    def coordinate(self) -> float:
        tok = self.ts.expect(NUMBER)
        value = float(tok.text)
        if not isfinite(value):  # JSON has no Infinity to emit it as
            raise ParseError("coordinate out of range", tok.line, tok.column)
        return value

    def span(self, start: Token, end: Token) -> Span:
        return Span(start.offset, end.end, start.line, start.column)
