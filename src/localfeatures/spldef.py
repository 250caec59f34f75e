"""Product line definition files: feature models, viewpoint metamodels,
applied-to declarations, and global default seeds.

Format, one declaration per statement:

    VIEWPOINT <name> (<Metaclass>, ...);

    FEATUREMODEL <name> [XOR|OR] {
        MANDATORY <Feature> [XOR|OR] [ABSTRACT] [{ <children> }]
        OPTIONAL <Feature> ...
        REQUIRES <lhs> <rhs>
        EXCLUDES <lhs> <rhs>
    }

    LOCAL <root> APPLIED TO <viewpoint>.<metaclass>;

    DEFAULTS (<feature>, ...);

The FEATUREMODEL block's name is its root feature. Children of an XOR/OR
feature are written bare (the group makes them optional). Exactly one
FEATUREMODEL must not appear in any LOCAL line: that one is the global model,
and every local model's tree must be repeated under the same-named feature
inside it. DEFAULTS seeds the product's global selection. Features nest at
most MAX_FEATURE_DEPTH levels below their FEATUREMODEL line.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DuplicateFeatureName,
    FeatureModelError,
    GroupTooSmall,
    ParseError,
    TwinMismatch,
)
from .features import (
    EXCLUDES,
    MANDATORY,
    OPTIONAL,
    OR,
    REQUIRES,
    XOR,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    build_feature_model,
)
from .lexer import DEFINITION_KEYWORDS, EOF, IDENT, TokenStream
from .multimodel import AppliedToDeclaration, FunctionalModel
from .records import LEADING_FIELDS
from .syntax import _NO_SPAN, Span

_INDENT = "    "
# Deep enough for any hand-written model, shallow enough that the recursive
# parser, build_feature_model, enumerate_configurations and format_spl all
# stay within Python's stack.
MAX_FEATURE_DEPTH = 200


class SplDefinition(NamedTuple):
    """A parsed definition: the functional model, the viewpoint metamodel
    table (metaclass order preserved), the applied-to declarations, and the
    default global-selection seeds."""

    functional: FunctionalModel
    viewpoints: dict[str, tuple[str, ...]]
    applied_to: tuple[AppliedToDeclaration, ...]
    defaults: tuple[str, ...] = ()
    source_name: str = "<definition>"
    defaults_span: Span | None = None

    _compared = 4
    __eq__, __ne__, __hash__ = LEADING_FIELDS


def parse_spl_definition(source: str, filename: str = "<definition>") -> SplDefinition:
    return _DefinitionParser(source).parse(filename)


class _Block:
    """A FEATUREMODEL block as read, with the tokens its errors cite: the
    FEATUREMODEL keyword, each feature name's tokens in source order, the
    name token of each feature whose group has fewer than two children, and
    each constraint's two endpoint tokens."""

    def __init__(self, head: int):
        self.head = head
        self.names: dict[str, list[int]] = {}
        self.small_groups: dict[str, int] = {}
        self.endpoints: list[tuple[int, int]] = []
        self.root: Feature | None = None
        self.constraints: tuple[CrossTreeConstraint, ...] = ()


class _DefinitionParser:
    """Tokens are indices into the stream; self.texts[i] is token i's text."""

    def __init__(self, source: str):
        self.ts = TokenStream(source, DEFINITION_KEYWORDS)
        self.texts = self.ts.texts

    def parse(self, filename: str) -> SplDefinition:
        viewpoints: dict[str, tuple[str, ...]] = {}
        blocks: dict[str, _Block] = {}
        local_lines: list[tuple[Span, int, int, int]] = []
        defaults: tuple[str, ...] | None = None
        defaults_span: Span | None = None

        while self.ts.kind is not EOF:
            if self.ts.kind == "VIEWPOINT":
                self.viewpoint_decl(viewpoints)
            elif self.ts.kind == "FEATUREMODEL":
                self.model_block(blocks)
            elif self.ts.kind == "LOCAL":
                local_lines.append(self.local_decl())
            elif self.ts.kind == "DEFAULTS":
                if defaults is not None:
                    raise ParseError("definition declares DEFAULTS twice",
                                     self.ts.span(self.ts.pos))
                defaults, defaults_span = self.defaults_decl()
            else:
                self.ts.fail("VIEWPOINT", "FEATUREMODEL", "LOCAL", "DEFAULTS")

        texts = self.texts
        applied: list[AppliedToDeclaration] = []
        for line, root, viewpoint, metaclass in local_lines:
            if texts[root] not in blocks:
                raise ParseError(
                    f"LOCAL references undeclared feature model {texts[root]!r}",
                    self.ts.span(root))
            if texts[viewpoint] not in viewpoints:
                raise ParseError(f"no viewpoint named {texts[viewpoint]!r}",
                                 self.ts.span(viewpoint))
            if texts[metaclass] not in viewpoints[texts[viewpoint]]:
                raise ParseError(f"viewpoint {texts[viewpoint]!r} declares no metaclass "
                                 f"{texts[metaclass]!r}", self.ts.span(metaclass))
            decl = AppliedToDeclaration(texts[root], texts[viewpoint], texts[metaclass], line)
            if decl in applied:
                raise ParseError(f"duplicate LOCAL {decl.local_model} APPLIED TO "
                                 f"{decl.viewpoint}.{decl.metaclass}", self.ts.span(root))
            applied.append(decl)
        local_names = {d.local_model for d in applied}

        global_names = [n for n in blocks if n not in local_names]
        if len(global_names) != 1:
            shown = ", ".join(global_names) or "none"
            where = (self.ts.span(blocks[global_names[1]].head) if global_names
                     else local_lines[0][0] if local_lines else _NO_SPAN)
            raise ParseError(
                "definition needs exactly one feature model not declared LOCAL "
                f"(the global model); candidates: {shown}", where)
        global_name = global_names[0]

        global_model = self.build(blocks[global_name])
        locals_ = {name: self.build(blocks[name]) for name in blocks if name in local_names}
        try:
            functional = FunctionalModel(global_model, locals_)
        except TwinMismatch as exc:
            exc.span = self.ts.span(blocks[exc.model].head)
            raise

        defaults = defaults or ()
        unknown = set(defaults) - global_model.feature_names
        if unknown:
            raise ParseError("DEFAULTS names features missing from the global model: "
                             + ", ".join(sorted(unknown)), defaults_span)

        return SplDefinition(functional, viewpoints, tuple(applied), defaults,
                             source_name=filename, defaults_span=defaults_span)

    def build(self, block: _Block) -> FeatureModel:
        """The block's feature model; an error building it is spanned at the
        feature or constraint endpoint it is about (a repeated name at its
        second occurrence)."""
        try:
            return build_feature_model(block.root, block.constraints, name=block.root.name)
        except FeatureModelError as exc:
            if exc.constraint is not None:
                lhs, rhs = block.endpoints[block.constraints.index(exc.constraint)]
                tok = lhs if self.texts[lhs] == exc.feature else rhs
            elif isinstance(exc, GroupTooSmall):
                tok = block.small_groups[exc.feature]
            else:
                occurrences = block.names[exc.feature]
                tok = occurrences[1] if isinstance(exc, DuplicateFeatureName) else occurrences[0]
            exc.span = self.ts.span(tok)
            raise

    # -- declarations -------------------------------------------------------

    def viewpoint_decl(self, viewpoints: dict[str, tuple[str, ...]]) -> None:
        name = self.ts.expect_run("VIEWPOINT", IDENT) + 1
        if self.texts[name] in viewpoints:
            raise ParseError(f"duplicate viewpoint {self.texts[name]!r}", self.ts.span(name))
        metaclasses: list[str] = []

        def metaclass() -> None:
            tok = self.ts.expect(IDENT)
            if self.texts[tok] in metaclasses:
                raise ParseError(f"duplicate metaclass {self.texts[tok]!r}",
                                 self.ts.span(tok))
            metaclasses.append(self.texts[tok])

        self.ts.parenthesised(metaclass)
        self.ts.expect(";")
        viewpoints[self.texts[name]] = tuple(metaclasses)

    def model_block(self, blocks: dict[str, _Block]) -> None:
        block = _Block(self.ts.expect_run("FEATUREMODEL", IDENT))
        name = block.head + 1
        if self.texts[name] in blocks:
            raise ParseError(f"duplicate feature model {self.texts[name]!r}",
                             self.ts.span(name))
        block.names[self.texts[name]] = [name]
        group = self.group_marker()
        self.ts.expect("{")
        constraints: list[CrossTreeConstraint] = []
        children = self.feature_body(block, group, 1, constraints)
        block.root = self.feature(name, MANDATORY, group, False, children, block)
        block.constraints = tuple(constraints)
        blocks[block.root.name] = block

    def feature(self, name: int, kind: str, group: str | None, abstract: bool,
                children: list[Feature], block: _Block) -> Feature:
        if group is not None and len(children) < 2:
            block.small_groups.setdefault(self.texts[name], name)
        return Feature(self.texts[name], kind, group, abstract, tuple(children))

    def feature_body(self, block: _Block, group: str | None, depth: int,
                     constraints: list[CrossTreeConstraint] | None = None) -> list[Feature]:
        """The features, at depth, up to the closing brace of a feature or
        model whose group is group; constraints too when given a list to
        add them to. A group's children are written bare."""
        starts = ("MANDATORY", "OPTIONAL") if group is None else (IDENT,)
        if constraints is not None:
            starts += ("REQUIRES", "EXCLUDES")
        children: list[Feature] = []
        while self.ts.kind in starts:
            if self.ts.kind in ("REQUIRES", "EXCLUDES"):
                constraints.append(self.constraint(block))
            else:
                children.append(self.feature_node(block, depth))
        self.ts.expect("}", *starts)
        return children

    def feature_node(self, block: _Block, depth: int) -> Feature:
        if depth > MAX_FEATURE_DEPTH:
            raise ParseError(f"features nest deeper than {MAX_FEATURE_DEPTH} levels",
                             self.ts.span(self.ts.pos))
        kind = MANDATORY if self.ts.kind == "MANDATORY" else OPTIONAL
        if self.ts.kind != IDENT:  # a group's children are bare
            self.ts.expect("MANDATORY", "OPTIONAL")
        name = self.ts.expect(IDENT)
        block.names.setdefault(self.texts[name], []).append(name)
        group = self.group_marker()
        abstract = self.ts.match("ABSTRACT")
        children = self.feature_body(block, group, depth + 1) if self.ts.match("{") else []
        return self.feature(name, kind, group, abstract, children, block)

    def group_marker(self) -> str | None:
        if self.ts.match("XOR"):
            return XOR
        if self.ts.match("OR"):
            return OR
        return None

    def constraint(self, block: _Block) -> CrossTreeConstraint:
        kind = REQUIRES if self.ts.kind == "REQUIRES" else EXCLUDES
        self.ts.expect("REQUIRES", "EXCLUDES")
        lhs = self.ts.expect(IDENT)
        rhs = self.ts.expect(IDENT)
        block.endpoints.append((lhs, rhs))
        return CrossTreeConstraint(kind, self.texts[lhs], self.texts[rhs])

    def local_decl(self) -> tuple[Span, int, int, int]:
        """The span of a LOCAL line and its root, viewpoint and metaclass
        names."""
        start = self.ts.expect_run("LOCAL", IDENT, "APPLIED", "TO", IDENT, ".", IDENT, ";")
        return self.ts.span_from(start), start + 1, start + 4, start + 6

    def defaults_decl(self) -> tuple[tuple[str, ...], Span]:
        start = self.ts.expect("DEFAULTS")
        names = self.ts.names()
        self.ts.expect(";")
        return names, self.ts.span_from(start)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

def format_spl(definition: SplDefinition) -> str:
    """Canonical text for a definition; parsing it back compares equal."""
    sections: list[str] = []

    viewpoint_lines = [
        f"VIEWPOINT {name} ({', '.join(metaclasses)});"
        for name, metaclasses in definition.viewpoints.items()]
    if viewpoint_lines:
        sections.append("\n".join(viewpoint_lines))

    sections.append(_model_block(definition.functional.global_model))
    for local in definition.functional.locals.values():
        sections.append(_model_block(local))

    local_lines = [
        f"LOCAL {d.local_model} APPLIED TO {d.viewpoint}.{d.metaclass};"
        for d in definition.applied_to]
    if local_lines:
        sections.append("\n".join(local_lines))

    if definition.defaults:
        sections.append(f"DEFAULTS ({', '.join(definition.defaults)});")

    return "\n\n".join(sections) + "\n"


def _model_block(fm: FeatureModel) -> str:
    root = fm.root
    head = f"FEATUREMODEL {root.name}"
    if root.group is not None:
        head += f" {root.group.upper()}"
    lines = [head + " {"]
    for child in root.children:
        _node_lines(child, 1, root.group is not None, lines)
    for ct in fm.constraints:
        lines.append(f"{_INDENT}{ct.kind.upper()} {ct.lhs} {ct.rhs}")
    lines.append("}")
    return "\n".join(lines)


def _node_lines(feature: Feature, depth: int, in_group: bool, lines: list[str]) -> None:
    head = _INDENT * depth
    if not in_group:
        head += feature.kind.upper() + " "
    head += feature.name
    if feature.group is not None:
        head += f" {feature.group.upper()}"
    if feature.abstract:
        head += " ABSTRACT"
    if feature.children:
        lines.append(head + " {")
        for child in feature.children:
            _node_lines(child, depth + 1, feature.group is not None, lines)
        lines.append(_INDENT * depth + "}")
    else:
        lines.append(head)
