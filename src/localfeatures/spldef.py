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

from dataclasses import dataclass, field

from .errors import ParseError
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
from .lexer import DEFINITION_KEYWORDS, EOF, IDENT, Token, TokenStream
from .multimodel import AppliedToDeclaration, FunctionalModel
from .syntax import Span

_INDENT = "    "
# Deep enough for any hand-written model, shallow enough that the recursive
# parser, build_feature_model and format_spl all stay within Python's stack.
MAX_FEATURE_DEPTH = 200


@dataclass(frozen=True)
class SplDefinition:
    """A parsed definition: the functional model, the viewpoint metamodel
    table (metaclass order preserved), the applied-to declarations, and the
    default global-selection seeds."""

    functional: FunctionalModel
    viewpoints: dict[str, tuple[str, ...]]
    applied_to: tuple[AppliedToDeclaration, ...]
    defaults: tuple[str, ...] = ()
    source_name: str = field(default="<definition>", compare=False)
    defaults_span: Span | None = field(default=None, compare=False)


def parse_spl_definition(source: str, filename: str = "<definition>") -> SplDefinition:
    parser = _DefinitionParser(source)
    return parser.ts.run(parser.parse, filename)


class _DefinitionParser:

    def __init__(self, source: str):
        self.ts = TokenStream(source, DEFINITION_KEYWORDS)

    def parse(self, filename: str) -> SplDefinition:
        viewpoints: dict[str, tuple[str, ...]] = {}
        trees: dict[str, tuple[Feature, tuple[CrossTreeConstraint, ...]]] = {}
        local_lines: list[tuple[Token, Token, Token]] = []
        defaults: tuple[str, ...] | None = None
        defaults_span: Span | None = None

        while not self.ts.at(EOF):
            if self.ts.at("VIEWPOINT"):
                self.viewpoint_decl(viewpoints)
            elif self.ts.at("FEATUREMODEL"):
                self.model_block(trees)
            elif self.ts.at("LOCAL"):
                local_lines.append(self.local_decl())
            elif self.ts.at("DEFAULTS"):
                if defaults is not None:
                    raise ParseError.at("definition declares DEFAULTS twice", self.ts.current)
                defaults, defaults_span = self.defaults_decl()
            else:
                self.ts.fail("VIEWPOINT", "FEATUREMODEL", "LOCAL", "DEFAULTS")

        applied: list[AppliedToDeclaration] = []
        for root, viewpoint, metaclass in local_lines:
            if root.text not in trees:
                raise ParseError.at(
                    f"LOCAL references undeclared feature model {root.text!r}", root)
            if viewpoint.text not in viewpoints:
                raise ParseError.at(f"no viewpoint named {viewpoint.text!r}", viewpoint)
            if metaclass.text not in viewpoints[viewpoint.text]:
                raise ParseError.at(f"viewpoint {viewpoint.text!r} declares no metaclass "
                                    f"{metaclass.text!r}", metaclass)
            decl = AppliedToDeclaration(root.text, viewpoint.text, metaclass.text)
            if decl in applied:
                raise ParseError.at(f"duplicate LOCAL {root.text} APPLIED TO "
                                    f"{viewpoint.text}.{metaclass.text}", root)
            applied.append(decl)
        local_names = {d.local_model for d in applied}

        global_names = [n for n in trees if n not in local_names]
        if len(global_names) != 1:
            shown = ", ".join(global_names) or "none"
            raise ParseError(
                "definition needs exactly one feature model not declared LOCAL "
                f"(the global model); candidates: {shown}", 1, 1)
        global_name = global_names[0]

        global_model = build_feature_model(*trees[global_name], name=global_name)
        locals_ = {name: build_feature_model(*trees[name], name=name)
                   for name in trees if name in local_names}
        functional = FunctionalModel(global_model, locals_)

        defaults = defaults or ()
        unknown = set(defaults) - global_model.feature_names
        if unknown:
            raise ParseError.at("DEFAULTS names features missing from the global model: "
                                + ", ".join(sorted(unknown)), defaults_span)

        return SplDefinition(functional, viewpoints, tuple(applied), defaults,
                             source_name=filename, defaults_span=defaults_span)

    # -- declarations -------------------------------------------------------

    def viewpoint_decl(self, viewpoints: dict[str, tuple[str, ...]]) -> None:
        self.ts.expect("VIEWPOINT")
        name = self.ts.expect(IDENT)
        if name.text in viewpoints:
            raise ParseError.at(f"duplicate viewpoint {name.text!r}", name)
        self.ts.expect("(")
        metaclasses = [self.ts.expect(IDENT).text]
        while self.ts.match(","):
            metaclass = self.ts.expect(IDENT)
            if metaclass.text in metaclasses:
                raise ParseError.at(f"duplicate metaclass {metaclass.text!r}", metaclass)
            metaclasses.append(metaclass.text)
        self.ts.expect(")")
        self.ts.expect(";")
        viewpoints[name.text] = tuple(metaclasses)

    def model_block(self, trees: dict) -> None:
        self.ts.expect("FEATUREMODEL")
        name = self.ts.expect(IDENT)
        if name.text in trees:
            raise ParseError.at(f"duplicate feature model {name.text!r}", name)
        group = self.group_marker()
        self.ts.expect("{")
        children: list[Feature] = []
        constraints: list[CrossTreeConstraint] = []
        while True:
            if self.ts.at("REQUIRES", "EXCLUDES"):
                constraints.append(self.constraint())
            elif group is None and self.ts.at("MANDATORY", "OPTIONAL"):
                children.append(self.feature_node(kinded=True))
            elif group is not None and self.ts.at(IDENT):
                children.append(self.feature_node(kinded=False))
            else:
                break
        if group is None:
            self.ts.expect("}", "MANDATORY", "OPTIONAL", "REQUIRES", "EXCLUDES")
        else:
            self.ts.expect("}", IDENT, "REQUIRES", "EXCLUDES")
        root = Feature(name.text, MANDATORY, group, False, tuple(children))
        trees[name.text] = (root, tuple(constraints))

    def feature_node(self, kinded: bool, depth: int = 1) -> Feature:
        if depth > MAX_FEATURE_DEPTH:
            raise ParseError.at(f"features nest deeper than {MAX_FEATURE_DEPTH} levels",
                                self.ts.current)
        if kinded:
            kind = MANDATORY if self.ts.expect("MANDATORY", "OPTIONAL").kind == "MANDATORY" \
                else OPTIONAL
        else:
            kind = OPTIONAL
        name = self.ts.expect(IDENT)
        group = self.group_marker()
        abstract = self.ts.match("ABSTRACT") is not None
        children: tuple[Feature, ...] = ()
        if self.ts.match("{"):
            gathered: list[Feature] = []
            while True:
                if group is None and self.ts.at("MANDATORY", "OPTIONAL"):
                    gathered.append(self.feature_node(kinded=True, depth=depth + 1))
                elif group is not None and self.ts.at(IDENT):
                    gathered.append(self.feature_node(kinded=False, depth=depth + 1))
                else:
                    break
            if group is None:
                self.ts.expect("}", "MANDATORY", "OPTIONAL")
            else:
                self.ts.expect("}", IDENT)
            children = tuple(gathered)
        return Feature(name.text, kind, group, abstract, children)

    def group_marker(self) -> str | None:
        if self.ts.match("XOR"):
            return XOR
        if self.ts.match("OR"):
            return OR
        return None

    def constraint(self) -> CrossTreeConstraint:
        tok = self.ts.expect("REQUIRES", "EXCLUDES")
        kind = REQUIRES if tok.kind == "REQUIRES" else EXCLUDES
        lhs = self.ts.expect(IDENT)
        rhs = self.ts.expect(IDENT)
        return CrossTreeConstraint(kind, lhs.text, rhs.text)

    def local_decl(self) -> tuple[Token, Token, Token]:
        """The root, viewpoint and metaclass names of a LOCAL line."""
        self.ts.expect("LOCAL")
        root = self.ts.expect(IDENT)
        self.ts.expect("APPLIED")
        self.ts.expect("TO")
        viewpoint = self.ts.expect(IDENT)
        self.ts.expect(".")
        metaclass = self.ts.expect(IDENT)
        self.ts.expect(";")
        return root, viewpoint, metaclass

    def defaults_decl(self) -> tuple[tuple[str, ...], Span]:
        start = self.ts.expect("DEFAULTS")
        self.ts.expect("(")
        names: list[str] = []
        if not self.ts.at(")"):
            names.append(self.ts.expect(IDENT).text)
            while self.ts.match(","):
                names.append(self.ts.expect(IDENT).text)
        self.ts.expect(")")
        end = self.ts.expect(";")
        return tuple(names), Span.covering(start, end)


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
