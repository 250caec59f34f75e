"""Seeded random generators for property tests: feature models, product
specification ASTs (with clauses drawn from a fixed pool or from a parsed
definition), token-soup fuzz inputs, and the fixed criterion-5 scale
product. Everything random is a pure function of the passed random.Random,
so failures replay from the seed.

Also the slow oracles the library's fast paths are checked against: the
brute-force configuration enumerator, the whole-model fixpoint closure, the
character-at-a-time tokenizer and the token-at-a-time reading of keyword
runs and name lists."""

import random
from typing import Callable

from localfeatures.errors import ParseError
from localfeatures.features import (
    EXCLUDES,
    MANDATORY,
    OPTIONAL,
    OR,
    REQUIRES,
    XOR,
    ClosureStep,
    Configuration,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    build_feature_model,
)
from localfeatures.lexer import EOF, IDENT, NUMBER, TokenStream, tokenize
from localfeatures.spldef import SplDefinition
from localfeatures.syntax import (
    BoundingBox,
    Cardinality,
    EntityDecl,
    FLAG_DEFAULT_BASE_LAYER,
    FLAG_IS_BASE_LAYER,
    FLAG_REQUIRED,
    FeatureClause,
    LayerDecl,
    LayerRef,
    MapDecl,
    ProductDecl,
    ProductSpec,
    PropertyDecl,
    RelationshipSpec,
    StyleRef,
)


def random_feature_model(rng: random.Random, max_features: int = 12) -> FeatureModel:
    """A random rooted tree with random kinds, some xor/or groups, and up to
    4 requires/excludes constraints between non-root features."""
    n = rng.randint(3, max_features)
    names = [f"F{i}" for i in range(n)]
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(1, n):
        children[rng.randrange(0, i)].append(i)
    kinds = [rng.choice((MANDATORY, OPTIONAL)) for _ in range(n)]
    groups: dict[int, str] = {}
    for i in range(n):
        if len(children[i]) >= 2 and rng.random() < 0.3:
            groups[i] = rng.choice((XOR, OR))

    def build(i: int) -> Feature:
        return Feature(names[i], kinds[i], groups.get(i),
                       children=tuple(build(c) for c in children[i]))

    constraints = []
    for _ in range(rng.randint(0, 4)):
        lhs, rhs = rng.sample(range(1, n), 2)
        kind = rng.choice((REQUIRES, EXCLUDES))
        constraints.append(CrossTreeConstraint(kind, names[lhs], names[rhs]))
    return build_feature_model(build(0), tuple(constraints))


def brute_force_configurations(fm: FeatureModel) -> list[Configuration]:
    """All valid configurations, by checking every one of the 2^n feature
    subsets against the tree semantics; sorted as enumerate_configurations
    sorts them. Exponential on purpose: it is the slow oracle."""
    names = sorted(fm.feature_names)
    found: list[Configuration] = []
    for bits in range(1 << len(names)):
        subset = frozenset(n for i, n in enumerate(names) if bits >> i & 1)
        if _satisfies(fm, subset):
            found.append(subset)
    found.sort(key=sorted)
    return found


def _satisfies(fm: FeatureModel, sel: frozenset[str]) -> bool:
    if fm.root.name not in sel:
        return False
    for f in fm.iter_features():
        here = f.name in sel
        if f.group is None:
            for c in f.children:
                if c.name in sel and not here:
                    return False
                if here and c.kind == MANDATORY and c.name not in sel:
                    return False
        else:
            count = 0
            for c in f.children:
                if c.name in sel:
                    if not here:
                        return False
                    count += 1
            if here and f.group == XOR and count != 1:
                return False
            if here and f.group == OR and count == 0:
                return False
    for ct in fm.constraints:
        if ct.kind == REQUIRES:
            if ct.lhs in sel and ct.rhs not in sel:
                return False
        else:
            if ct.lhs in sel and ct.rhs in sel:
                return False
    return True


def reference_close_selection_traced(
        fm: FeatureModel,
        seeds: Configuration | set[str]) -> tuple[Configuration, dict[str, ClosureStep]]:
    """The closure of the seeds and, per feature, the rule credited with it,
    by a fixpoint that re-sorts the whole selection and re-walks the whole
    tree on every pass: parents in name order, then mandatory children in
    preorder, then requires in declaration order. The slow oracle for
    close_selection_traced, which must credit every feature the same way;
    unknown seeds are the caller's problem here."""
    parent_name = {c.name: f.name for f in fm.iter_features() for c in f.children}
    steps: dict[str, ClosureStep] = {}
    for s in sorted(seeds):
        steps[s] = ClosureStep("seed")
    if fm.root.name not in steps:
        steps[fm.root.name] = ClosureStep("root")

    changed = True
    while changed:
        changed = False
        for name in sorted(steps):
            parent = parent_name.get(name)
            if parent is not None and parent not in steps:
                steps[parent] = ClosureStep("parent", name)
                changed = True
        for f in fm.iter_features():
            if f.name in steps and f.group is None:
                for c in f.children:
                    if c.kind == MANDATORY and c.name not in steps:
                        steps[c.name] = ClosureStep("mandatory", f.name)
                        changed = True
        for ct in fm.constraints:
            if ct.kind == REQUIRES and ct.lhs in steps and ct.rhs not in steps:
                steps[ct.rhs] = ClosureStep("requires", ct.lhs)
                changed = True

    return frozenset(steps), steps


_PUNCT = ("..", "(", ")", "[", "]", "{", "}", ",", ";", ".", "*")
_WORD_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_WORD_CHARS = _WORD_START | frozenset("0123456789_")
_DIGITS = frozenset("0123456789")


def reference_tokenize(source: str, keywords: frozenset[str]) -> list[tuple]:
    """The tokens of source as (kind, text, line, column, offset, end)
    tuples, found by stepping through it one character at a time; raises
    the same ParseError as lexer.tokenize at the first bad character. The
    slow oracle for the regex lexer."""
    tokens: list[tuple] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)

    while pos < n:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if source.startswith("//", pos):
            nl = source.find("\n", pos)
            pos = n if nl < 0 else nl
            continue

        col = pos - line_start + 1
        if ch in _WORD_START:
            end = pos + 1
            while end < n and source[end] in _WORD_CHARS:
                end += 1
            text = source[pos:end]
            kind = text if text in keywords else IDENT
            tokens.append((kind, text, line, col, pos, end))
            pos = end
            continue
        if ch in _DIGITS or (ch == "-" and pos + 1 < n and source[pos + 1] in _DIGITS):
            end = pos + 1
            while end < n and source[end] in _DIGITS:
                end += 1
            # a fraction needs a digit after the dot; "1..2" is 1 .. 2
            if end + 1 < n and source[end] == "." and source[end + 1] in _DIGITS:
                end += 2
                while end < n and source[end] in _DIGITS:
                    end += 1
            tokens.append((NUMBER, source[pos:end], line, col, pos, end))
            pos = end
            continue
        for punct in _PUNCT:
            if source.startswith(punct, pos):
                tokens.append((punct, punct, line, col, pos, pos + len(punct)))
                pos += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col,
                             start=pos, end=pos + 1)

    tokens.append((EOF, "", line, n - line_start + 1, n, n))
    return tokens


class ReferenceTokenStream(TokenStream):
    """A TokenStream that reads runs and name lists one token at a time, as
    expect and match do. The slow oracle for TokenStream's slice-compared
    expect_run and names: a parser given this stream in place of its own
    must build the same tree, or raise the same ParseError in every field."""

    def expect_run(self, *kinds: str) -> int:
        first = self.pos
        for kind in kinds:
            self.expect(kind)
        return first

    def names(self) -> tuple[str, ...]:
        self.expect("(")
        names = []
        if self.kind != ")":
            names.append(self.texts[self.expect(IDENT)])
            while self.match(","):
                names.append(self.texts[self.expect(IDENT)])
        self.expect(")")
        return tuple(names)


# The runs whose reading the mutations below aim at: each starts a site that
# reaches to the next ")" or ";", so a site takes in the list a run opens.
_RUN_SITES = (("WITH", "FEATURES"), ("WITH", "STYLES"), ("WITH", "LAYERS"),
              (",", "WITH", "CENTER"), ("APPLIED", "TO"), ("DEFAULTS",))
_STAND_INS = ("WITH", "FEATURES", "MAP", "CENTER", "TO", "DEFAULT", "42", "-1.5",
              "x", "(", ")", ",", ";", "..")


def mutated_runs(source: str, keywords: frozenset[str], rng: random.Random,
                 count: int) -> list[str]:
    """count copies of source, each with one token in or next to a keyword
    run or name list changed: dropped, doubled, replaced by a keyword, a
    number, a name or punctuation, or the source cut off just before it."""
    tokens = tokenize(source, keywords)
    kinds = [token.kind for token in tokens]
    sites: list[tuple[int, int]] = []
    for first in range(len(tokens)):
        for run in _RUN_SITES:
            if tuple(kinds[first:first + len(run)]) == run:
                last = first + len(run)
                while kinds[last] not in (")", ";", EOF):
                    last += 1
                sites.append((first, last))
    mutants = []
    for _ in range(count):
        first, last = rng.choice(sites)
        token = tokens[rng.randint(first, last)]
        head, tail = source[:token.offset], source[token.end:]
        how = rng.choice(("drop", "double", "replace", "replace", "cut"))
        if how == "drop":
            mutants.append(f"{head} {tail}")
        elif how == "double":
            mutants.append(f"{head}{token.text} {token.text}{tail}")
        elif how == "replace":
            mutants.append(f"{head}{rng.choice(_STAND_INS)}{tail}")
        else:
            mutants.append(head)
    return mutants


def nested_spl(depth: int) -> str:
    """A definition with one feature model whose features nest depth levels
    deep: F1 holds F2, which holds F3, and so on. Every feature line is
    indented by two spaces, so feature F<i> sits at line i + 1, column 3."""
    opened = "".join(f"  OPTIONAL F{i} {{\n" for i in range(1, depth))
    return f"FEATUREMODEL R {{\n{opened}  OPTIONAL F{depth}\n" + "}\n" * depth


_FEATURE_POOL = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta")
_DISPLAY_WORDS = ("Regional", "overview", "map", "Hotels", "North", "2024")
_TYPES = ("Long", "Integer", "Double", "String", "Boolean", "Date",
          "Point", "LineString", "Polygon")


def _clause(rng: random.Random) -> FeatureClause | None:
    roll = rng.random()
    if roll < 0.45:
        return None
    if roll < 0.55:
        return FeatureClause(())
    count = rng.randint(1, 3)
    return FeatureClause(tuple(rng.sample(_FEATURE_POOL, count)))


def _display(rng: random.Random) -> str:
    return " ".join(rng.sample(_DISPLAY_WORDS, rng.randint(1, 3)))


# Draws the feature clause of an element at a route: "data.Entity",
# "visualization.Map", "visualization.LayerInMap", or PRODUCT for the
# product's own clause over the global model.
ClauseDrawer = Callable[[random.Random, str], FeatureClause | None]
PRODUCT = "product"


def random_spec(rng: random.Random, clause: ClauseDrawer | None = None) -> ProductSpec:
    """A random well-formed ProductSpec AST. Only syntactic validity is
    guaranteed; names need not resolve. Without a clause drawer, clause
    names come from a fixed pool that no definition uses."""
    if clause is None:
        def clause(rng: random.Random, route: str) -> FeatureClause | None:
            return _clause(rng)
    entity_names = [f"Ent{i}" for i in range(rng.randint(1, 4))]
    entities = []
    for name in entity_names:
        properties = [PropertyDecl("id", "Long", ("IDENTIFIER",))]
        for j in range(rng.randint(0, 3)):
            flags = (FLAG_REQUIRED,) if rng.random() < 0.4 else ()
            properties.append(PropertyDecl(f"p{j}", rng.choice(_TYPES), flags))
        if len(entity_names) > 1 and rng.random() < 0.5:
            target = rng.choice([e for e in entity_names if e != name])
            if rng.random() < 0.5:
                rel = RelationshipSpec(None, False, "back")
            else:
                cards = (Cardinality(rng.randint(0, 1), rng.choice((1, 9, None))),
                         Cardinality(0, None))
                rel = RelationshipSpec(cards, rng.random() < 0.5, None)
            properties.append(PropertyDecl("rel", target, (), rel))
        entities.append(EntityDecl(name, tuple(properties), clause(rng, "data.Entity")))

    layer_names = [f"layer{i}" for i in range(rng.randint(1, 3))]
    layers = []
    for name in layer_names:
        styles = [StyleRef(f"style{k}", k == 0)
                  for k in range(rng.randint(1, 3))]
        layers.append(LayerDecl(name, _display(rng), rng.choice(entity_names),
                                "GEOJSON", tuple(styles)))

    maps = []
    for i in range(rng.randint(1, 3)):
        base_flags = (FLAG_IS_BASE_LAYER, FLAG_DEFAULT_BASE_LAYER) \
            if rng.random() < 0.5 else (FLAG_IS_BASE_LAYER,)
        refs = [LayerRef("base", base_flags, clause(rng, "visualization.LayerInMap"))]
        for name in rng.sample(layer_names, rng.randint(1, len(layer_names))):
            refs.append(LayerRef(name, (), clause(rng, "visualization.LayerInMap")))
        center = None
        if rng.random() < 0.6:
            def coord() -> tuple[float, float]:
                return (round(rng.uniform(-90, 90), 3),
                        round(rng.uniform(-180, 180), 3))
            center = BoundingBox((coord(), coord()))
        maps.append(MapDecl(f"map{i}", _display(rng), tuple(refs), center,
                            clause(rng, "visualization.Map")))

    product = ProductDecl("Prod", clause(rng, PRODUCT))
    return ProductSpec(tuple(entities), tuple(layers), tuple(maps), product)


def definition_clauses(definition: SplDefinition) -> ClauseDrawer:
    """A clause drawer that knows the definition: names come from the local
    model routed to the element's position (the first LOCAL line for that
    viewpoint.metaclass, as the resolver routes) or, for the product, from
    the global model. Now and then a clause adds a name from another model
    or one no model has. Positions that no local model is applied to seldom
    get a clause, so that clean products stay common."""
    functional = definition.functional
    pools: dict[str, list[str]] = {PRODUCT: sorted(functional.global_model.feature_names)}
    for decl in definition.applied_to:
        route = f"{decl.viewpoint}.{decl.metaclass}"
        if route not in pools:
            pools[route] = sorted(functional.locals[decl.local_model].feature_names)
    every = sorted(set().union(*pools.values()))

    def draw(rng: random.Random, route: str) -> FeatureClause | None:
        pool = pools.get(route)
        roll = rng.random()
        if roll < 0.35 or (pool is None and roll < 0.95):
            return None
        if roll < 0.42:
            return FeatureClause(())
        pool = pool or every
        names = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        roll = rng.random()
        others = [name for name in every if name not in pool]
        if roll < 0.08 and others:
            names.append(rng.choice(others))
        elif roll < 0.12:
            names.append(f"Unknown{rng.randrange(10)}")
        return FeatureClause(tuple(names))

    return draw


def scale_spec_text(copies: int = 1) -> str:
    """A large product specification with known feature demographics.

    107 entities (17 list-only indicators, 11 read-only context entities,
    79 fully editable), 150 layers each referenced by exactly one of 54 maps
    (8 maps with five layers, 18 with three, 28 with two), every layer bound
    with OpacitySelector and the eight big maps' layers also with
    StyleSelector. Clustering never appears. With copies > 1 each of these
    elements is declared once per copy c, its name suffixed with c<c>, all
    under one product.
    """
    indicators = "(List, Filterable)"
    context = "(Form, List, FormAccess, Filterable)"
    editable = "(Form, Creatable, Editable, List, FormAccess, Filterable)"
    parts = []
    for copy in range(copies):
        c = f"c{copy}" if copies > 1 else ""
        for i, clause in enumerate([indicators] * 17 + [context] * 11
                                   + [editable] * 79, start=1):
            parts.append(f"CREATE ENTITY E{i}{c} (\n"
                         f"    id Long IDENTIFIER\n"
                         f") WITH FEATURES {clause};\n")
        for i in range(1, 151):
            owner = (i - 1) % 107 + 1
            parts.append(f"CREATE GEOJSON LAYER L{i}{c} AS L{i} FOR E{owner}{c} "
                         f"WITH STYLES ( plain DEFAULT );\n")
        next_layer = 1
        for m, size in enumerate([5] * 8 + [3] * 18 + [2] * 28, start=1):
            refs = ["    baseLayer IS_BASE_LAYER DEFAULT_BASE_LAYER"]
            for _ in range(size):
                extra = ", StyleSelector" if m <= 8 else ""
                refs.append(f"    L{next_layer}{c} WITH FEATURES ( OpacitySelector{extra} )")
                next_layer += 1
            tail = " WITH FEATURES ( LayerManager, UserGeolocation );" if m <= 8 else ";"
            parts.append(f"CREATE MAP M{m}{c} AS M{m} WITH LAYERS (\n"
                         + ",\n".join(refs) + f"\n){tail}\n")
    parts.append("CREATE GIS Scale WITH FEATURES (TopMenu, UserManagement);\n")
    return "\n".join(parts)


_SOUP = (
    "CREATE", "ENTITY", "MAP", "GIS", "LAYER", "AS", "FOR", "WITH", "FEATURES",
    "LAYERS", "STYLES", "CENTER", "IDENTIFIER", "DISPLAY_STRING", "REQUIRED",
    "RELATIONSHIP", "MAPPED_BY", "BIDIRECTIONAL", "DEFAULT", "IS_BASE_LAYER",
    "DEFAULT_BASE_LAYER", "(", ")", "[", "]", "{", "}", ",", ";", "..", ".",
    "*", "name", "Hotel", "x1", "42", "-7.5", "0", "3.14",
)
_GARBAGE = "@#$%&!?^~|:<>=+'\"\\`"


def random_token_soup(rng: random.Random) -> str:
    """Random token sequence, occasionally salted with an illegal character."""
    parts = [rng.choice(_SOUP) for _ in range(rng.randint(1, 40))]
    if rng.random() < 0.15:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_GARBAGE))
    separator = rng.choice((" ", "  ", "\n", " \n "))
    return separator.join(parts)
