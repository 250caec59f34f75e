"""Seeded random generators for property tests: feature models, product
specification ASTs, and token-soup fuzz inputs. Everything is a pure function
of the passed random.Random, so failures replay from the seed.

Also the brute-force configuration enumerator that the library's enumerator
is checked against."""

import random

from localfeatures.features import (
    EXCLUDES,
    MANDATORY,
    OPTIONAL,
    OR,
    REQUIRES,
    XOR,
    Configuration,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    build_feature_model,
)
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


def random_spec(rng: random.Random) -> ProductSpec:
    """A random well-formed ProductSpec AST. Only syntactic validity is
    guaranteed; names need not resolve (round-trip tests never resolve)."""
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
        entities.append(EntityDecl(name, tuple(properties), _clause(rng)))

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
        refs = [LayerRef("base", base_flags, _clause(rng))]
        for name in rng.sample(layer_names, rng.randint(1, len(layer_names))):
            refs.append(LayerRef(name, (), _clause(rng)))
        center = None
        if rng.random() < 0.6:
            def coord() -> tuple[float, float]:
                return (round(rng.uniform(-90, 90), 3),
                        round(rng.uniform(-180, 180), 3))
            center = BoundingBox((coord(), coord()))
        maps.append(MapDecl(f"map{i}", _display(rng), tuple(refs), center,
                            _clause(rng)))

    product = ProductDecl("Prod", _clause(rng))
    return ProductSpec(tuple(entities), tuple(layers), tuple(maps), product)


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
