"""Seeded input generators for the benchmark.

Every generator is a pure function of a random.Random, so one seed gives the
same texts. The generators use only the standard library: the program under
test sees nothing but the text they write, and the expected results they
return come from the generators' own knowledge of what they wrote, never from
the package. Sizes are fixed per workload and only shapes and names depend on
the seed, so the work a run measures does not change from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Feature trees and an independent enumerator
# ---------------------------------------------------------------------------


@dataclass
class Node:
    name: str
    mandatory: bool = False
    group: str | None = None  # "XOR", "OR" or None
    children: list["Node"] = field(default_factory=list)


@dataclass
class Tree:
    root: Node
    requires: list[tuple[str, str]] = field(default_factory=list)
    excludes: list[tuple[str, str]] = field(default_factory=list)


def _selections(node: Node) -> list[frozenset[str]]:
    """Every feature set of the subtree below a selected node, by tree
    semantics alone (groups, mandatory children); constraints come later."""
    per_child = []
    for child in node.children:
        inner = _selections(child)
        if node.group is None and child.mandatory:
            per_child.append(inner)
        else:
            per_child.append([frozenset()] + inner)
    found = []
    for combo in itertools.product(*per_child):
        picked = sum(1 for part in combo if part)
        if node.group == "XOR" and picked != 1:
            continue
        if node.group == "OR" and picked == 0:
            continue
        found.append(frozenset({node.name}).union(*combo))
    return found


def configurations(tree: Tree) -> list[frozenset[str]]:
    """All valid configurations, built top-down from the tree instead of by
    the package's subset scan, sorted as the package sorts them."""
    found = [c for c in _selections(tree.root)
             if all(a not in c or b in c for a, b in tree.requires)
             and all(a not in c or b not in c for a, b in tree.excludes)]
    found.sort(key=sorted)
    return found


def tree_names(tree: Tree) -> list[str]:
    names, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        names.append(node.name)
        stack.extend(node.children)
    return names


def parents(tree: Tree) -> dict[str, str]:
    out, stack = {}, [tree.root]
    while stack:
        node = stack.pop()
        for child in node.children:
            out[child.name] = node.name
            stack.append(child)
    return out


def _random_tree(rng: random.Random, root: str, size: int,
                 min_configs: int, max_configs: int) -> Tree:
    """A random tree of exactly `size` features with groups and constraints,
    redrawn until its configuration count lies in the given range."""
    while True:
        nodes = [Node(root)] + [Node(f"{root}f{i}") for i in range(1, size)]
        for i in range(1, size):
            open_parents = [n for n in nodes[:i] if len(n.children) < 4]
            parent = rng.choice(open_parents)
            parent.children.append(nodes[i])
        for node in nodes:
            if len(node.children) >= 2:
                roll = rng.random()
                node.group = "XOR" if roll < 0.35 else "OR" if roll < 0.55 else None
        for node in nodes:
            if node.group is None:
                for child in node.children:
                    child.mandatory = rng.random() < 0.2
        tree = Tree(nodes[0])
        lineage = parents(tree)

        def related(a: str, b: str) -> bool:
            for x, y in ((a, b), (b, a)):
                while x in lineage:
                    x = lineage[x]
                    if x == y:
                        return True
            return False

        for bucket in (tree.requires, tree.excludes):
            a, b = rng.sample([n.name for n in nodes[1:]], 2)
            if not related(a, b):
                bucket.append((a, b))
        if min_configs <= len(configurations(tree)) <= max_configs:
            return tree


def _node_lines(node: Node, depth: int, in_group: bool, lines: list[str]) -> None:
    head = "    " * depth
    if not in_group:
        head += "MANDATORY " if node.mandatory else "OPTIONAL "
    head += node.name + (f" {node.group}" if node.group else "")
    if not node.children:
        lines.append(head)
        return
    lines.append(head + " {")
    for child in node.children:
        _node_lines(child, depth + 1, node.group is not None, lines)
    lines.append("    " * depth + "}")


def model_block(tree: Tree, extra_children: list[str] = (),
                copies: list[Tree] = ()) -> str:
    """FEATUREMODEL text for a tree; `copies` are local trees repeated under
    mandatory children of the same name, with their constraints."""
    root = tree.root
    lines = [f"FEATUREMODEL {root.name}" + (f" {root.group}" if root.group else "") + " {"]
    for copy in copies:
        copied = Node(copy.root.name, True, copy.root.group, copy.root.children)
        _node_lines(copied, 1, False, lines)
    for child in root.children:
        _node_lines(child, 1, root.group is not None, lines)
    lines.extend(extra_children)
    for source in [tree, *copies]:
        lines += [f"    REQUIRES {a} {b}" for a, b in source.requires]
        lines += [f"    EXCLUDES {a} {b}" for a, b in source.excludes]
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# large-product: the criterion-5 scale product, k renamed copies
# ---------------------------------------------------------------------------

INDICATOR = ("List", "Filterable")
CONTEXT = ("Form", "List", "FormAccess", "Filterable")
EDITABLE = ("Form", "Creatable", "Editable", "List", "FormAccess", "Filterable")

# Per copy: hand-counted from the demographics below (17 indicator, 11 context
# and 79 editable entities; 150 layers, one OpacitySelector clause each, the
# 40 layers of the 8 five-layer maps also StyleSelector; those 8 of 54 maps
# with LayerManager and UserGeolocation; Clustering never chosen). Every
# element carries its local root, bound or defaulted: 107 entities, 54 maps,
# 204 layer references (150 layers plus one base layer per map).
SCALE_COUNTS = {"Form": 90, "Creatable": 79, "Editable": 79, "Filterable": 107,
                "LayerManager": 8, "UserGeolocation": 8, "Clustering": 0,
                "OpacitySelector": 150, "MapFeature": 54, "List": 107,
                "FormAccess": 90, "StyleSelector": 40, "EntityFeature": 107,
                "LayerFeature": 204}
SCALE_ELEMENTS = 107 + 54 + 150 + 54
SCALE_INCLUDED = sorted({"GIS_SPL", "EntityFeature", "MapFeature", "LayerFeature",
                         "Menu", "TopMenu", "UserManagement", "LayerManager",
                         "UserGeolocation", "OpacitySelector", "StyleSelector",
                         *EDITABLE})


def scale_spec(k: int, rng: random.Random) -> str:
    """k copies of the scale product, copy c naming its elements E<i>c<c>,
    L<i>c<c> and M<i>c<c>. The seed shuffles which entity gets which clause
    and which map gets which size; the per-feature counts stay fixed."""
    parts = []
    for c in range(k):
        clauses = [INDICATOR] * 17 + [CONTEXT] * 11 + [EDITABLE] * 79
        rng.shuffle(clauses)
        for i, clause in enumerate(clauses, start=1):
            parts.append(f"CREATE ENTITY E{i}c{c} (\n    id Long IDENTIFIER\n"
                         f") WITH FEATURES ({', '.join(clause)});\n")
        for i in range(1, 151):
            owner = (i - 1) % 107 + 1
            parts.append(f"CREATE GEOJSON LAYER L{i}c{c} AS L{i} FOR E{owner}c{c} "
                         "WITH STYLES ( plain DEFAULT );\n")
        sizes = [5] * 8 + [3] * 18 + [2] * 28
        rng.shuffle(sizes)
        next_layer = 1
        for m, size in enumerate(sizes, start=1):
            big = size == 5
            refs = ["    baseLayer IS_BASE_LAYER DEFAULT_BASE_LAYER"]
            for _ in range(size):
                extra = ", StyleSelector" if big else ""
                refs.append(f"    L{next_layer}c{c} WITH FEATURES ( OpacitySelector{extra} )")
                next_layer += 1
            tail = " WITH FEATURES ( LayerManager, UserGeolocation );" if big else ";"
            parts.append(f"CREATE MAP M{m}c{c} AS M{m} WITH LAYERS (\n"
                         + ",\n".join(refs) + f"\n){tail}\n")
    parts.append("CREATE GIS Scale WITH FEATURES (TopMenu, UserManagement);\n")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# many-products: generated definitions and a stream of products against them
# ---------------------------------------------------------------------------

LOCAL_SIZES = {"Ent": 14, "Map": 10, "Lay": 11}
ROUTES = {"Ent": "data.Entity", "Map": "visualization.Map",
          "Lay": "visualization.LayerInMap"}
ERROR_KINDS = ("unknown-feature", "invalid-selection", "unknown-layer", "unknown-entity")


@dataclass
class Definition:
    name: str
    text: str
    locals: dict[str, Tree]            # "Ent"/"Map"/"Lay" -> tree
    configs: dict[str, list[frozenset[str]]]
    defaults: dict[str, frozenset[str]]
    globals_: list[str]


@dataclass
class Product:
    name: str
    definition: int
    text: str
    effective: dict[str, frozenset[str]]
    codes: tuple[str, ...]


def _has_xor_pair(tree: Tree) -> tuple[str, str] | None:
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.group == "XOR":
            return node.children[0].name, node.children[1].name
        stack.extend(node.children)
    return None


def definition(d: int, rng: random.Random) -> Definition:
    locals_: dict[str, Tree] = {}
    for kind, size in LOCAL_SIZES.items():
        while True:
            tree = _random_tree(rng, f"{kind}{d}", size, 40, 4000)
            if _has_xor_pair(tree):
                break
        locals_[kind] = tree
    configs = {kind: configurations(tree) for kind, tree in locals_.items()}
    defaults = {kind: rng.choice(found) for kind, found in configs.items()}
    globals_ = [f"Extra{d}a", f"Extra{d}b", f"Light{d}", f"Dark{d}"]
    blocks = ["VIEWPOINT data (Entity);",
              "VIEWPOINT visualization (Map, Layer, LayerInMap);",
              model_block(Tree(Node(f"Line{d}")),
                          [f"    OPTIONAL Extra{d}a", f"    OPTIONAL Extra{d}b",
                           f"    OPTIONAL Theme{d} XOR {{", f"        Light{d}",
                           f"        Dark{d}", "    }"],
                          list(locals_.values()))]
    blocks += [model_block(tree) for tree in locals_.values()]
    blocks += [f"LOCAL {tree.root.name} APPLIED TO {ROUTES[kind]};"
               for kind, tree in locals_.items()]
    seeds = sorted(set().union(*defaults.values()))
    blocks.append(f"DEFAULTS ({', '.join(seeds)});")
    return Definition(f"line{d}.spl", "\n\n".join(blocks) + "\n", locals_,
                      configs, defaults, globals_)


def _clause(config: frozenset[str], tree: Tree) -> list[str]:
    """The configuration minus every feature the parent rule puts back: a
    feature with a selected child, and the root."""
    lineage = parents(tree)
    implied = {lineage[name] for name in config if name in lineage}
    return sorted(config - implied - {tree.root.name})


def products(count: int, defs: list[Definition], rng: random.Random) -> list[Product]:
    """Products of fixed sizes. Bound elements draw distinct valid
    configurations until a model runs out; every fifth product carries one
    injected semantic error with a known diagnostic code."""
    pools = {(d, kind): [] for d in range(len(defs)) for kind in LOCAL_SIZES}
    out = []
    for i in range(count):
        d = i % len(defs)
        definition = defs[d]

        def draw(kind: str) -> frozenset[str]:
            pool = pools[(d, kind)]
            if not pool:
                pool.extend(definition.configs[kind])
                rng.shuffle(pool)
            return pool.pop()

        def clause_text(kind: str, config: frozenset[str]) -> str:
            names = _clause(config, definition.locals[kind])
            return f" WITH FEATURES ({', '.join(names)})"

        error = ERROR_KINDS[(i // 5) % len(ERROR_KINDS)] if i % 5 == 4 else None
        name = f"P{i}"
        entities = 3 + (i * 7) % 22
        n_maps = 1 + entities // 4
        effective: dict[str, frozenset[str]] = {}
        parts = []
        for j in range(entities):
            qname = f"data.{name}e{j}"
            clause = ""
            if j % 4 != 3:
                config = draw("Ent")
                clause = clause_text("Ent", config)
                effective[qname] = config
            else:
                effective[qname] = definition.defaults["Ent"]
            if error == "unknown-feature" and j == 0:
                stray = rng.choice(tree_names(definition.locals["Map"])[1:])
                clause = f" WITH FEATURES ({stray})"
                effective[qname] = definition.defaults["Ent"]
            elif error == "invalid-selection" and j == 0:
                a, b = _has_xor_pair(definition.locals["Ent"])
                clause = f" WITH FEATURES ({a}, {b})"
                effective[qname] = definition.defaults["Ent"]
            parts.append(f"CREATE ENTITY {name}e{j} (\n    id Long IDENTIFIER,\n"
                         f"    label String DISPLAY_STRING REQUIRED\n){clause};\n")
        for j in range(entities):
            owner = f"{name}e{j}"
            if error == "unknown-entity" and j == 0:
                owner = f"{name}ghost"
            parts.append(f"CREATE GEOJSON LAYER {name}l{j} AS Layer {j} FOR {owner} "
                         "WITH STYLES ( plain DEFAULT, bold );\n")
        for m in range(n_maps):
            qmap = f"visualization.{name}m{m}"
            refs = ["    base IS_BASE_LAYER DEFAULT_BASE_LAYER"]
            effective[f"{qmap}.base"] = definition.defaults["Lay"]
            for j in range(m, entities, n_maps):
                ref = f"    {name}l{j}"
                if (j + m) % 3 != 2:
                    config = draw("Lay")
                    ref += clause_text("Lay", config)
                    effective[f"{qmap}.{name}l{j}"] = config
                else:
                    effective[f"{qmap}.{name}l{j}"] = definition.defaults["Lay"]
                refs.append(ref)
            if error == "unknown-layer" and m == 0:
                refs.append(f"    {name}missing")
                effective[f"{qmap}.{name}missing"] = definition.defaults["Lay"]
            tail = ""
            if m % 2 == 0:
                config = draw("Map")
                tail = clause_text("Map", config)
                effective[qmap] = config
            else:
                effective[qmap] = definition.defaults["Map"]
            parts.append(f"CREATE MAP {name}m{m} AS Map {m} WITH LAYERS (\n"
                         + ",\n".join(refs) + f"\n){tail};\n")
        chosen = rng.sample(definition.globals_[:2], rng.randint(0, 2))
        product_clause = f" WITH FEATURES ({', '.join(chosen)})" if chosen else ""
        parts.append(f"CREATE GIS {name}{product_clause};\n")
        out.append(Product(name, d, "\n".join(parts), effective,
                           (error,) if error else ()))
    return out


# ---------------------------------------------------------------------------
# feature-analysis: random standalone feature models
# ---------------------------------------------------------------------------

ANALYSIS_SIZES = (14,) * 8


def _renamed(tree: Tree, rng: random.Random) -> Tree:
    """The same tree with every feature below the root renamed: a seeded
    prefix and a seeded permutation of the numbers."""
    names = [n for n in tree_names(tree) if n != tree.root.name]
    prefix = "".join(rng.choice("abcdeghjkmnpqrstuvwxyz") for _ in range(3))
    numbers = rng.sample(range(1, len(names) + 1), len(names))
    new = {old: f"{tree.root.name}{prefix}{k}" for old, k in zip(names, numbers)}
    new[tree.root.name] = tree.root.name

    def copy(node: Node) -> Node:
        return Node(new[node.name], node.mandatory, node.group,
                    [copy(child) for child in node.children])

    return Tree(copy(tree.root), [(new[a], new[b]) for a, b in tree.requires],
                [(new[a], new[b]) for a, b in tree.excludes])


def analysis_models(rng: random.Random) -> list[tuple[str, str, list[frozenset[str]]]]:
    """(file name, definition text, expected configurations) per model.

    The subset scan's cost depends on a model's shape: how early a subset
    is rejected and how many configurations are sorted. So the shapes come
    from a fixed generator, the same for every seed, and the seed renames
    their features; every seed then asks for the same enumeration work."""
    out = []
    for j, size in enumerate(ANALYSIS_SIZES):
        shape = _random_tree(random.Random(1000 + j), f"R{j}", size, 1, 1 << size)
        tree = _renamed(shape, rng)
        out.append((f"random{j}.spl", model_block(tree) + "\n", configurations(tree)))
    return out


# ---------------------------------------------------------------------------
# cli-session: the packaged product, an x1 scale product, a broken spec
# ---------------------------------------------------------------------------


def broken_spec(webeiel: str, rng: random.Random) -> str:
    """The packaged product with one unknown feature in an entity clause and
    one map reference to an undeclared layer."""
    stray = f"Sidebar{rng.randrange(1000)}"
    missing = f"ghostLayer{rng.randrange(1000)}"
    text = webeiel.replace("(Form, List, FormAccess, Filterable)",
                           f"(Form, List, {stray})", 1)
    return text.replace("    municipalitiesLayer,\n",
                        f"    municipalitiesLayer,\n    {missing},\n", 1)
