"""Feature models: trees of mandatory/optional features with xor/or groups,
cross-tree constraints, configuration validation, exhaustive enumeration, and
closure of partial selections.

A configuration is a plain frozenset of feature names. Validity follows the
usual tree semantics: the root is always selected, selection is parent-closed,
mandatory children of selected features are selected, xor groups have exactly
one selected child, or groups at least one, and requires/excludes constraints
hold. Features play no role when their parent is unselected.

Each model lays its tree out in preorder once, when it is built, and
lookups, validation, closure, enumeration and the multimodel's twin check
all read that one layout. Enumeration composes subtree configuration lists
bottom-up: a product over a feature's children, a union over an xor
group's, each constraint filtering at its endpoints' lowest common
ancestor. It composes integer masks over the model's rank layout
(the names in sorted order, rank r at bit n-1-r), sorts them by an integer
key equal to sorting the configurations by their sorted names, and builds
each result's frozenset once, at the end. Closure runs in passes from what
the previous pass added, the seeds and root at first: their parents in name
order, mandatory descendants of them and the new parents, then one requires
sweep in declaration order. That order decides which rule gets the credit.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Literal, NamedTuple

from .errors import (
    DanglingConstraintEndpoint,
    DuplicateFeatureName,
    GroupTooSmall,
    InvalidFeatureName,
    ModelTooLarge,
    SelfConstraint,
    UnknownFeature,
)
from .records import Record

Configuration = frozenset[str]

MANDATORY: Literal["mandatory"] = "mandatory"
OPTIONAL: Literal["optional"] = "optional"
XOR: Literal["xor"] = "xor"
OR: Literal["or"] = "or"
REQUIRES: Literal["requires"] = "requires"
EXCLUDES: Literal["excludes"] = "excludes"

class Feature(NamedTuple):
    """One node of a feature tree.

    Children of a grouped feature are always optional: the group decides how
    many of them a configuration may pick, so a per-child kind is meaningless.
    The root's own kind is likewise meaningless (the root is always selected).
    """

    name: str
    kind: Literal["mandatory", "optional"] = OPTIONAL
    group: Literal["xor", "or"] | None = None
    abstract: bool = False
    children: tuple[Feature, ...] = ()


class CrossTreeConstraint(NamedTuple):
    kind: Literal["requires", "excludes"]
    lhs: str
    rhs: str


def mandatory(name: str, *children: Feature,
              group: Literal["xor", "or"] | None = None,
              abstract: bool = False) -> Feature:
    return Feature(name, MANDATORY, group, abstract, tuple(children))


def optional(name: str, *children: Feature,
             group: Literal["xor", "or"] | None = None,
             abstract: bool = False) -> Feature:
    return Feature(name, OPTIONAL, group, abstract, tuple(children))


def requires(lhs: str, rhs: str) -> CrossTreeConstraint:
    return CrossTreeConstraint(REQUIRES, lhs, rhs)


def excludes(lhs: str, rhs: str) -> CrossTreeConstraint:
    return CrossTreeConstraint(EXCLUDES, lhs, rhs)


class FeatureModel(Record):
    """A validated feature tree plus cross-tree constraints.

    Instances come from build_feature_model, which enforces the structural
    invariants. The constructor lays the tree out in preorder: features[i]
    is the feature at position i and position maps each name back to i;
    parent[i] is the position of its parent, -1 for the root; and
    features[i:end[i]] is its subtree. feature_names holds position's keys.
    These are plain attributes, not fields: equality, hash and repr read
    root, constraints and name only.
    """

    root: Feature
    constraints: tuple[CrossTreeConstraint, ...]
    name: str
    features: tuple[Feature, ...]
    position: dict[str, int]
    parent: tuple[int, ...]
    end: tuple[int, ...]
    feature_names: frozenset[str]
    _fields = ("root", "constraints", "name")
    _compared = 3

    def __init__(self, root: Feature,
                 constraints: tuple[CrossTreeConstraint, ...] = (), name: str = ""):
        features: list[Feature] = []
        parent: list[int] = []
        stack: list[tuple[Feature, int]] = [(root, -1)]
        while stack:
            f, p = stack.pop()
            stack.extend((c, len(features)) for c in reversed(f.children))
            features.append(f)
            parent.append(p)
        position = {f.name: i for i, f in enumerate(features)}
        end = list(range(1, len(features) + 1))
        for i in range(len(features) - 1, 0, -1):
            end[parent[i]] = max(end[parent[i]], end[i])
        vars(self).update(root=root, constraints=constraints, name=name,
                          features=tuple(features), position=position, parent=tuple(parent),
                          end=tuple(end), feature_names=frozenset(position))

    @cached_property
    def rank_layout(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """The names in sorted order, and each feature's bit in a
        configuration mask, by preorder position. Rank r is bit n-1-r, so a
        mask's binary digits, padded to n, read the ranked names in order.
        Only enumeration reads it, so it is laid out on first enumeration."""
        ranked = tuple(sorted(self.position))
        bit_of = {name: 1 << r for r, name in enumerate(reversed(ranked))}
        return ranked, tuple(bit_of[f.name] for f in self.features)

    def iter_features(self) -> Iterator[Feature]:
        """Yield every feature in preorder."""
        return iter(self.features)

    def feature(self, name: str) -> Feature:
        try:
            return self.features[self.position[name]]
        except KeyError:
            raise UnknownFeature(
                f"model {self.name or self.root.name!r} has no feature {name!r}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self.position


def build_feature_model(root: Feature,
                        constraints: tuple[CrossTreeConstraint, ...] | list[CrossTreeConstraint] = (),
                        name: str = "") -> FeatureModel:
    """Validate a feature tree and constraints into a FeatureModel.

    Enforces: syntactically valid and model-wide unique feature names, xor/or
    groups with at least two children, constraint endpoints that exist and
    differ. Children of grouped features are normalized to optional kind, and
    the root to mandatory, since group and root semantics supersede per-node
    kinds.
    """
    root = _normalize(root, is_root=True)
    seen: set[str] = set()
    stack = [root]
    while stack:
        f = stack.pop()
        if not _is_feature_name(f.name):
            raise InvalidFeatureName(f"invalid feature name {f.name!r}", f.name)
        if f.name in seen:
            raise DuplicateFeatureName(f"duplicate feature name {f.name!r}", f.name)
        seen.add(f.name)
        if f.group is not None and len(f.children) < 2:
            raise GroupTooSmall(
                f"{f.group} group {f.name!r} has {len(f.children)} children, needs at least 2",
                f.name)
        stack.extend(f.children)

    constraints = tuple(constraints)
    for ct in constraints:
        if ct.lhs == ct.rhs:
            raise SelfConstraint(f"constraint {ct.kind} relates {ct.lhs!r} to itself",
                                 ct.lhs, ct)
        for endpoint in (ct.lhs, ct.rhs):
            if endpoint not in seen:
                raise DanglingConstraintEndpoint(
                    f"constraint endpoint {endpoint!r} is not a feature of the model",
                    endpoint, ct)

    return FeatureModel(root, constraints, name or root.name)


def _is_feature_name(name: str) -> bool:
    """What [A-Za-z][A-Za-z0-9_]*\\Z matches: an ASCII letter, then ASCII
    letters, digits and underscores. Checked with str methods, so that
    importing this module compiles no regex."""
    return name.isascii() and name[:1].isalpha() and name.replace("_", "").isalnum()


def _normalize(f: Feature, *, is_root: bool = False, in_group: bool = False) -> Feature:
    kind = MANDATORY if is_root else (OPTIONAL if in_group else f.kind)
    children = tuple(_normalize(c, in_group=f.group is not None) for c in f.children)
    if kind == f.kind and children == f.children:
        return f
    return Feature(f.name, kind, f.group, f.abstract, children)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class RuleViolation(NamedTuple):
    rule: str
    features: tuple[str, ...]
    message: str


class ValidationReport(NamedTuple):
    valid: bool
    violations: tuple[RuleViolation, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def validate_configuration(fm: FeatureModel, selected: Configuration | set[str]) -> ValidationReport:
    """Check a configuration against the model, reporting every violated rule.

    Raises UnknownFeature if the selection names features outside the model;
    an unknown name is a usage error, not an invalid configuration.
    """
    selected = frozenset(selected)
    unknown = selected - fm.feature_names
    if unknown:
        raise UnknownFeature(
            "selection names unknown features: " + ", ".join(sorted(unknown)))

    violations: list[RuleViolation] = []
    features, position, parent = fm.features, fm.position, fm.parent

    if fm.root.name not in selected:
        violations.append(RuleViolation(
            "root-missing", (fm.root.name,),
            f"root feature {fm.root.name!r} is not selected"))

    for name in sorted(selected):
        p = parent[position[name]]
        if p >= 0 and features[p].name not in selected:
            violations.append(RuleViolation(
                "parent-missing", (name, features[p].name),
                f"{name!r} is selected but its parent {features[p].name!r} is not"))

    for f in features:
        if f.name not in selected:
            continue
        if f.group is None:
            for c in f.children:
                if c.kind == MANDATORY and c.name not in selected:
                    violations.append(RuleViolation(
                        "mandatory-missing", (f.name, c.name),
                        f"mandatory child {c.name!r} of selected {f.name!r} is not selected"))
        else:
            picked = tuple(c.name for c in f.children if c.name in selected)
            if f.group == XOR and len(picked) != 1:
                violations.append(RuleViolation(
                    "xor-violation", (f.name,) + picked,
                    f"xor group {f.name!r} has {len(picked)} selected children, needs exactly 1"))
            elif f.group == OR and not picked:
                violations.append(RuleViolation(
                    "or-violation", (f.name,),
                    f"or group {f.name!r} has no selected children, needs at least 1"))

    for ct in fm.constraints:
        if ct.kind == REQUIRES and ct.lhs in selected and ct.rhs not in selected:
            violations.append(RuleViolation(
                "requires-violation", (ct.lhs, ct.rhs),
                f"{ct.lhs!r} requires {ct.rhs!r}, which is not selected"))
        elif ct.kind == EXCLUDES and ct.lhs in selected and ct.rhs in selected:
            violations.append(RuleViolation(
                "excludes-violation", (ct.lhs, ct.rhs),
                f"{ct.lhs!r} excludes {ct.rhs!r}, both are selected"))

    return ValidationReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def enumerate_configurations(fm: FeatureModel, max_features: int = 20) -> list[Configuration]:
    """All valid configurations, composed bottom-up over the tree.

    A feature's configurations are its name joined with the product of its
    children's lists, where an optional child also offers "not taken"; an
    or group drops the entry that takes no child, and an xor group unites
    its children's lists instead. Each cross-tree constraint filters the
    list at its endpoints' lowest common ancestor once the child holding
    the later endpoint is folded in (at an xor group, after the union), so
    no doomed partial selection is extended. Validity is re-derived from the
    tree semantics, not taken from validate_configuration, so the two check
    each other. The result is sorted by the sorted feature-name tuple.

    Partial configurations are int masks over the model's rank layout, so a
    product is s | t, a constraint tests two bits, and a deep chain copies
    no names. Sorting the masks by m.bit_count() - m - (m & -m) sorts the
    configurations as key=sorted does. Two sorted name lists first differ
    at the highest bit p where the masks differ; the one holding p comes
    first, unless the other holds nothing below p and is thus its prefix.
    Write them A = H | 1 << p | L and B = H | L' with L, L' < 1 << p. If
    L' = 0, B's lowest bit is above p and B's key is the smaller; else
    L' + (L' & -L') <= 1 << p and A's key is the smaller. Each mask becomes
    a frozenset once, through its binary digits; when the results outnumber
    the values that the two halves of a mask can take, each distinct half
    is decoded once and the halves united.
    """
    features, position, parent, end = fm.features, fm.position, fm.parent, fm.end
    ranked, bit = fm.rank_layout
    if len(features) > max_features:
        raise ModelTooLarge(
            f"model has {len(features)} features, enumeration capped at {max_features}")

    # Each constraint goes under the child of its endpoints' lowest common
    # ancestor whose subtree holds the later endpoint. A configuration
    # breaks it when its two bits read `broken`: lhs alone for requires,
    # both for excludes.
    checks: dict[int, list[tuple[int, int]]] = {}
    for kind, lhs, rhs in fm.constraints:
        earlier, c = sorted((position[lhs], position[rhs]))
        while not parent[c] <= earlier < end[parent[c]]:
            c = parent[c]
        lhs_bit = bit[position[lhs]]
        both = lhs_bit | bit[position[rhs]]
        checks.setdefault(c, []).append((both, lhs_bit if kind == REQUIRES else both))

    def check(found: list[int], c: int) -> list[int]:
        for both, broken in checks.get(c, ()):
            found = [s for s in found if s & both != broken]
        return found

    # Children come after their parent in preorder, so a backward sweep
    # folds every child before its parent; a leaf's list is its bit alone.
    configurations = [[b] for b in bit]
    for i in range(len(features) - 1, -1, -1):
        f = features[i]
        if not f.children:
            continue
        own, kids, c = bit[i], [], i + 1
        while c < end[i]:
            kids.append(c)
            c = end[c]
        if f.group == XOR:
            found = [own | s for c in kids for s in configurations[c]]
            for c in kids:
                found = check(found, c)
        else:
            found = [own]
            for c, child in zip(kids, f.children):
                product = [s | t for t in configurations[c] for s in found]
                found = product if f.group is None and child.kind == MANDATORY else found + product
                found = check(found, c)
            if f.group == OR:
                found = [s for s in found if s != own]
        configurations[i] = found

    masks = configurations[0]
    masks.sort(key=_trie_order)
    # bin(m | top) spells "0b1", then m's digits from rank 0 on. _DIGITS
    # makes "0" and "b" false and "1" true, so compress picks the names of
    # m's set bits, and for the leading "1" the root, which every
    # configuration holds.
    names, top = (features[0].name,) * 3 + ranked, 1 << len(features)
    half = len(features) // 2
    if len(masks) <= (1 << half) + (1 << len(features) - half):
        return _decode(masks, names, top)
    # More configurations than the two halves of a mask can spell: decode
    # each distinct half once and unite the halves of each configuration.
    low = (1 << half) - 1
    high = ~low
    halves = {m & high for m in masks} | {m & low for m in masks}
    decoded = dict(zip(halves, _decode(halves, names, top)))
    return [decoded[m & high] | decoded[m & low] for m in masks]


def _decode(masks: Iterable[int], names: tuple[str, ...], top: int) -> list[Configuration]:
    return [frozenset(compress(names, bin(m | top).encode().translate(_DIGITS)))
            for m in masks]


_DIGITS = bytes.maketrans(b"0b1", b"\0\0\1")


def _trie_order(m: int) -> int:
    """A key that sorts masks as key=sorted sorts their configurations."""
    return m.bit_count() - m - (m & -m)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------

class ClosureStep(NamedTuple):
    """Why a feature entered a closed selection."""

    cause: Literal["seed", "root", "parent", "mandatory", "requires"]
    of: str | None = None


def close_selection(fm: FeatureModel, seeds: Configuration | set[str]) -> Configuration:
    """Smallest superset of the seeds (plus the root) closed under parent
    inclusion, mandatory-child inclusion, and requires propagation.

    xor/or cardinalities and excludes constraints are not solved here; closing
    does not guarantee validity, so re-validate the result.
    """
    return close_selection_traced(fm, seeds)[0]


def close_selection_traced(
        fm: FeatureModel,
        seeds: Configuration | set[str]) -> tuple[Configuration, dict[str, ClosureStep]]:
    """close_selection plus, per feature, the first rule that pulled it in."""
    seeds = frozenset(seeds)
    unknown = seeds - fm.feature_names
    if unknown:
        raise UnknownFeature(
            "seed names unknown features: " + ", ".join(sorted(unknown)))

    features, position, parent = fm.features, fm.position, fm.parent
    steps: dict[str, ClosureStep] = {}
    for s in sorted(seeds):
        steps[s] = ClosureStep("seed")
    steps.setdefault(fm.root.name, ClosureStep("root"))

    added = list(steps)
    while added:
        queue = added.copy()  # then every feature this pass adds
        for name in sorted(added):
            p = parent[position[name]]
            if p >= 0 and features[p].name not in steps:
                steps[features[p].name] = ClosureStep("parent", name)
                queue.append(features[p].name)
        # features from before the last pass already have their mandatory children
        for name in queue:
            f = features[position[name]]
            if f.group is None:
                for c in f.children:
                    if c.kind == MANDATORY and c.name not in steps:
                        steps[c.name] = ClosureStep("mandatory", name)
                        queue.append(c.name)
        for kind, lhs, rhs in fm.constraints:
            if kind == REQUIRES and lhs in steps and rhs not in steps:
                steps[rhs] = ClosureStep("requires", lhs)
                queue.append(rhs)
        added = queue[len(added):]

    return frozenset(steps), steps
