"""Feature models: trees of mandatory/optional features with xor/or groups,
cross-tree constraints, configuration validation, exhaustive enumeration, and
closure of partial selections.

A configuration is a plain frozenset of feature names. Validity follows the
usual tree semantics: the root is always selected, selection is parent-closed,
mandatory children of selected features are selected, xor groups have exactly
one selected child, or groups at least one, and requires/excludes constraints
hold. Features play no role when their parent is unselected.

Each model's index, laid out once, serves lookups, closure and enumeration;
validate_configuration reads only the tree. Closure runs in passes from what
the previous pass added, the seeds and root at first: their parents in name
order, mandatory descendants of them and the new parents, then one requires
sweep in declaration order. That order decides which rule gets the credit.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import compress
from typing import Iterator, Literal, NamedTuple

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

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


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
    invariants; index lays the tree out in preorder once, on first use.
    """

    root: Feature
    constraints: tuple[CrossTreeConstraint, ...]
    name: str
    _fields = ("root", "constraints", "name")
    _compared = 3

    def __init__(self, root: Feature,
                 constraints: tuple[CrossTreeConstraint, ...] = (), name: str = ""):
        vars(self).update(root=root, constraints=constraints, name=name)

    @cached_property
    def index(self) -> FeatureIndex:
        features: list[Feature] = []
        parent: list[int] = []
        stack: list[tuple[Feature, int]] = [(self.root, -1)]
        while stack:
            f, p = stack.pop()
            stack.extend((c, len(features)) for c in reversed(f.children))
            features.append(f)
            parent.append(p)
        position = {f.name: i for i, f in enumerate(features)}
        n = len(features)
        end = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            end[parent[i]] = max(end[parent[i]], end[i])
        rule = [_FORCED] * n
        last = [False] * n
        earlier: list[tuple[int, ...]] = [()] * n
        for f in features:
            kids = [position[c.name] for c in f.children]
            for k, (i, c) in enumerate(zip(kids, f.children)):
                if f.group is None:
                    rule[i] = _FORCED if c.kind == MANDATORY else _FREE
                else:
                    rule[i] = _XOR if f.group == XOR else _FREE
                    last[i] = k == len(kids) - 1
                    earlier[i] = tuple(kids[:k])

        needs: list[list[int]] = [[] for _ in range(n)]
        forbids: list[list[int]] = [[] for _ in range(n)]
        skip_forbids: list[list[int]] = [[] for _ in range(n)]
        for ct in self.constraints:
            lhs, rhs = position[ct.lhs], position[ct.rhs]
            if ct.kind == EXCLUDES:
                forbids[max(lhs, rhs)].append(min(lhs, rhs))
            elif lhs > rhs:
                needs[lhs].append(rhs)
            else:
                # rhs is dropped with any subtree holding it; a subtree rooted
                # after lhs cannot hold lhs, which must then be unselected
                i = rhs
                while i > lhs:
                    skip_forbids[i].append(lhs)
                    i = parent[i]
        requires = tuple((ct.lhs, ct.rhs) for ct in self.constraints if ct.kind == REQUIRES)
        return FeatureIndex(
            tuple(features), position, tuple(parent), tuple(end), requires,
            tuple(rule), tuple(last), tuple(earlier), tuple(map(tuple, needs)),
            tuple(map(tuple, forbids)), tuple(map(tuple, skip_forbids)))

    @cached_property
    def feature_names(self) -> frozenset[str]:
        return frozenset(self.index.position)

    def iter_features(self) -> Iterator[Feature]:
        """Yield every feature in preorder."""
        return iter(self.index.features)

    def feature(self, name: str) -> Feature:
        try:
            return self.index.features[self.index.position[name]]
        except KeyError:
            raise UnknownFeature(
                f"model {self.name or self.root.name!r} has no feature {name!r}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self.index.position


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
        if not _NAME_RE.match(f.name):
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


def _normalize(f: Feature, *, is_root: bool = False, in_group: bool = False) -> Feature:
    kind = MANDATORY if is_root else (OPTIONAL if in_group else f.kind)
    children = tuple(_normalize(c, in_group=f.group is not None) for c in f.children)
    if kind == f.kind and children == f.children:
        return f
    return Feature(f.name, kind, f.group, f.abstract, children)


# How enumerate_configurations decides a feature whose parent is selected.
# A group's last child is selected when no earlier sibling is.
_FORCED = 0   # the root or a mandatory child: selected
_FREE = 1     # an optional or an or-group child: either way
_XOR = 2      # an xor-group child: unselected once an earlier sibling is


class FeatureIndex(NamedTuple):
    """A feature model's tree facts, by preorder position.

    A feature's subtree occupies positions [i, end[i]), and requires holds
    the requires constraints as (lhs, rhs) names in declaration order. For
    enumerate_configurations, grouped children list their earlier siblings
    and last marks a group's final child. Each cross-tree constraint is
    checked when its second endpoint is decided: selecting a feature needs
    some earlier positions selected and forbids others, and dropping a
    subtree forbids the left sides of requires whose right sides it holds.
    """

    features: tuple[Feature, ...]
    position: dict[str, int]
    parent: tuple[int, ...]
    end: tuple[int, ...]
    requires: tuple[tuple[str, str], ...]
    rule: tuple[int, ...]
    last: tuple[bool, ...]
    earlier: tuple[tuple[int, ...], ...]
    needs: tuple[tuple[int, ...], ...]
    forbids: tuple[tuple[int, ...], ...]
    skip_forbids: tuple[tuple[int, ...], ...]


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
    parent_of = {c.name: f.name for f in fm.iter_features() for c in f.children}

    if fm.root.name not in selected:
        violations.append(RuleViolation(
            "root-missing", (fm.root.name,),
            f"root feature {fm.root.name!r} is not selected"))

    for name in sorted(selected):
        parent = parent_of.get(name)
        if parent is not None and parent not in selected:
            violations.append(RuleViolation(
                "parent-missing", (name, parent),
                f"{name!r} is selected but its parent {parent!r} is not"))

    for f in fm.iter_features():
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
    """All valid configurations, by backtracking over the tree.

    Features are decided one at a time in preorder, each with its parent
    already selected: the root and mandatory children are forced, an
    unselected feature drops its whole subtree in one step, an xor group
    takes exactly one child and an or group at least one (the last undecided
    child is forced when the group still needs it), and each cross-tree
    constraint is checked as soon as both of its endpoints are decided.
    Validity is re-derived here from the tree semantics instead of delegating
    to validate_configuration, so the two routes check each other.
    Deterministic: the result is sorted by the sorted feature-name tuple.
    """
    index = fm.index
    names = [f.name for f in index.features]
    n = len(names)
    if n > max_features:
        raise ModelTooLarge(
            f"model has {n} features, enumeration capped at {max_features}")

    end, rule, last, earlier = index.end, index.rule, index.last, index.earlier
    needs, forbids, skip_forbids = index.needs, index.forbids, index.skip_forbids
    sel = [False] * n
    unselected = [False] * n
    found: list[Configuration] = []
    # Each entry is a position and the decision still to try there, under
    # the decisions that sel holds for every earlier position.
    stack: list[tuple[int, bool]] = [(0, True)]
    while stack:
        i, take = stack.pop()
        while True:
            if take:
                if (any(not sel[j] for j in needs[i])
                        or any(sel[j] for j in forbids[i])):
                    break
                sel[i] = True
                i += 1
            else:
                if any(sel[j] for j in skip_forbids[i]):
                    break
                sel[i:end[i]] = unselected[i:end[i]]
                i = end[i]
            if i == n:
                found.append(frozenset(compress(names, sel)))
                break
            r = rule[i]
            taken = any(sel[j] for j in earlier[i])
            if r == _XOR and taken:
                take = False
            elif r == _FORCED or (last[i] and not taken):
                take = True
            else:
                stack.append((i, False))
                take = True
    found.sort(key=sorted)
    return found


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

    index = fm.index
    features, position, parent = index.features, index.position, index.parent
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
        for lhs, rhs in index.requires:
            if lhs in steps and rhs not in steps:
                steps[rhs] = ClosureStep("requires", lhs)
                queue.append(rhs)
        added = queue[len(added):]

    return frozenset(steps), steps
