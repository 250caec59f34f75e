"""Feature model construction, configuration validation, enumeration, closure."""

import itertools
import random
import re
import time

import pytest

from localfeatures import (
    build_feature_model,
    close_selection,
    close_selection_traced,
    enumerate_configurations,
    excludes,
    mandatory,
    optional,
    requires,
    validate_configuration,
)
from localfeatures.errors import (
    DanglingConstraintEndpoint,
    DuplicateFeatureName,
    GroupTooSmall,
    InvalidFeatureName,
    ModelTooLarge,
    SelfConstraint,
    UnknownFeature,
)
from localfeatures.features import (
    MANDATORY,
    OPTIONAL,
    OR,
    XOR,
    CrossTreeConstraint,
    Feature,
    _trie_order,
)
from localfeatures.spldef import MAX_FEATURE_DEPTH, parse_spl_definition

from generators import (
    brute_force_configurations,
    nested_spl,
    random_feature_model,
    reference_close_selection_traced,
)


def gis_tree():
    """The 18-feature GIS tree used throughout: every leaf optional, one xor
    menu group, FormAccess requires Form."""
    return build_feature_model(
        mandatory(
            "GIS_SPL",
            optional("Entity",
                     optional("Form", optional("Creatable"), optional("Editable")),
                     optional("List", optional("FormAccess"), optional("Filterable"))),
            optional("MapViewer",
                     optional("UserGeolocation"),
                     optional("Clustering"),
                     optional("LayerManager",
                              optional("StyleSelector"),
                              optional("OpacitySelector"))),
            optional("Menu", optional("TopMenu"), optional("LeftMenu"), group=XOR),
            optional("CSVImporter"),
            optional("UserManagement")),
        (requires("FormAccess", "Form"),))


def parents(fm):
    """Each feature's parent name (None for the root), read off the tree."""
    found = {fm.root.name: None}
    for f in fm.iter_features():
        for c in f.children:
            found[c.name] = f.name
    return found


def toy_model(constraints=()):
    # R with optional A and mandatory B carrying an xor group {C, D}
    return build_feature_model(
        mandatory("R",
                  optional("A"),
                  mandatory("B", optional("C"), optional("D"), group=XOR)),
        constraints)


# -- construction -------------------------------------------------------------

def test_gis_tree_has_eighteen_features_under_the_root():
    fm = gis_tree()
    assert len(fm.feature_names - {fm.root.name}) == 18


def test_single_root_model_is_valid():
    fm = build_feature_model(optional("Only"))
    assert fm.feature_names == {"Only"}
    assert fm.root.kind == MANDATORY


def test_duplicate_feature_name_rejected():
    with pytest.raises(DuplicateFeatureName):
        build_feature_model(mandatory("R", optional("Form"), optional("Form")))


def test_duplicate_name_across_levels_rejected():
    with pytest.raises(DuplicateFeatureName):
        build_feature_model(mandatory("R", optional("A", optional("R"))))


def test_feature_names_are_what_the_name_pattern_matches():
    pattern = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
    rng = random.Random(17)
    alphabet = "aZ09_ -.\n\té²"
    names = ["".join(rng.choices(alphabet, k=rng.randrange(4))) for _ in range(3000)]
    for name in names:
        try:
            build_feature_model(mandatory("Root", optional(name)))
        except (InvalidFeatureName, DuplicateFeatureName):
            assert not pattern.match(name) or name == "Root", repr(name)
        else:
            assert pattern.match(name), repr(name)


@pytest.mark.parametrize("name", ["9lives", "", "has space", "dash-ed", "dot.ted"])
def test_invalid_feature_name_rejected(name):
    with pytest.raises(InvalidFeatureName):
        build_feature_model(mandatory("R", optional(name)))


def test_group_needs_at_least_two_children():
    with pytest.raises(GroupTooSmall):
        build_feature_model(mandatory("R", optional("G", optional("A"), group=XOR)))


def test_dangling_constraint_endpoint_rejected():
    with pytest.raises(DanglingConstraintEndpoint):
        build_feature_model(mandatory("R", optional("A")), (requires("A", "Nope"),))


def test_self_constraint_rejected():
    with pytest.raises(SelfConstraint):
        build_feature_model(mandatory("R", optional("A")), (excludes("A", "A"),))


def test_grouped_children_normalized_to_optional():
    fm = build_feature_model(
        mandatory("R", mandatory("G", mandatory("A"), mandatory("B"), group=XOR)))
    group = fm.feature("G")
    assert all(c.kind == OPTIONAL for c in group.children)


def test_root_normalized_to_mandatory():
    assert build_feature_model(optional("R")).root.kind == MANDATORY


def test_model_lookup_helpers():
    fm = gis_tree()
    assert "Clustering" in fm
    assert "Nope" not in fm
    assert fm.feature("Menu").group == XOR
    assert parents(fm)["FormAccess"] == "List"
    assert parents(fm)["GIS_SPL"] is None
    assert {f.name: fm.features[p].name if p >= 0 else None
            for f, p in zip(fm.features, fm.parent)} == parents(fm)
    assert fm.features[fm.position["Menu"]] is fm.feature("Menu")
    with pytest.raises(UnknownFeature):
        fm.feature("Nope")


# -- validation ---------------------------------------------------------------

def test_requires_violation_reported():
    fm = gis_tree()
    report = validate_configuration(
        fm, {"GIS_SPL", "Entity", "List", "FormAccess", "Filterable"})
    assert not report.valid
    assert [v.rule for v in report.violations] == ["requires-violation"]
    assert report.violations[0].features == ("FormAccess", "Form")


def test_xor_violation_reported():
    fm = gis_tree()
    report = validate_configuration(fm, {"GIS_SPL", "Menu", "TopMenu", "LeftMenu"})
    assert not report.valid
    assert "xor-violation" in [v.rule for v in report.violations]


def test_root_alone_is_valid_when_nothing_is_mandatory():
    fm = gis_tree()
    assert validate_configuration(fm, {"GIS_SPL"}).valid


@pytest.mark.parametrize("tree,constraints,cfg,rule", [
    (mandatory("R", optional("A")), (), {"A"}, "root-missing"),
    (mandatory("R", optional("A", optional("B"))), (), {"R", "B"}, "parent-missing"),
    (mandatory("R", mandatory("A")), (), {"R"}, "mandatory-missing"),
    (mandatory("R", optional("A"), optional("B"), group=XOR), (), {"R"}, "xor-violation"),
    (mandatory("R", optional("A"), optional("B"), group="or"), (), {"R"}, "or-violation"),
    (mandatory("R", optional("A"), optional("B")), (requires("A", "B"),),
     {"R", "A"}, "requires-violation"),
    (mandatory("R", optional("A"), optional("B")), (excludes("A", "B"),),
     {"R", "A", "B"}, "excludes-violation"),
])
def test_each_validation_rule_fires(tree, constraints, cfg, rule):
    fm = build_feature_model(tree, constraints)
    report = validate_configuration(fm, cfg)
    assert not report.valid
    assert rule in [v.rule for v in report.violations]


def test_invalid_report_lists_every_violation():
    fm = build_feature_model(
        mandatory("R", mandatory("A"), optional("B"), optional("C")),
        (excludes("B", "C"),))
    report = validate_configuration(fm, {"R", "B", "C"})
    rules = sorted(v.rule for v in report.violations)
    assert rules == ["excludes-violation", "mandatory-missing"]


def test_validation_report_is_truthy_only_when_valid():
    fm = toy_model()
    assert validate_configuration(fm, {"R", "B", "C"})
    assert not validate_configuration(fm, {"R"})


def test_unknown_selection_name_raises_instead_of_reporting():
    with pytest.raises(UnknownFeature):
        validate_configuration(toy_model(), {"R", "Nope"})


# -- enumeration --------------------------------------------------------------

def test_toy_model_has_exactly_four_configurations():
    configs = enumerate_configurations(toy_model())
    assert configs == [
        frozenset({"R", "A", "B", "C"}),
        frozenset({"R", "A", "B", "D"}),
        frozenset({"R", "B", "C"}),
        frozenset({"R", "B", "D"}),
    ]


def test_excludes_constraint_removes_one_configuration():
    configs = enumerate_configurations(toy_model((excludes("A", "C"),)))
    assert len(configs) == 3
    assert frozenset({"R", "A", "B", "C"}) not in configs


def test_single_root_model_enumerates_one_configuration():
    fm = build_feature_model(mandatory("R"))
    assert enumerate_configurations(fm) == [frozenset({"R"})]


def test_enumeration_is_deterministic_and_sorted():
    fm = toy_model()
    configs = enumerate_configurations(fm)
    assert configs == enumerate_configurations(fm)
    assert configs == sorted(configs, key=sorted)


def test_enumeration_refuses_large_models():
    wide = build_feature_model(
        mandatory("R", *[optional(f"C{i}") for i in range(20)]))
    with pytest.raises(ModelTooLarge):
        enumerate_configurations(wide)
    with pytest.raises(ModelTooLarge):
        enumerate_configurations(toy_model(), max_features=3)


@pytest.mark.parametrize("seed", range(200))
def test_enumeration_matches_the_brute_force_on_random_models(seed):
    fm = random_feature_model(random.Random(7000 + seed), max_features=12)
    assert enumerate_configurations(fm) == brute_force_configurations(fm)


def all_models(definition):
    functional = definition.functional
    return [functional.global_model, *functional.locals.values()]


def preorder(f):
    """f and its descendants, by recursion: the layout's reference."""
    return [f] + [d for c in f.children for d in preorder(c)]


def assert_laid_out(fm):
    features = preorder(fm.root)
    assert list(fm.features) == features
    assert fm.position == {f.name: i for i, f in enumerate(features)}
    assert len(fm.position) == len(features)
    listed_by = {c.name: fm.position[f.name] for f in features for c in f.children}
    assert list(fm.parent) == [listed_by.get(f.name, -1) for f in features]
    for i, f in enumerate(features):
        assert list(fm.features[i:fm.end[i]]) == preorder(f)
    assert fm.feature_names == frozenset(fm.position)


@pytest.mark.parametrize("seed", range(40))
def test_the_layout_is_the_trees_preorder_on_random_models(seed):
    assert_laid_out(random_feature_model(random.Random(29000 + seed), max_features=16))


def test_the_layout_is_the_trees_preorder_on_the_packaged_models(gis_definition):
    for fm in all_models(gis_definition):
        assert_laid_out(fm)


def test_enumeration_matches_the_brute_force_on_the_packaged_models(gis_definition):
    models = all_models(gis_definition)
    assert [m.name for m in models] == [
        "GIS_SPL", "EntityFeature", "MapFeature", "LayerFeature"]
    for fm in models:
        assert enumerate_configurations(fm) == brute_force_configurations(fm), fm.name


def test_enumeration_matches_the_brute_force_on_the_ecommerce_models(
        ecommerce_definition):
    for fm in all_models(ecommerce_definition):
        assert enumerate_configurations(fm) == brute_force_configurations(fm), fm.name


def test_enumeration_handles_a_wide_xor_group_quickly():
    # 60 features: far beyond a 2^n subset scan, but only 59 configurations
    leaves = [optional(f"L{i}") for i in range(59)]
    fm = build_feature_model(mandatory("R", *leaves, group=XOR))
    started = time.perf_counter()
    configs = enumerate_configurations(fm, max_features=60)
    assert time.perf_counter() - started < 1.0
    assert configs == sorted(
        (frozenset({"R", f"L{i}"}) for i in range(59)), key=sorted)


def test_enumeration_counts_a_constrained_wide_model():
    # R has a mandatory xor group G of 56 leaves and optional O1, O2:
    # 60 features. O1 requires L0 and O2 excludes L1, so per chosen leaf:
    # L0 allows 2 x 2 choices of O1/O2, L1 allows 1 x 1, the other 54 each
    # 1 x 2. That is 4 + 1 + 108 = 113 configurations.
    leaves = [optional(f"L{i}") for i in range(56)]
    fm = build_feature_model(
        mandatory("R", mandatory("G", *leaves, group=XOR),
                  optional("O1"), optional("O2")),
        (requires("O1", "L0"), excludes("O2", "L1")))
    configs = enumerate_configurations(fm, max_features=60)
    assert len(configs) == 113
    assert len(set(configs)) == 113
    assert all(validate_configuration(fm, cfg).valid for cfg in configs)
    assert frozenset({"R", "G", "L0", "O1", "O2"}) in configs
    assert frozenset({"R", "G", "L1", "O1"}) not in configs
    assert frozenset({"R", "G", "L1", "O2"}) not in configs


# Each tree with constraints whose endpoints meet at one kind of node; the
# constraints must bite, so the unconstrained tree has more configurations.
MEETING_CONSTRAINTS = {
    "under an xor group": (
        mandatory("R",
                  optional("X", optional("A", optional("A1")),
                           optional("B", optional("B1")), optional("C"), group=XOR),
                  optional("D")),
        (requires("A1", "B1"), requires("C", "D"), excludes("B1", "D"))),
    "under an or group": (
        mandatory("R",
                  mandatory("O", optional("A", optional("A1")), optional("B"),
                            optional("C", optional("C1")), group=OR)),
        (requires("A1", "C1"), excludes("B", "C1"), requires("C", "A"))),
    "between a feature and its descendant": (
        mandatory("R",
                  optional("P", optional("Q", optional("S")), optional("T")),
                  optional("X", optional("A"), optional("B"), group=XOR)),
        (requires("P", "S"), excludes("T", "Q"), requires("X", "B"),
         excludes("R", "T"))),
}


@pytest.mark.parametrize("meeting", MEETING_CONSTRAINTS)
def test_enumeration_filters_constraints_where_their_endpoints_meet(meeting):
    root, constraints = MEETING_CONSTRAINTS[meeting]
    fm = build_feature_model(root, constraints)
    configs = enumerate_configurations(fm)
    assert configs == brute_force_configurations(fm)
    assert len(configs) < len(brute_force_configurations(build_feature_model(root)))


def test_enumeration_prunes_a_requires_chain_as_it_goes():
    # L0 requires L1, ..., L17 requires L18: the valid selections of the 19
    # leaves are the 20 suffixes of L0..L18, out of 2^19 products
    leaves = [f"L{i}" for i in range(19)]
    fm = build_feature_model(
        mandatory("R", *map(optional, leaves)),
        [requires(a, b) for a, b in zip(leaves, leaves[1:])])
    started = time.perf_counter()
    configs = enumerate_configurations(fm)
    assert time.perf_counter() - started < 0.5
    assert configs == sorted(
        (frozenset({"R", *leaves[i:]}) for i in range(20)), key=sorted)


def test_enumeration_recurses_through_the_deepest_parsable_model():
    fm = parse_spl_definition(nested_spl(MAX_FEATURE_DEPTH)).functional.global_model
    configs = enumerate_configurations(fm, max_features=MAX_FEATURE_DEPTH + 1)
    chain = ["R"] + [f"F{i}" for i in range(1, MAX_FEATURE_DEPTH + 1)]
    assert configs == sorted(
        (frozenset(chain[:i]) for i in range(1, len(chain) + 1)), key=sorted)


# Names whose sorted order mixes upper and lower case, digits, underscores
# and names that are prefixes of others.
CLASHING_NAMES = ("A", "AB", "A_", "a", "F2", "F10", "Zz", "Z", "a_", "F1", "AB_", "b")


def bits_by_name(fm):
    return dict(zip((f.name for f in fm.iter_features()), fm.rank_layout[1]))


@pytest.mark.parametrize("n", range(1, 11))
def test_the_mask_order_key_sorts_as_sorted_names_do(n):
    for draw in range(3):
        rng = random.Random(n * 10 + draw)
        names = rng.sample(CLASHING_NAMES, n)
        fm = build_feature_model(mandatory(names[0], *map(optional, names[1:])))
        ranked = fm.rank_layout[0]
        assert ranked == tuple(sorted(names))
        bits = bits_by_name(fm)
        assert [bits[name] for name in ranked] == [1 << n - 1 - r for r in range(n)]
        subsets = [frozenset(c) for k in range(1, n + 1)
                   for c in itertools.combinations(names, k)]
        masks = {sum(bits[name] for name in subset): subset for subset in subsets}
        shuffled = list(masks)
        rng.shuffle(shuffled)  # a key that ties would keep this order
        assert [masks[m] for m in sorted(shuffled, key=_trie_order)] == sorted(subsets, key=sorted)


def renamed(fm, names):
    """fm with its features renamed, in preorder, to names."""
    new = dict(zip((f.name for f in fm.iter_features()), names))

    def copy(f):
        return Feature(new[f.name], f.kind, f.group, f.abstract, tuple(map(copy, f.children)))

    return build_feature_model(
        copy(fm.root), [CrossTreeConstraint(ct.kind, new[ct.lhs], new[ct.rhs])
                        for ct in fm.constraints])


@pytest.mark.parametrize("seed", range(50))
def test_enumeration_matches_the_brute_force_on_models_with_clashing_names(seed):
    rng = random.Random(9000 + seed)
    fm = random_feature_model(rng, max_features=len(CLASHING_NAMES))
    fm = renamed(fm, rng.sample(CLASHING_NAMES, len(fm.feature_names)))
    assert enumerate_configurations(fm) == brute_force_configurations(fm)


@pytest.mark.parametrize("leaves", [11, 12])
def test_enumeration_lists_every_subset_of_many_free_leaves(leaves):
    # 2^leaves configurations, more than the two halves of a mask can take,
    # so each distinct half is decoded once and the halves united
    names = [f"L{i}" for i in range(leaves)]
    fm = build_feature_model(mandatory("R", *map(optional, names)))
    configs = enumerate_configurations(fm)
    assert configs == sorted(
        (frozenset({"R", *c}) for k in range(leaves + 1)
         for c in itertools.combinations(names, k)), key=sorted)


def test_enumeration_keeps_masks_wider_than_a_machine_word():
    # 71 features, so a configuration's mask needs more than 64 bits
    leaves = [optional(f"L{i}") for i in range(70)]
    fm = build_feature_model(mandatory("R", *leaves, group=XOR))
    configs = enumerate_configurations(fm, max_features=80)
    assert configs == sorted(
        (frozenset({"R", f"L{i}"}) for i in range(70)), key=sorted)


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_agrees_with_rule_validator(seed):
    # the two validity routes are implemented independently
    rng = random.Random(2000 + seed)
    fm = random_feature_model(rng, max_features=8)
    names = sorted(fm.feature_names)
    enumerated = set(enumerate_configurations(fm))
    for bits in range(1 << len(names)):
        subset = frozenset(n for i, n in enumerate(names) if bits >> i & 1)
        assert validate_configuration(fm, subset).valid == (subset in enumerated)


@pytest.mark.parametrize("seed", range(25))
def test_enumerated_configurations_contain_root_and_are_parent_closed(seed):
    rng = random.Random(3000 + seed)
    fm = random_feature_model(rng, max_features=9)
    parent_of = parents(fm)
    for cfg in enumerate_configurations(fm):
        assert fm.root.name in cfg
        for name in cfg:
            parent = parent_of[name]
            assert parent is None or parent in cfg


@pytest.mark.parametrize("seed", range(25))
def test_removing_a_free_optional_leaf_preserves_validity(seed):
    rng = random.Random(4000 + seed)
    fm = random_feature_model(rng, max_features=9)
    constrained = {c.lhs for c in fm.constraints} | {c.rhs for c in fm.constraints}
    parent_of = parents(fm)
    for cfg in enumerate_configurations(fm):
        for name in cfg:
            feature = fm.feature(name)
            parent = parent_of[name]
            if (feature.children or feature.kind != OPTIONAL or parent is None
                    or name in constrained or fm.feature(parent).group is not None):
                continue
            assert validate_configuration(fm, cfg - {name}).valid


# -- closure ------------------------------------------------------------------

def test_closure_of_form_access_pulls_ancestors_and_requirement():
    closed = close_selection(gis_tree(), {"FormAccess"})
    assert closed == {"GIS_SPL", "Entity", "List", "FormAccess", "Form"}


def test_closure_of_empty_seeds_is_the_mandatory_closure_of_the_root():
    assert close_selection(gis_tree(), frozenset()) == {"GIS_SPL"}
    assert close_selection(toy_model(), frozenset()) == {"R", "B"}


def test_closure_of_root_seed_adds_mandatory_children_transitively():
    fm = build_feature_model(
        mandatory("R", mandatory("A", mandatory("B")), optional("C")))
    assert close_selection(fm, {"R"}) == {"R", "A", "B"}


def test_closure_does_not_solve_groups():
    # B's xor group stays unsatisfied; callers re-validate
    closed = close_selection(toy_model(), frozenset())
    assert not validate_configuration(toy_model(), closed).valid


def test_closure_rejects_unknown_seeds():
    with pytest.raises(UnknownFeature):
        close_selection(toy_model(), {"Nope"})


def test_traced_closure_records_first_cause():
    _, steps = close_selection_traced(gis_tree(), {"FormAccess"})
    assert steps["FormAccess"].cause == "seed"
    assert steps["GIS_SPL"].cause == "root"
    assert (steps["List"].cause, steps["List"].of) == ("parent", "FormAccess")
    assert (steps["Form"].cause, steps["Form"].of) == ("requires", "FormAccess")
    assert steps["Entity"].cause == "parent"


def test_traced_closure_records_mandatory_cause():
    fm = build_feature_model(mandatory("R", mandatory("A")))
    _, steps = close_selection_traced(fm, frozenset())
    assert (steps["A"].cause, steps["A"].of) == ("mandatory", "R")


@pytest.mark.parametrize("seed", range(30))
def test_closure_is_monotone_and_idempotent(seed):
    rng = random.Random(5000 + seed)
    fm = random_feature_model(rng)
    names = sorted(fm.feature_names)
    seeds = frozenset(rng.sample(names, rng.randint(0, len(names))))
    closed = close_selection(fm, seeds)
    assert closed >= seeds | {fm.root.name}
    assert close_selection(fm, closed) == closed


@pytest.mark.parametrize("constraints,credit", [
    ((requires("B", "C"), requires("A", "B")), ("mandatory", "P")),
    ((requires("A", "B"), requires("B", "C")), ("requires", "B")),
])
def test_pass_order_decides_which_rule_is_credited(constraints, credit):
    # C is P's mandatory child and B's requirement. Declared after A requires
    # B, B requires C fires in the pass that adds B; declared before it, C
    # waits a pass, and the mandatory rule runs before the requires sweep.
    fm = build_feature_model(
        mandatory("R", optional("P", optional("B"), mandatory("C")), optional("A")),
        constraints)
    _, steps = close_selection_traced(fm, {"A"})
    assert (steps["C"].cause, steps["C"].of) == credit


def with_requires_chains(fm, rng):
    """fm plus random requires chains over its non-root features, declared in
    shuffled order, so that closing a selection takes several passes."""
    names = sorted(fm.feature_names - {fm.root.name})
    chains = []
    for _ in range(rng.randint(1, 3)):
        path = rng.sample(names, rng.randint(2, len(names)))
        chains.extend(requires(a, b) for a, b in zip(path, path[1:]))
    rng.shuffle(chains)
    return build_feature_model(fm.root, fm.constraints + tuple(chains))


@pytest.mark.parametrize("seed", range(200))
def test_closure_matches_the_reference_on_models_with_requires_chains(seed):
    rng = random.Random(8000 + seed)
    fm = with_requires_chains(random_feature_model(rng, max_features=16), rng)
    names = sorted(fm.feature_names)
    for _ in range(10):
        seeds = frozenset(rng.sample(names, rng.randint(0, min(4, len(names)))))
        assert close_selection_traced(fm, seeds) == reference_close_selection_traced(fm, seeds)
