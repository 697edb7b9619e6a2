"""Regularity conditions, family merging, quotient profiles, tree labellings."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from denseamalgam.approx import ConditionTolerances, build_approx
from denseamalgam.characterize import (
    RegularStructure,
    TLabelling,
    _block_min,
    _resolve_tolerances,
    as_regular_structure,
    build_t_labelling,
    check_regularity,
    load_structure,
    merge_families,
    quotient_profile,
    save_structure,
    verify_labelling,
)
from denseamalgam.metric import FiniteMetricSpace

TWO = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])
TWO_B = FiniteMetricSpace(["u", "v"], [[0, 1], [1, 0]])
ONE = FiniteMetricSpace(["o"], [[0]])


def circle_net(n=5):
    return FiniteMetricSpace(
        [f"c{i}" for i in range(n)],
        [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)])


def line_space(positions):
    """1-d space: point pi at the given coordinate."""
    pts = [f"p{i}" for i in range(len(positions))]
    pos = np.array(positions, dtype=float)
    return FiniteMetricSpace(pts, np.abs(pos[:, None] - pos[None, :]))


def build_structure(xs, depth, branching, scale):
    return as_regular_structure(build_approx(xs, depth=depth,
                                             branching=branching, scale=scale))


class TestRegularStructure:
    def test_residual_and_classes(self):
        s = RegularStructure(line_space([0, 1, 5, 6, 20]),
                             [(("p0", "p1"), 1), (("p2", "p3"), 2)])
        assert s.k == 2
        assert s.residual == ("p4",)
        assert s.subset_diam(0) == 1.0
        assert s.set_distance(0, 1) == 4.0
        assert s.of_class(2) == [1]

    def test_validation(self):
        space = line_space([0, 1, 2])
        with pytest.raises(ValueError, match="at least one subset"):
            RegularStructure(space, [])
        with pytest.raises(ValueError, match="nonempty"):
            RegularStructure(space, [((), 1)])
        with pytest.raises(ValueError, match="overlap"):
            RegularStructure(space, [(("p0", "p1"), 1), (("p1",), 1)])
        with pytest.raises(ValueError, match="not in the space"):
            RegularStructure(space, [(("zz",), 1)])
        with pytest.raises(ValueError, match="cover 1..k"):
            RegularStructure(space, [(("p0",), 1), (("p1",), 3)])

    def test_from_approx_order_and_tags(self):
        a = build_approx([TWO, TWO_B], depth=1, branching=2, scale=1 / 3)
        s = as_regular_structure(a)
        # depth-major vertex order, class tags alternating 1, 2
        assert len(s.subsets) == 2 * len(a.vertices)
        assert s.classes[:4] == (1, 2, 1, 2)
        assert s.subsets[0] == tuple(a.class_points(a.vertices[0], 0))
        assert all(lbl.startswith("end|") for lbl in s.residual)


class TestCheckRegularity:
    def test_build_passes_at_defaults(self):
        for xs, depth, b, lam in [([TWO], 2, 2, 1 / 3), ([circle_net()], 1, 3, 0.25),
                                  ([ONE], 3, 2, 0.4), ([TWO], 0, 1, 0.5)]:
            rep = check_regularity(build_structure(xs, depth, b, lam))
            assert rep.all_pass(), rep.conditions

    def test_report_shape(self):
        rep = check_regularity(build_structure([TWO], 1, 2, 1 / 3))
        assert set(rep.conditions) == {"a1", "a2", "a3", "a4", "a5"}
        d = rep.to_dict()
        assert d["all_pass"] is True
        assert d["tolerances"]["null"] > 0

    def test_covering_subset_fails_boundary(self):
        space = line_space([0, 1, 2])
        s = RegularStructure(space, [(("p0", "p1", "p2"), 1)])
        rep = check_regularity(s)
        assert rep.conditions["a3"]["verdict"] == "fail"
        assert rep.conditions["a3"]["max_gap"] == math.inf

    def test_close_pair_fails_separation(self):
        space = line_space([0, 0.001, 10])
        s = RegularStructure(space, [(("p0",), 1), (("p1",), 1)])
        rep = check_regularity(s, ConditionTolerances(separation_gap=0.01))
        assert rep.conditions["a5"]["verdict"] == "fail"
        assert [0, 1] in rep.conditions["a5"]["inseparable_pairs"]
        # achieved separation scale keeps the same pair apart
        assert check_regularity(s).conditions["a5"]["verdict"] == "pass"

    def test_residual_bridge_fails_separation_at_defaults(self):
        space = line_space([0, 0.4, 0.8])
        s = RegularStructure(space, [(("p0",), 1), (("p2",), 1)])
        rep = check_regularity(s)
        assert rep.tolerances["separation_gap"] == 0.4
        assert rep.conditions["a5"]["verdict"] == "fail"

    def test_shape_mismatch_fails(self):
        # same class, different cardinalities
        s = RegularStructure(line_space([0, 1, 10, 11, 12]),
                             [(("p0", "p1"), 1), (("p2", "p3", "p4"), 1)])
        rep = check_regularity(s)
        assert rep.conditions["a1"]["verdict"] == "fail"
        assert rep.conditions["a1"]["mismatches"][0]["reason"] == "cardinality"

    def test_shape_match_is_scale_free(self):
        # two copies at very different scales, same shape
        s = RegularStructure(line_space([0, 1, 2, 100, 100.01, 100.02]),
                             [(("p0", "p1", "p2"), 1), (("p3", "p4", "p5"), 1)])
        rep = check_regularity(s)
        assert rep.conditions["a1"]["verdict"] == "pass"

    def test_shape_mismatch_same_cardinality(self):
        # 1-2 split vs even spacing cannot be aligned by any bijection
        s = RegularStructure(line_space([0, 1, 3, 100, 102, 104]),
                             [(("p0", "p1", "p2"), 1), (("p3", "p4", "p5"), 1)])
        rep = check_regularity(s)
        assert rep.conditions["a1"]["verdict"] == "fail"
        assert rep.conditions["a1"]["mismatches"][0]["reason"] == "no matching bijection"

    def test_large_subsets_use_proxy(self):
        pos = list(range(9)) + [p + 100 for p in range(9)]
        s = RegularStructure(line_space(pos),
                             [(tuple(f"p{i}" for i in range(9)), 1),
                              (tuple(f"p{i + 9}" for i in range(9)), 1)])
        rep = check_regularity(s)
        assert rep.conditions["a1"]["verdict"] == "pass"
        assert rep.conditions["a1"]["proxy_pairs"] == [[0, 1]]

    def test_null_prefix_with_explicit_cutoff(self):
        s = build_structure([TWO], 2, 2, 1 / 3)
        rep = check_regularity(s, ConditionTolerances(null=0.5))
        assert rep.conditions["a2"]["verdict"] == "pass"
        assert rep.conditions["a2"]["prefix"] == 1  # only the root copy
        tight = check_regularity(s, ConditionTolerances(null=1e-6))
        assert tight.conditions["a2"]["verdict"] == "fail"

    def test_density_fails_for_far_point(self):
        space = line_space([0, 1, 50])
        s = RegularStructure(space, [(("p0", "p1"), 1)])
        rep = check_regularity(s, ConditionTolerances(density_gap=5.0))
        assert rep.conditions["a4"]["verdict"] == "fail"
        assert rep.conditions["a4"]["max_gap"] == 49.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_in_tolerances(self, data):
        coords = data.draw(st.lists(st.integers(0, 60), min_size=4, max_size=9,
                                    unique=True))
        coords.sort()
        space = line_space(coords)
        n = len(coords)
        cut = data.draw(st.integers(1, n - 1))
        first = tuple(f"p{i}" for i in range(cut))
        second = tuple(f"p{i}" for i in range(cut, n))
        s = RegularStructure(space, [(first, 1), (second, 1)])
        base = check_regularity(s).tolerances
        grow = data.draw(st.floats(0.1, 3.0))
        tight = ConditionTolerances(null=base["null"], iso=base["iso"],
                                    boundary_gap=base["boundary_gap"],
                                    density_gap=base["density_gap"],
                                    separation_gap=base["separation_gap"])
        # looser: every gap grows except separation, which shrinks
        loose = ConditionTolerances(null=base["null"] * (1 + grow),
                                    iso=base["iso"] * (1 + grow),
                                    boundary_gap=base["boundary_gap"] * (1 + grow),
                                    density_gap=base["density_gap"] * (1 + grow),
                                    separation_gap=base["separation_gap"] / (1 + grow))
        before = check_regularity(s, tight).conditions
        after = check_regularity(s, loose).conditions
        for name in before:
            if before[name]["verdict"] == "pass":
                assert after[name]["verdict"] == "pass", name


class TestMergeFamilies:
    def test_depth0_two_class_ratio_exactly_three(self):
        for lam in (0.25, 1 / 3):
            s = build_structure([TWO, TWO_B], 0, 2, lam)
            m = merge_families(s)
            assert m.ratio == 3.0
            assert m.structure.k == 1
            merged = check_regularity(m.structure)
            assert merged.conditions["a2"]["verdict"] == "pass"
            assert merged.conditions["a4"]["verdict"] == "pass"

    def test_single_round_unions_everything(self):
        s = build_structure([TWO, TWO_B], 0, 1, 1 / 3)
        m = merge_families(s)
        assert len(m.structure.subsets) == 1
        assert set(m.structure.subsets[0]) == set(s.subsets[0]) | set(s.subsets[1])

    def test_round_members_one_per_class(self):
        s = build_structure([TWO, TWO_B], 1, 2, 1 / 3)
        m = merge_families(s)
        for r in m.rounds:
            assert sorted(s.classes[i] for i in r["members"]) == [1, 2]
        counts = [i for r in m.rounds for i in r["members"]]
        assert sorted(counts) == list(range(len(s)))

    def test_deep_builds_exceed_bound(self):
        # glue gaps undercut the in-copy cross-class distance, so the greedy
        # pairing drifts away from co-located partners and the late rounds pay
        s = build_structure([TWO, TWO_B], 2, 2, 1 / 3)
        m = merge_families(s)
        assert m.ratio > 3.0
        merged = check_regularity(m.structure)
        assert merged.conditions["a2"]["verdict"] == "pass"
        assert merged.conditions["a4"]["verdict"] == "pass"

    def test_nearest_tie_breaks_by_index(self):
        space = line_space([0, 5, -5, 100, 105])
        s = RegularStructure(space, [(("p0",), 1), (("p3",), 1),
                                     (("p1",), 2), (("p2",), 2)])
        m = merge_families(s)
        # seed p0 sees p1 and p2 both at 5; lower family index wins
        assert m.rounds[0]["members"] == [0, 2]

    def test_preconditions(self):
        s = RegularStructure(line_space([0, 5]), [(("p0",), 1), (("p1",), 1)])
        with pytest.raises(ValueError, match="two classes"):
            merge_families(s)
        s = RegularStructure(line_space([0, 5, 10]),
                             [(("p0",), 1), (("p1",), 1), (("p2",), 2)])
        with pytest.raises(ValueError, match="unequal"):
            merge_families(s)

    def test_null_verdict_preserved(self):
        for depth in (0, 1, 2):
            s = build_structure([TWO, TWO_B], depth, 2, 0.25)
            assert check_regularity(s).conditions["a2"]["verdict"] == "pass"
            m = merge_families(s)
            assert check_regularity(m.structure).conditions["a2"]["verdict"] == "pass"


class TestQuotientProfile:
    def test_build_cantor_like_at_glue_scale(self):
        lam = 1 / 3
        a = build_approx([TWO], depth=2, branching=2, scale=lam)
        s = as_regular_structure(a)
        # first-level glue gap of the construction
        eps = (TWO.diam() / 4) * (1 + lam)
        q = quotient_profile(s, eps)
        assert q["cantor_like"] is True
        assert q["atom_count"] == 7 + 4

    def test_small_eps_fails_nearness(self):
        lam = 1 / 3
        s = build_structure([TWO], 2, 2, lam)
        q = quotient_profile(s, lam ** 2)
        assert q["c2"]["verdict"] == "fail"
        assert q["cantor_like"] is False

    def test_isolated_subset_fails_nearness(self):
        s = RegularStructure(line_space([0, 1, 2, 3, 100]),
                             [(("p0", "p1"), 1), (("p2", "p3"), 1), (("p4",), 1)])
        q = quotient_profile(s, 5.0)
        assert q["c2"]["verdict"] == "fail"
        assert q["c2"]["worst_atom"] == "subset:2"

    def test_single_atom_not_cantor_like(self):
        s = RegularStructure(line_space([0, 1]), [(("p0", "p1"), 1)])
        q = quotient_profile(s, 1.0)
        assert q["atom_count"] == 1
        assert q["c2"]["verdict"] == "fail"
        assert q["cantor_like"] is False

    def test_chain_fails_cut_condition(self):
        # linked chain whose endpoints exceed eps: no eps-gap cut separates them
        s = RegularStructure(line_space([0, 1, 2]),
                             [(("p0",), 1), (("p1",), 1), (("p2",), 1)])
        q = quotient_profile(s, 1.5)
        assert q["c1"]["verdict"] == "fail"
        assert q["c1"]["violation_count"] == 1

    def test_eps_validation(self):
        s = RegularStructure(line_space([0, 1]), [(("p0",), 1)])
        with pytest.raises(ValueError, match="positive"):
            quotient_profile(s, 0.0)

    def test_residual_points_become_atoms(self):
        s = RegularStructure(line_space([0, 1, 2]), [(("p0",), 1)])
        q = quotient_profile(s, 1.5)
        assert q["atom_count"] == 3
        assert q["cantor_like"] is False  # p2 reachable from p0 through p1


class TestBlockMinimum:
    """The all-pairs set distances against one np.ix_ block per pair."""

    @pytest.mark.parametrize("xs, depth, branching", [
        ([TWO], 2, 2), ([circle_net(), TWO], 2, 3), ([ONE], 3, 2),
        ([circle_net(3)], 0, 1)])
    def test_matches_per_pair_minimum(self, xs, depth, branching):
        s = build_structure(xs, depth, branching, 1 / 3)
        blocks = list(s._idx) + [np.array([s.space.index[p]])
                                 for p in s.residual]
        got = _block_min(s.space.dist, blocks)
        for i, j in itertools.product(range(len(blocks)), repeat=2):
            assert got[i, j] == s.space.dist[np.ix_(blocks[i], blocks[j])].min()
        per_pair = [s.set_distance(i, j)
                    for i, j in itertools.combinations(range(len(s)), 2)]
        assert _resolve_tolerances(s, None)["separation_gap"] == (
            min(per_pair) / 2 if per_pair else 0.0)


class TestBuildTLabelling:
    def test_tree_matches_construction(self):
        a = build_approx([TWO], depth=2, branching=2, scale=1 / 3)
        s = as_regular_structure(a)
        lab = build_t_labelling(s, max_depth=2)
        assert sorted(lab.parent) == ["r", "r.0", "r.0.0", "r.0.1",
                                      "r.1", "r.1.0", "r.1.1"]
        assert sorted(lab.assignment.values()) == list(range(7))
        # root copy first, then one child per construction subtree
        assert lab.assignment["r"] == 0

    def test_all_points_partitioned(self):
        s = build_structure([circle_net()], 2, 2, 1 / 3)
        lab = build_t_labelling(s, max_depth=2)
        top = [lab.partitions[c] for c in lab.children("r")]
        covered = set().union(*top) | set(s.subsets[0])
        assert covered == set(s.space.points)
        for c in lab.children("r"):
            for g in lab.children(c):
                assert lab.partitions[g] <= lab.partitions[c]

    def test_radii_non_increasing_exactly(self):
        for xs, lam in [([TWO], 1 / 3), ([circle_net()], 0.25), ([ONE], 0.5)]:
            s = build_structure(xs, 3, 2, lam)
            lab = build_t_labelling(s, max_depth=3)
            for v, p in lab.parent.items():
                if p is not None:
                    assert lab.radii[v] <= lab.radii[p]

    def test_root_only_for_single_subset(self):
        s = RegularStructure(line_space([0, 1]), [(("p0",), 1)])
        lab = build_t_labelling(s, max_depth=0)
        assert lab.parent == {"r": None}
        assert lab.assignment == {"r": 0}
        assert verify_labelling(lab, s).all_pass()

    def test_regularity_gate(self):
        s = RegularStructure(line_space([0, 1, 2]), [(("p0", "p1", "p2"), 1)])
        with pytest.raises(ValueError, match="failing: a3"):
            build_t_labelling(s, max_depth=1)

    def test_depth_limit_raises_t4(self):
        s = build_structure([TWO], 2, 2, 1 / 3)
        with pytest.raises(ValueError, match=r"\(t4\)"):
            build_t_labelling(s, max_depth=1)

    def test_selection_order_ties_break_by_index(self):
        # two equal-diameter clusters equidistant from the root cluster
        space = line_space([0, 1, 2, 3, -2, -1])
        s = RegularStructure(space, [(("p0", "p1"), 1), (("p2", "p3"), 1),
                                     (("p4", "p5"), 1)])
        assert s.set_distance(0, 1) == s.set_distance(0, 2)
        lab = build_t_labelling(s, max_depth=1)
        assert lab.assignment["r.0"] == 1
        assert lab.assignment["r.1"] == 2

    def test_max_depth_validation(self):
        s = RegularStructure(line_space([0, 1]), [(("p0",), 1)])
        with pytest.raises(ValueError, match="non-negative"):
            build_t_labelling(s, max_depth=-1)
        with pytest.raises(ValueError, match="non-negative"):
            build_t_labelling(s, max_depth=True)

    def test_deterministic(self):
        s = build_structure([circle_net()], 2, 3, 1 / 3)
        a = build_t_labelling(s, max_depth=2)
        b = build_t_labelling(s, max_depth=2)
        assert a.parent == b.parent
        assert a.assignment == b.assignment
        assert a.partitions == b.partitions
        assert a.radii == b.radii


class TestVerifyLabelling:
    def make(self, xs=(TWO,), depth=2, branching=2, lam=1 / 3):
        s = build_structure(list(xs), depth, branching, lam)
        lab = build_t_labelling(s, max_depth=depth)
        return s, lab

    def test_end_to_end_pass(self):
        for xs, depth, b, lam in [([TWO], 2, 2, 1 / 3), ([TWO], 3, 3, 0.25),
                                  ([circle_net()], 2, 3, 1 / 3), ([ONE], 3, 2, 0.4),
                                  ([TWO], 0, 2, 1 / 3), ([circle_net()], 1, 1, 0.5)]:
            s = build_structure(xs, depth, b, lam)
            lab = build_t_labelling(s, max_depth=depth)
            rep = verify_labelling(lab, s)
            assert rep.all_pass(), (xs[0].points, depth, b, lam, rep.conditions)

    def test_report_keys(self):
        s, lab = self.make()
        rep = verify_labelling(lab, s)
        assert set(rep.conditions) == {"L1", "L2", "L3", "L4", "L5", "L6"}
        assert rep.conditions["L3"]["level_gaps"] == sorted(
            rep.conditions["L3"]["level_gaps"], reverse=True)

    def test_skipped_subset_fails_coverage(self):
        s, lab = self.make(depth=1)
        del lab.parent["r.1"], lab.assignment["r.1"], lab.partitions["r.1"]
        rep = verify_labelling(lab, s)
        assert rep.conditions["L1"]["verdict"] == "fail"
        assert rep.conditions["L1"]["missing"]

    def test_duplicate_assignment_fails_injectivity(self):
        s, lab = self.make(depth=1)
        lab.assignment["r.1"] = lab.assignment["r.0"]
        rep = verify_labelling(lab, s)
        assert rep.conditions["L1"]["duplicated"] == [lab.assignment["r.0"]]

    def test_shared_region_fails_disjointness(self):
        s, lab = self.make(depth=1)
        stolen = next(iter(lab.partitions["r.1"]))
        lab.partitions["r.0"] = lab.partitions["r.0"] | {stolen}
        rep = verify_labelling(lab, s)
        assert rep.conditions["L6"]["verdict"] == "fail"
        assert ["r.0", "r.1"] in rep.conditions["L6"]["overlapping_siblings"]

    def test_ancestor_point_in_region_fails_clopen(self):
        s, lab = self.make(depth=1)
        root_point = s.subsets[lab.assignment["r"]][0]
        lab.partitions["r.0"] = lab.partitions["r.0"] | {root_point}
        rep = verify_labelling(lab, s)
        assert rep.conditions["L4"]["ancestor_disjoint"] is False
        assert rep.conditions["L4"]["verdict"] == "fail"

    def test_swapped_assignments_fail_trends(self):
        s, lab = self.make(depth=2)
        lab.assignment["r.0"], lab.assignment["r.0.0"] = (
            lab.assignment["r.0.0"], lab.assignment["r.0"])
        rep = verify_labelling(lab, s)
        assert rep.conditions["L2"]["verdict"] == "fail"

    def test_separation_tolerance_enforced(self):
        s, lab = self.make(depth=1)
        rep = verify_labelling(lab, s, ConditionTolerances(separation_gap=1e9))
        assert rep.conditions["L4"]["verdict"] == "fail"
        assert verify_labelling(lab, s).conditions["L4"]["verdict"] == "pass"

    def test_dangling_vertex_rejected(self):
        s, lab = self.make(depth=1)
        lab.parent["r.9"] = "r.7"
        with pytest.raises(ValueError, match="dangling"):
            verify_labelling(lab, s)

    @pytest.mark.parametrize("rename", [
        lambda i, v: f"v{i}",
        lambda i, v: f"x.{i}",
        lambda i, v: v.replace("r", "node.y", 1),
        lambda i, v: ".".join(reversed(v.split("."))),
    ], ids=["flat", "one-dot", "word-parts", "reversed-parts"])
    def test_verdicts_do_not_depend_on_vertex_names(self, rename):
        s, lab = self.make(xs=(circle_net(),), depth=2, branching=3)
        new = {v: rename(i, v) for i, v in enumerate(sorted(lab.parent))}
        renamed = TLabelling(
            root=new[lab.root],
            parent={new[v]: None if p is None else new[p]
                    for v, p in lab.parent.items()},
            assignment={new[v]: i for v, i in lab.assignment.items()},
            partitions={new[v]: r for v, r in lab.partitions.items()},
            radii={new[v]: r for v, r in lab.radii.items()})
        want = verify_labelling(lab, s).conditions
        got = verify_labelling(renamed, s).conditions
        assert {k: c["verdict"] for k, c in got.items()} == \
            {k: c["verdict"] for k, c in want.items()}
        assert got["L3"]["level_gaps"] == want["L3"]["level_gaps"]
        assert got["L5"]["level_diams"] == want["L5"]["level_diams"]
        assert got["L4"]["min_gap"] == want["L4"]["min_gap"]
        assert len(want["L3"]["level_gaps"]) == 2

    def test_chain_depth_comes_from_parents(self):
        # one 3-vertex chain under three namings: the same two level gaps
        s = RegularStructure(line_space([0, 10, 11, 30]),
                             [(("p0",), 1), (("p1", "p2"), 1), (("p3",), 1)])
        reports = []
        for top, mid, low in (("r", "r.0", "r.0.0"), ("r", "r.0", "r.1"),
                              ("root", "x", "y")):
            lab = TLabelling(root=top, parent={top: None, mid: top, low: mid},
                             assignment={top: 0, mid: 1, low: 2},
                             partitions={mid: frozenset(["p1", "p2", "p3"]),
                                         low: frozenset(["p3"])},
                             radii={top: 30.0, mid: 10.0, low: 1.0})
            reports.append(verify_labelling(lab, s).conditions)
        for rep in reports:
            assert rep["L3"] == reports[0]["L3"]
            assert rep["L3"]["level_gaps"] == [11.0, 19.0]

    def test_region_containment_invariant(self):
        # subsets assigned below v stay inside v's region
        s, lab = self.make(xs=(circle_net(),), depth=2, branching=3)
        tree = lab.tree()
        for v in range(1, len(tree)):
            region = lab.partitions[tree.names[v]]
            for u in tree.subtree(v):
                assert set(s.subsets[lab.assignment[tree.names[u]]]) <= region


class TestBundleIO:
    def test_round_trip(self, tmp_path):
        s = build_structure([TWO], 1, 2, 1 / 3)
        mat, meta = tmp_path / "m.csv", tmp_path / "m.json"
        save_structure(s, mat, meta)
        back = load_structure(mat, meta)
        assert back.subsets == s.subsets
        assert back.classes == s.classes
        assert back.space == s.space

    def test_kind_tamper_rejected(self, tmp_path):
        s = RegularStructure(line_space([0, 1]), [(("p0",), 1)])
        mat, meta = tmp_path / "m.csv", tmp_path / "m.json"
        save_structure(s, mat, meta)
        meta.write_text(meta.read_text().replace("regular-structure", "other"))
        with pytest.raises(ValueError, match="not a regular-structure"):
            load_structure(mat, meta)

    def test_length_mismatch_rejected(self, tmp_path):
        s = RegularStructure(line_space([0, 1]), [(("p0",), 1)])
        mat, meta = tmp_path / "m.csv", tmp_path / "m.json"
        save_structure(s, mat, meta)
        meta.write_text(meta.read_text().replace('"classes": [\n    1\n  ]',
                                                 '"classes": [\n    1, 1\n  ]'))
        with pytest.raises(ValueError, match="lengths differ"):
            load_structure(mat, meta)
