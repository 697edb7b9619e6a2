"""Regularity conditions, family merging, quotient profiles, tree labellings."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sweep_configs
from denseamalgam.approx import (
    ConditionReport,
    ConditionTolerances,
    build_approx,
    save_bundle,
)
from denseamalgam.characterize import (
    MATCH_LIMIT,
    RegularStructure,
    TLabelling,
    _atom_distances,
    _components,
    _default_tolerances,
    _match_shapes,
    _normalized,
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


# ---------------------------------------------------------------------------
# Oracles: the per-pair block code that the family tables replaced.

def _block_min(dist, blocks):
    """out[i, j] is the least distance between index blocks i and j."""
    rows = np.array([dist[b].min(axis=0) for b in blocks])
    return np.array([rows[:, b].min(axis=1) for b in blocks]).T


def oracle_diam(s, i):
    return float(s.space.dist[np.ix_(s._idx[i], s._idx[i])].max())


def oracle_set_distance(s, i, j):
    return float(s.space.dist[np.ix_(s._idx[i], s._idx[j])].min())


def oracle_reach(s, i, j):
    # farthest point of subset i from subset j
    return float(s.space.dist[np.ix_(s._idx[i], s._idx[j])].min(axis=1).max())


def oracle_linkage_components(s, eps):
    """Single-linkage components over points at scale eps, with subsets
    pre-merged."""
    members = ((int(idx[0]), int(other)) for idx in s._idx for other in idx[1:])
    close = ((int(x), int(y)) for x, y in np.argwhere(s.space.dist <= eps)
             if x < y)
    return _components(len(s.space), itertools.chain(members, close))


def oracle_match_shapes(ref, other, tol):
    """The backtracking search over row bijections, identity tried first."""
    n = ref.shape[0]
    perm = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in itertools.chain([i] if not used[i] else [], range(n)):
            if used[j]:
                continue
            if all(abs(ref[i, l] - other[j, perm[l]]) <= tol for l in range(i)):
                perm[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
                perm[i] = None
        return False

    if not extend(0):
        return False, math.inf
    dev = max((abs(ref[i, l] - other[perm[i], perm[l]])
               for i in range(n) for l in range(n)), default=0.0)
    return True, float(dev)


def oracle_tolerances(s, tol):
    if tol is None:
        tol = ConditionTolerances()
    max_diam = max(oracle_diam(s, i) for i in range(len(s)))
    base = 2 * max_diam if max_diam > 0 else s.space.diam()
    between = _block_min(s.space.dist, s._idx)[np.triu_indices(len(s), 1)]
    sep_default = float(between.min()) / 2 if len(s) > 1 else 0.0
    return {
        "iso": tol.iso,
        "null": tol.null if tol.null is not None else max_diam,
        "boundary_gap": tol.boundary_gap if tol.boundary_gap is not None else base,
        "density_gap": tol.density_gap if tol.density_gap is not None else base,
        "separation_gap": (tol.separation_gap if tol.separation_gap is not None
                           else sep_default),
    }


def regularity_oracle(s, tol=None):
    """check_regularity with one np.ix_ block per subset or pair, the
    backtracking search for every match and point-level linkage."""
    resolved = oracle_tolerances(s, tol)
    dist = s.space.dist
    n_sub = len(s)
    conditions = {}
    worst_dev = 0.0
    proxy_pairs = []
    mismatches = []
    for cls in range(1, s.k + 1):
        members = s.of_class(cls)
        ref_i = members[0]
        ref_block = _normalized(s.space.submatrix(s.subsets[ref_i]))
        for i in members[1:]:
            if len(s.subsets[i]) != len(s.subsets[ref_i]):
                mismatches.append({"class": cls, "subsets": [ref_i, i],
                                   "reason": "cardinality"})
                continue
            if len(s.subsets[i]) > MATCH_LIMIT:
                proxy_pairs.append([ref_i, i])
                continue
            block = _normalized(s.space.submatrix(s.subsets[i]))
            found, dev = oracle_match_shapes(ref_block, block, resolved["iso"])
            if not found:
                mismatches.append({"class": cls, "subsets": [ref_i, i],
                                   "reason": "no matching bijection"})
            else:
                worst_dev = max(worst_dev, dev)
    conditions["a1"] = {
        "verdict": "pass" if not mismatches else "fail",
        "max_deviation": worst_dev,
        "proxy_pairs": proxy_pairs,
        "mismatches": mismatches,
    }
    diams = [oracle_diam(s, i) for i in range(n_sub)]
    above = sorted(i for i in range(n_sub) if diams[i] > resolved["null"])
    conditions["a2"] = {
        "verdict": "pass" if len(above) < n_sub else "fail",
        "prefix": len(above),
        "above_null": above,
        "max_diameter": max(diams),
        "min_diameter": min(diams),
    }
    worst_gap = 0.0
    worst_subset = None
    for i in range(n_sub):
        inside = s._idx[i]
        mask = np.ones(len(s.space), dtype=bool)
        mask[inside] = False
        if not mask.any():
            worst_gap = math.inf
            worst_subset = i
            break
        gap = float(dist[np.ix_(inside, np.flatnonzero(mask))].min(axis=1).max())
        if gap > worst_gap:
            worst_gap, worst_subset = gap, i
    conditions["a3"] = {
        "verdict": "pass" if worst_gap <= resolved["boundary_gap"] else "fail",
        "max_gap": worst_gap,
        "worst_subset": worst_subset,
    }
    worst_gap = 0.0
    worst_pair = None
    for cls in range(1, s.k + 1):
        cols = np.concatenate([s._idx[i] for i in s.of_class(cls)])
        gaps = dist[:, cols].min(axis=1)
        at = int(gaps.argmax())
        if gaps[at] > worst_gap:
            worst_gap, worst_pair = float(gaps[at]), [s.space.points[at], cls]
    conditions["a4"] = {
        "verdict": "pass" if worst_gap <= resolved["density_gap"] else "fail",
        "max_gap": worst_gap,
        "worst": worst_pair,
    }
    comp = oracle_linkage_components(s, resolved["separation_gap"])
    offending = []
    for i, j in itertools.combinations(range(n_sub), 2):
        if comp[s._idx[i][0]] == comp[s._idx[j][0]]:
            offending.append([i, j])
    conditions["a5"] = {
        "verdict": "pass" if not offending else "fail",
        "inseparable_pairs": offending,
    }
    return ConditionReport(conditions, resolved)


def assert_tables_match_oracles(s):
    t = s.tables
    m = len(s)
    assert t.near.shape == (m, len(s.space)) and t.diam.shape == (m,)
    assert t.reach.shape == t.between.shape == (m, m)
    near = _block_min(s.space.dist, s._idx + [np.array([p]) for p in
                                              range(len(s.space))])[:m, m:]
    assert np.array_equal(t.near, near)
    for i in range(m):
        assert t.diam[i] == oracle_diam(s, i) == s.subset_diam(i)
        for j in range(m):
            assert t.reach[i, j] == oracle_reach(s, i, j)
            assert t.between[i, j] == oracle_set_distance(s, i, j) \
                == s.set_distance(i, j)
    blocks = list(s._idx) + [np.array([s.space.index[p]]) for p in s.residual]
    assert np.array_equal(_atom_distances(s), _block_min(s.space.dist, blocks))


def assert_regularity_matches_oracle(s, tol=None):
    assert ((tol or ConditionTolerances()).resolve(**_default_tolerances(s))
            == oracle_tolerances(s, tol))
    assert check_regularity(s, tol).to_dict() == regularity_oracle(s, tol).to_dict()


class TestBlockMinimum:
    """The all-pairs set distances against one np.ix_ block per pair."""

    @pytest.mark.parametrize("xs, depth, branching", [
        ([TWO], 2, 2), ([circle_net(), TWO], 2, 3), ([ONE], 3, 2),
        ([circle_net(3)], 0, 1)])
    def test_matches_per_pair_minimum(self, xs, depth, branching):
        s = build_structure(xs, depth, branching, 1 / 3)
        blocks = list(s._idx) + [np.array([s.space.index[p]])
                                 for p in s.residual]
        got = _atom_distances(s)
        for i, j in itertools.product(range(len(blocks)), repeat=2):
            assert got[i, j] == s.space.dist[np.ix_(blocks[i], blocks[j])].min()
        per_pair = [oracle_set_distance(s, i, j)
                    for i, j in itertools.combinations(range(len(s)), 2)]
        assert _default_tolerances(s)["separation_gap"] == (
            min(per_pair) / 2 if per_pair else 0.0)


def random_structure(data, max_points=12):
    """A structure on integer points of the plane under the l1 metric, so
    that distances tie often: random subsets (singletons included), a
    random residual, one or more classes."""
    n = data.draw(st.integers(1, max_points))
    coords = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                min_size=n, max_size=n, unique=True))
    pos = np.array(coords, dtype=float)
    space = FiniteMetricSpace([f"p{i}" for i in range(n)],
                              np.abs(pos[:, None] - pos[None, :]).sum(axis=2))
    owner = data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    if all(o < 0 for o in owner):
        owner[data.draw(st.integers(0, n - 1))] = 0
    groups = {}
    for p, o in zip(space.points, owner):
        if o >= 0:
            groups.setdefault(o, []).append(p)
    subsets = data.draw(st.permutations(list(groups.values())))
    k = data.draw(st.integers(1, len(subsets)))
    classes = list(range(1, k + 1)) + data.draw(st.lists(
        st.integers(1, k), min_size=len(subsets) - k, max_size=len(subsets) - k))
    return RegularStructure(space, zip(subsets, data.draw(st.permutations(classes))))


class TestFamilyTables:
    """The tables and the verdicts read from them, against the per-pair
    blocks and the point-level linkage they replaced."""

    @pytest.mark.parametrize("tag, xs, depth, branching", sweep_configs(),
                             ids=[c[0] for c in sweep_configs()])
    def test_sweep_configuration(self, tag, xs, depth, branching):
        s = build_structure(xs, depth, branching, 1 / 3)
        assert_tables_match_oracles(s)
        assert_regularity_matches_oracle(s)
        # linked subsets: (a5) lists every pair of each component
        gaps = sorted(set(s.tables.between[np.triu_indices(len(s), 1)].tolist()))
        for sep in gaps[:2] + gaps[-1:]:
            assert_regularity_matches_oracle(s, ConditionTolerances(
                separation_gap=sep, boundary_gap=sep, iso=0.0))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_structures(self, data):
        s = random_structure(data)
        assert_tables_match_oracles(s)
        assert_regularity_matches_oracle(s)
        sep = data.draw(st.sampled_from(sorted(set(s.space.dist.ravel().tolist()))))
        tol = ConditionTolerances(separation_gap=sep, null=sep, boundary_gap=sep,
                                  density_gap=sep, iso=data.draw(st.sampled_from(
                                      [0.0, 1e-9, 0.25])))
        assert_regularity_matches_oracle(s, tol)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_identity_check_agrees_with_search(self, data):
        n = data.draw(st.integers(1, 5))
        values = st.integers(1, 3)
        rows = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[i][j] = rows[j][i] = data.draw(values)
        ref = _normalized(np.array(rows, dtype=float))
        perm = data.draw(st.permutations(range(n)))
        other = ref[np.ix_(perm, perm)] * data.draw(st.sampled_from([1.0, 1.1]))
        tol = data.draw(st.sampled_from([0.0, 1e-9, 0.05, 0.2]))
        assert _match_shapes(ref, other, tol) == oracle_match_shapes(ref, other, tol)

    def test_tables_are_kept_and_read_only(self):
        s = build_structure([TWO], 2, 2, 1 / 3)
        assert s.tables is s.tables
        assert not any(table.flags.writeable for table in s.tables)


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
    @pytest.mark.parametrize("sources", [[TWO], [circle_net(), TWO]],
                             ids=["one-class", "two-class"])
    def test_sidecars_match_json_dump(self, tmp_path, monkeypatch, sources):
        # the oracle is the streaming json.dump the writers used before,
        # fed the object each writer serialized
        written = []
        dumps = json.dumps

        def spy(obj, **kwargs):
            written.append(obj)
            return dumps(obj, **kwargs)
        monkeypatch.setattr(json, "dumps", spy)
        a = build_approx(sources, depth=2, branching=2, scale=1 / 3)
        save_bundle(a, tmp_path / "a.csv", tmp_path / "a.json")
        save_structure(as_regular_structure(a), tmp_path / "s.csv",
                       tmp_path / "s.json")
        monkeypatch.undo()
        assert len(written) == 2
        for (stem, tail), obj in zip([("a", ""), ("s", "\n")], written):
            with open(tmp_path / f"{stem}.oracle", "w") as fh:
                json.dump(obj, fh, indent=2, sort_keys=True)
                fh.write(tail)
            assert (tmp_path / f"{stem}.json").read_bytes() \
                == (tmp_path / f"{stem}.oracle").read_bytes()

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
