"""Regularity conditions, family merging, quotient profiles, tree labellings."""

import functools
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import submatrix, sweep_configs
from denseamalgam.approx import (
    ConditionReport,
    ConditionTolerances,
    build_approx,
    save_bundle,
)
from denseamalgam._kernels import floyd_warshall
from denseamalgam.characterize import (
    MATCH_LIMIT,
    MergeResult,
    RegularStructure,
    TLabelling,
    _atom_distances,
    _components,
    _default_tolerances,
    _halves,
    _match_shapes,
    as_regular_structure,
    build_t_labelling,
    check_regularity,
    labelling_to_json,
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


@functools.lru_cache(maxsize=4)
def subset_idx(s):
    """Each family subset's points as matrix indices (kept for the last
    few structures, which the per-pair oracles read again and again)."""
    return [np.array([s.space.index[p] for p in pts], dtype=np.intp)
            for pts in s.subsets]


def set_distance(s, i, j):
    return float(s.tables.between[i, j])


class TestRegularStructure:
    def test_residual_and_classes(self):
        s = RegularStructure(line_space([0, 1, 5, 6, 20]),
                             [(("p0", "p1"), 1), (("p2", "p3"), 2)])
        assert s.k == 2
        assert s.residual == ("p4",)
        assert s.subset_diam(0) == 1.0
        assert set_distance(s, 0, 1) == 4.0
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

def _normalized(block):
    """A block divided by its largest entry, when that is positive."""
    d = block.max()
    return block / d if d > 0 else block


def _block_min(dist, blocks):
    """out[i, j] is the least distance between index blocks i and j."""
    rows = np.array([dist[b].min(axis=0) for b in blocks])
    return np.array([rows[:, b].min(axis=1) for b in blocks]).T


def oracle_diam(s, i):
    idx = subset_idx(s)[i]
    return float(s.space.dist[np.ix_(idx, idx)].max())


def oracle_set_distance(s, i, j):
    idx = subset_idx(s)
    return float(s.space.dist[np.ix_(idx[i], idx[j])].min())


def oracle_reach(s, i, j):
    # farthest point of subset i from subset j
    idx = subset_idx(s)
    return float(s.space.dist[np.ix_(idx[i], idx[j])].min(axis=1).max())


def oracle_linkage_components(s, eps):
    """Single-linkage components over points at scale eps, with subsets
    pre-merged."""
    members = ((int(idx[0]), int(other)) for idx in subset_idx(s)
               for other in idx[1:])
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
    between = _block_min(s.space.dist, subset_idx(s))[np.triu_indices(len(s), 1)]
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
    idx = subset_idx(s)
    n_sub = len(s)
    conditions = {}
    worst_dev = 0.0
    proxy_pairs = []
    mismatches = []
    for cls in range(1, s.k + 1):
        members = s.of_class(cls)
        ref_i = members[0]
        ref_block = _normalized(submatrix(s.space, s.subsets[ref_i]))
        for i in members[1:]:
            if len(s.subsets[i]) != len(s.subsets[ref_i]):
                mismatches.append({"class": cls, "subsets": [ref_i, i],
                                   "reason": "cardinality"})
                continue
            if len(s.subsets[i]) > MATCH_LIMIT:
                proxy_pairs.append([ref_i, i])
                continue
            block = _normalized(submatrix(s.space, s.subsets[i]))
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
        inside = idx[i]
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
        cols = np.concatenate([idx[i] for i in s.of_class(cls)])
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
        if comp[idx[i][0]] == comp[idx[j][0]]:
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
    near = _block_min(s.space.dist, subset_idx(s) + [
        np.array([p]) for p in range(len(s.space))])[:m, m:]
    assert np.array_equal(t.near, near)
    for i in range(m):
        assert t.diam[i] == oracle_diam(s, i) == s.subset_diam(i)
        for j in range(m):
            assert t.reach[i, j] == oracle_reach(s, i, j)
            assert t.between[i, j] == oracle_set_distance(s, i, j)
    blocks = subset_idx(s) + [np.array([s.space.index[p]])
                              for p in s.residual]
    assert np.array_equal(_atom_distances(s), _block_min(s.space.dist, blocks))
    want = reduceat_tables(s)
    for name in ("near", "diam", "reach", "between"):
        assert np.array_equal(bits(getattr(t, name)), bits(want[name]))


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def reduceat_tables(s):
    """The family tables as ufunc.reduceat built them, from a copy of the
    subsets' rows of the matrix and a maximum pass over it."""
    idx = subset_idx(s)
    sizes = [len(i) for i in idx]
    order = np.concatenate(idx)
    starts = np.cumsum([0] + sizes[:-1])
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rows = s.space.dist[order]
    near = np.minimum.reduceat(rows, starts, axis=0)
    far = np.maximum.reduceat(rows, starts, axis=0)
    at = near[:, order]
    return {"near": near, "diam": np.maximum.reduceat(far[owner, order], starts),
            "reach": np.maximum.reduceat(at, starts, axis=1).T,
            "between": np.minimum.reduceat(at, starts, axis=1)}


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
        blocks = list(subset_idx(s)) + [np.array([s.space.index[p]])
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
        for name in ("near", "diam", "reach", "between"):
            table = getattr(s.tables, name)
            assert getattr(s.tables, name) is table
            assert not table.flags.writeable


# ---------------------------------------------------------------------------
# Oracles: merging, the quotient profile, the labelling and its
# verification as they read the matrix before the atom tables.

def merge_oracle(s: RegularStructure) -> MergeResult:
    """merge_families with one submatrix per union."""
    if s.k < 2:
        raise ValueError("merging needs at least two classes")
    counts = {cls: len(s.of_class(cls)) for cls in range(1, s.k + 1)}
    if len(set(counts.values())) != 1:
        raise ValueError(
            "classes have unequal subset counts "
            f"{sorted(counts.items())}; a finite family cannot compensate")
    m = counts[1]
    between = s.tables.between.tolist()
    used = [False] * len(s)
    rounds = []
    family = []
    ratio = 0.0
    for _ in range(m):
        seed = next(i for i in range(len(s)) if not used[i])
        used[seed] = True
        members = [seed]
        for cls in range(1, s.k + 1):
            if cls == s.classes[seed]:
                continue
            pick = min((i for i in s.of_class(cls) if not used[i]),
                       key=lambda i: (between[seed][i], i))
            used[pick] = True
            members.append(pick)
        points = tuple(p for i in members for p in s.subsets[i])
        union_diam = float(submatrix(s.space, points).max())
        seed_diam = s.subset_diam(seed)
        if union_diam == 0.0:
            r = 1.0
        elif seed_diam == 0.0:
            r = math.inf
        else:
            r = union_diam / seed_diam
        ratio = max(ratio, r)
        rounds.append({"seed": seed, "members": members,
                       "diam": union_diam, "seed_diam": seed_diam})
        family.append((points, 1))
    merged = RegularStructure(s.space, family, approximation=s.approximation)
    return MergeResult(merged, ratio, rounds)


def quotient_oracle(s: RegularStructure, eps: float) -> dict:
    """quotient_profile with Python loops over every pair of atoms."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    atoms = ([f"subset:{i}" for i in range(len(s))]
             + [f"point:{p}" for p in s.residual])
    n = len(atoms)
    quot = _atom_distances(s)
    np.fill_diagonal(quot, 0.0)
    quot = floyd_warshall(quot)

    if n == 1:
        c2 = {"verdict": "fail", "max_nearest": math.inf, "worst_atom": atoms[0]}
    else:
        off = quot + np.diag([math.inf] * n)
        nearest = off.min(axis=1)
        at = int(nearest.argmax())
        c2 = {"verdict": "pass" if nearest[at] <= eps else "fail",
              "max_nearest": float(nearest[at]), "worst_atom": atoms[at]}

    # cuts with gap >= eps exist exactly between components linked by < eps
    comp = _components(n, ((i, j) for i in range(n) for j in range(i + 1, n)
                           if quot[i, j] < eps))
    violations = [[atoms[i], atoms[j], float(quot[i, j])]
                  for i in range(n) for j in range(i + 1, n)
                  if quot[i, j] > eps and comp[i] == comp[j]]
    c1 = {"verdict": "pass" if not violations else "fail",
          "violations": violations[:10], "violation_count": len(violations)}

    return {
        "eps": eps,
        "atom_count": n,
        "c1": c1,
        "c2": c2,
        "cantor_like": c1["verdict"] == "pass" and c2["verdict"] == "pass",
    }


def build_labelling_oracle(s: RegularStructure, max_depth: int) -> TLabelling:
    """build_t_labelling with a scan of every subset per vertex, a near
    column per point, and a sorted index list per point and child in the
    component hull."""
    if not isinstance(max_depth, int) or isinstance(max_depth, bool) or max_depth < 0:
        raise ValueError("max_depth must be a non-negative integer")
    report = check_regularity(s)
    if not report.all_pass():
        failing = [name for name, c in report.conditions.items()
                   if c["verdict"] != "pass"]
        raise ValueError("labelling needs a structure that passes the "
                         "regularity checks; failing: " + ", ".join(failing))

    link_eps = report.tolerances["separation_gap"]
    dist = s.space.dist
    near = s.tables.near
    diams = s.tables.diam.tolist()
    reach = s.tables.reach.tolist()
    between = s.tables.between.tolist()
    point_sets = [set(pts) for pts in s.subsets]
    used = [False] * len(s)

    root = "r"
    parent = {root: None}
    assignment = {root: 0}
    partitions = {}
    radii = {root: s.space.diam()}
    used[0] = True

    def descend(t: str, region: set, depth: int):
        candidates = [i for i in range(len(s))
                      if not used[i] and point_sets[i] <= region]
        if depth == max_depth:
            if candidates:
                raise ValueError(
                    f"labelling failed at condition (t4): depth limit "
                    f"{max_depth} reached with unconsumed subsets {candidates}")
            return
        t_sub = assignment[t]
        children = []
        for i in sorted(candidates, key=lambda i: (-diams[i], i)):
            hideable = any(reach[i][assignment[c]] <= radii[c]
                           and _halves(diams[i], diams[assignment[c]])
                           for c in children)
            if hideable:
                continue
            if t != root and not _halves(diams[i], diams[t_sub]):
                raise ValueError(
                    f"labelling failed at condition (t1): subset {i} inside "
                    f"the region of {t} cannot satisfy diameter halving")
            child = f"{t}.{len(children)}"
            parent[child] = t
            assignment[child] = i
            terms = [between[i][t_sub], radii[t]]
            if diams[i] > 0:
                terms.append(diams[i])
            radii[child] = min(terms)
            used[i] = True
            children.append(child)
        if not children:
            return
        regions = {c: set(point_sets[assignment[c]]) for c in children}
        for i in candidates:
            if used[i]:
                continue
            fits = [c for c in children
                    if reach[i][assignment[c]] <= radii[c]
                    and _halves(diams[i], diams[assignment[c]])]
            # selection guarantees at least one accepting child
            pick = min(fits, key=lambda c: (between[i][assignment[c]],
                                            children.index(c)))
            regions[pick] |= point_sets[i]
        assigned = set().union(*regions.values())
        leftovers = []
        for p in sorted(region - assigned):
            to_p = near[:, s.space.index[p]].tolist()
            fits = [c for c in children if to_p[assignment[c]] <= radii[c]]
            if not fits:
                leftovers.append(p)
                continue
            pick = min(fits, key=lambda c: (to_p[assignment[c]],
                                            children.index(c)))
            regions[pick].add(p)
        # component hull: points chained to a claim through gaps of at most
        # the separation scale join the nearest claiming region
        changed = True
        while leftovers and changed:
            changed = False
            remaining = []
            for p in leftovers:
                pi = s.space.index[p]
                fits = []
                for c in children:
                    ridx = [s.space.index[q] for q in sorted(regions[c])]
                    gap = float(dist[pi, ridx].min())
                    if gap <= link_eps:
                        fits.append((gap, children.index(c), c))
                if fits:
                    regions[min(fits)[2]].add(p)
                    changed = True
                else:
                    remaining.append(p)
            leftovers = remaining
        if leftovers:
            raise ValueError(
                f"labelling failed at condition (t4): points {leftovers} in "
                f"the region of {t} lie outside every child neighbourhood "
                "and its component hull")
        for c in children:
            partitions[c] = frozenset(regions[c])
            descend(c, regions[c] - point_sets[assignment[c]], depth + 1)

    descend(root, set(s.space.points) - point_sets[0], 0)
    # the recursive closure refers to itself; unbind it so the structure's
    # matrix is freed on return rather than at the next garbage collection
    del descend
    unconsumed = [i for i in range(len(s)) if not used[i]]
    if unconsumed:
        raise ValueError(
            f"labelling failed at condition (t4): subsets {unconsumed} were "
            "never consumed within the depth limit")
    return TLabelling(root, parent, assignment, partitions, radii)


def verify_oracle(l: TLabelling, s: RegularStructure,
                  tol: ConditionTolerances = None) -> ConditionReport:
    """verify_labelling with an np.ix_ block of region x complement per
    vertex for (L4) and a submatrix per region for (L5)."""
    resolved = (tol or ConditionTolerances()).resolve(separation_gap=0.0)
    dist = s.space.dist
    conditions = {}
    tree = l.tree()
    vertices = tree.names
    for v in vertices:
        if v != l.root and v not in l.partitions:
            raise ValueError(f"labelling has no region for vertex {v!r}")
        if not 0 <= l.assignment.get(v, -1) < len(s):
            raise ValueError(f"vertex {v!r} has assignment {l.assignment.get(v)}, "
                             f"not a subset index of the family of {len(s)}")
        if v != l.root and not l.partitions[v] <= s.space.index.keys():
            raise ValueError(f"region of vertex {v!r} holds points outside "
                             "the space")
    # per tree vertex id: its subset index and its region
    subset = [l.assignment[v] for v in vertices]
    region = [None] + [l.partitions[v] for v in vertices[1:]]
    levels = tree.levels()
    diams = s.tables.diam.tolist()
    reach = s.tables.reach.tolist()

    # (L1): the assignment is a bijection onto the family
    missing = sorted(set(range(len(s))) - set(subset))
    duplicated = sorted({i for i in subset if subset.count(i) > 1})
    conditions["L1"] = {
        "verdict": "pass" if not missing and not duplicated else "fail",
        "missing": missing,
        "duplicated": duplicated,
    }

    # (L2): diameters halve along edges below the first level
    worst_ratio = 0.0
    worst_edge = None
    failing_edges = []
    for v in range(len(tree)):
        if tree.depth[v] < 2:
            continue
        p = tree.parent[v]
        child_d = diams[subset[v]]
        parent_d = diams[subset[p]]
        if not _halves(child_d, parent_d):
            failing_edges.append([vertices[p], vertices[v]])
        if parent_d > 0 and child_d / parent_d > worst_ratio:
            worst_ratio = child_d / parent_d
            worst_edge = [vertices[p], vertices[v]]
    conditions["L2"] = {
        "verdict": "pass" if not failing_edges else "fail",
        "max_ratio": worst_ratio,
        "worst_edge": worst_edge,
        "failing_edges": failing_edges,
    }

    # (L3): per-level reach from parent subsets, strictly decreasing
    level_gaps = []
    for level in levels[1:]:
        gap = 0.0
        for v in level:
            gap = max(gap, reach[subset[v]][subset[tree.parent[v]]])
        level_gaps.append(gap)
    decreasing = all(b < a for a, b in zip(level_gaps, level_gaps[1:]))
    conditions["L3"] = {
        "verdict": "pass" if decreasing else "fail",
        "level_gaps": level_gaps,
    }

    # (L4): regions are clopen at the separation scale, contain their
    # subtree's subsets, and avoid every ancestor's subset
    members = [set(s.subsets[i]) for i in subset]
    min_gap = math.inf
    containment_ok = True
    ancestor_ok = True
    worst = None
    for v in range(1, len(tree)):
        inside = np.array([s.space.index[p] for p in sorted(region[v])],
                          dtype=np.intp)
        mask = np.ones(len(s.space), dtype=bool)
        mask[inside] = False
        if mask.any():
            gap = float(dist[np.ix_(inside, np.flatnonzero(mask))].min())
            if gap < min_gap:
                min_gap, worst = gap, vertices[v]
        if not all(members[u] <= region[v] for u in tree.subtree(v)):
            containment_ok = False
        a = tree.parent[v]
        while a >= 0:
            if members[a] & region[v]:
                ancestor_ok = False
            a = tree.parent[a]
    gap_ok = min_gap >= resolved["separation_gap"] and (
        min_gap > 0.0 or min_gap == math.inf)
    conditions["L4"] = {
        "verdict": "pass" if gap_ok and containment_ok and ancestor_ok else "fail",
        "min_gap": min_gap,
        "worst_vertex": worst,
        "subtree_containment": containment_ok,
        "ancestor_disjoint": ancestor_ok,
    }

    # (L5): the largest region diameter shrinks strictly with each level
    level_diams = []
    for level in levels[1:]:
        level_diams.append(max(float(submatrix(s.space, sorted(region[v])).max())
                               for v in level))
    strictly = all(b < a for a, b in zip(level_diams, level_diams[1:]))
    conditions["L5"] = {
        "verdict": "pass" if strictly else "fail",
        "level_diams": level_diams,
    }

    # (L6): sibling regions are pairwise disjoint
    overlaps = []
    for kids in tree.children:
        for c1, c2 in itertools.combinations(kids, 2):
            if region[c1] & region[c2]:
                overlaps.append([vertices[c1], vertices[c2]])
    conditions["L6"] = {
        "verdict": "pass" if not overlaps else "fail",
        "overlapping_siblings": overlaps,
    }

    return ConditionReport(conditions, resolved)


def approx_tree_labelling(a):
    """A labelling of as_regular_structure(a) along a's own tree: vertex
    t's first class subset sits at t's place, its other class subsets
    hang below it, and a node's region is its copy's subtree points (or
    its own class subset's points)."""
    k = len(a.source_spaces)
    tree = a.tree
    names = {}
    parent, assignment, partitions, radii = {}, {}, {}, {}
    for v, t in enumerate(a.vertices):
        inside = set()
        for u in tree.subtree(v):
            inside.update(a._copy_points[u])
            inside.update([a.ends[a.vertices[u]]] if a.vertices[u] in a.ends
                          else [])
        for ci in range(k):
            name = names[v, ci] = f"n{v * k + ci}"
            assignment[name] = v * k + ci
            radii[name] = 1.0
            if ci:
                parent[name] = names[v, 0]
                partitions[name] = frozenset(a.class_points(t, ci))
            elif v:
                parent[name] = names[tree.parent[v], 0]
                partitions[name] = frozenset(inside)
            else:
                parent[name] = None
    return TLabelling(names[0, 0], parent, assignment, partitions, radii)


def split_regions(lab, s):
    """lab with one point of a multi-point subset moved out of each region
    that holds such a subset whole, so no region is a union of subsets."""
    partitions = dict(lab.partitions)
    for v, region in lab.partitions.items():
        for pts in s.subsets:
            if len(pts) > 1 and set(pts) <= region:
                partitions[v] = region - {pts[-1]}
                break
    return TLabelling(lab.root, dict(lab.parent), dict(lab.assignment),
                      partitions, dict(lab.radii))


def random_labelling(data, s):
    """A random tree over the family's subsets, with random regions: most
    are no union of subsets, some hold ancestor points or overlap."""
    order = data.draw(st.permutations(range(len(s))))
    names = ["r"] + [f"v{i}" for i in range(1, len(order))]
    parent = {"r": None}
    for i in range(1, len(order)):
        parent[names[i]] = names[data.draw(st.integers(0, i - 1))]
    points = st.sampled_from(s.space.points)
    partitions = {v: frozenset(data.draw(st.sets(points, min_size=1)))
                  for v in names[1:]}
    return TLabelling("r", parent, dict(zip(names, order)), partitions,
                      dict.fromkeys(names, 1.0))


def assert_same_outcome(got, want):
    """got() and want() return equal values or raise equal errors."""
    try:
        expected = want()
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            got()
        return
    assert got() == expected


LABEL_TOLERANCES = [None, ConditionTolerances(separation_gap=1e9),
                    ConditionTolerances(separation_gap=1e-9)]


class TestCheckersMatchOracles:
    """Labelling, verification, merging and the quotient profile against
    the per-vertex and per-pair code they replaced, on every sweep build
    (the ones `regular check` fails included) and on random structures."""

    @pytest.mark.parametrize("tag, xs, depth, branching", sweep_configs(),
                             ids=[c[0] for c in sweep_configs()])
    def test_sweep_configuration(self, tag, xs, depth, branching):
        a = build_approx(xs, depth, branching, 1 / 3)
        s = as_regular_structure(a)
        labellings = [approx_tree_labelling(a)]
        assert_same_outcome(
            lambda: labelling_to_json(build_t_labelling(s, depth)),
            lambda: labelling_to_json(build_labelling_oracle(s, depth)))
        try:
            built = build_t_labelling(s, depth)
        except ValueError:  # a known defect, or no room at this depth
            pass
        else:
            labellings += [built, split_regions(built, s)]
        labellings.append(split_regions(labellings[0], s))
        for lab in labellings:
            for tol in LABEL_TOLERANCES:
                assert verify_labelling(lab, s, tol).to_dict() == \
                    verify_oracle(lab, s, tol).to_dict()
        gaps = s.tables.between[np.triu_indices(len(s), 1)].tolist()
        for eps in sorted(set(gaps) or {1.0})[:4]:
            for scale in (0.5, 1.0, 2.0):
                assert quotient_profile(s, eps * scale) == \
                    quotient_oracle(s, eps * scale)
        assert_same_outcome(lambda: merge_families(s).to_dict(),
                            lambda: merge_oracle(s).to_dict())

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_structures(self, data):
        s = random_structure(data)
        lab = random_labelling(data, s)
        for tol in LABEL_TOLERANCES:
            assert_same_outcome(lambda: verify_labelling(lab, s, tol).to_dict(),
                                lambda: verify_oracle(lab, s, tol).to_dict())
        eps = data.draw(st.sampled_from(sorted(set(
            s.space.dist.ravel().tolist()) - {0.0}) or [1.0]))
        eps *= data.draw(st.sampled_from([0.5, 1.0, 1.5]))
        assert quotient_profile(s, eps) == quotient_oracle(s, eps)
        assert_same_outcome(lambda: merge_families(s).to_dict(),
                            lambda: merge_oracle(s).to_dict())
        depth = data.draw(st.integers(0, len(s)))
        assert_same_outcome(
            lambda: labelling_to_json(build_t_labelling(s, depth)),
            lambda: labelling_to_json(build_labelling_oracle(s, depth)))

    def test_component_hull_claims_chained_points(self):
        # p4 (64) and p5 (61) lie outside both children's neighbourhoods,
        # p1 within 10 and p2 within 30; p5 chains to p3 (58), the claim of
        # p2, through a gap of 3, and p4 to p5 only on a second pass
        s = RegularStructure(line_space([0, 10, 30, 58, 64, 61]),
                             [(("p0",), 1), (("p1",), 1), (("p2",), 1)])
        lab = build_t_labelling(s, max_depth=1)
        assert lab.partitions["r.1"] == {"p2", "p3", "p4", "p5"}
        assert labelling_to_json(lab) == labelling_to_json(
            build_labelling_oracle(s, 1))


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
        assert set_distance(s, 0, 1) == set_distance(s, 0, 2)
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

    def test_empty_region_rejected(self):
        s, lab = self.make(depth=1)
        lab.partitions["r.1"] = frozenset()
        with pytest.raises(ValueError, match="region of vertex 'r.1' is empty"):
            verify_labelling(lab, s)

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
