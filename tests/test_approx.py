"""Peripheral extensions, the glued tree construction, and condition checks."""

import itertools
import math
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import submatrix, sweep_configs
from denseamalgam import approx as approx_mod
from denseamalgam._kernels import floyd_warshall
from denseamalgam.approx import (
    _EXACT_SLACK,
    AmalgamApprox,
    ConditionReport,
    ConditionTolerances,
    _default_gaps,
    build_approx,
    check_conditions,
    load_bundle,
    save_bundle,
)
from denseamalgam.metric import FiniteMetricSpace, disjoint_union

TWO = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])
ONE = FiniteMetricSpace(["o"], [[0]])


def circle_net(n=5):
    return FiniteMetricSpace(
        [f"c{i}" for i in range(n)],
        [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class PeripheralModel:
    """A base space plus outward points at prescribed radii from anchors.

    Peripheral point j sits at distance radius_j + d(anchor_j, x) from every
    base point x, and radius_j + radius_l + d(anchor_j, anchor_l) from
    peripheral point l; both formulas keep the triangle inequality exactly.
    """

    base: FiniteMetricSpace
    peripheral: tuple  # of (anchor point, radius)

    def __post_init__(self):
        nb = len(self.base.points)
        last_radius = {}
        for j, (anchor, radius) in enumerate(self.peripheral):
            if anchor != self.base.points[j % nb]:
                raise ValueError("anchors must cycle through the base points in order")
            if not radius > 0:
                raise ValueError("peripheral radii must be positive")
            if anchor in last_radius and not radius < last_radius[anchor]:
                raise ValueError("radii must strictly decrease along each anchor cycle")
            last_radius[anchor] = radius

    def point_names(self):
        return [("p", j + 1) for j in range(len(self.peripheral))]

    def as_space(self) -> FiniteMetricSpace:
        """Base points followed by peripheral points ("p", 1), ("p", 2), ..."""
        nb = len(self.base.points)
        n = nb + len(self.peripheral)
        mat = np.zeros((n, n))
        mat[:nb, :nb] = self.base.dist
        anchor_idx = [self.base.index[a] for a, _ in self.peripheral]
        radii = [r for _, r in self.peripheral]
        for j, (ai, rj) in enumerate(zip(anchor_idx, radii)):
            row = rj + self.base.dist[ai, :]
            mat[nb + j, :nb] = row
            mat[:nb, nb + j] = row
            for l in range(j):
                v = rj + radii[l] + self.base.dist[ai, anchor_idx[l]]
                mat[nb + j, nb + l] = v
                mat[nb + l, nb + j] = v
        return FiniteMetricSpace(
            list(self.base.points) + self.point_names(), mat, _check=False)


def peripheral_extension(x: FiniteMetricSpace, n: int, r0: float,
                         mu: float) -> PeripheralModel:
    """n peripheral points, anchors cycling the base points in order,
    radius r0 * mu^ceil(j / |base|) for the j-th point (1-based)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    if not r0 > 0:
        raise ValueError("r0 must be positive")
    if not 0 < mu < 1:
        raise ValueError("mu must lie in (0, 1)")
    nb = len(x.points)
    peripheral = tuple(
        (x.points[(j - 1) % nb], r0 * mu ** math.ceil(j / nb))
        for j in range(1, n + 1))
    return PeripheralModel(x, peripheral)


def closure_oracle(xs, depth, branching, scale):
    """The glued metric by Floyd-Warshall over every copy's extended model.

    Copies start infinitely far apart, each child's parent port (slot 1) is
    joined to its parent's port toward it at distance 0, and the closure
    finds every distance; no cut-point structure is assumed.  Returns
    (names, labels, ends, matrix) of the kept points.
    """
    union = disjoint_union(xs)
    diam = union.diam()
    r0 = diam / 2 if diam > 0 else 0.5
    order, parent = ["t"], {"t": None}
    for v in order:
        if v.count(".") < depth:
            for i in range(branching):
                order.append(f"{v}.{i}")
                parent[f"{v}.{i}"] = v
    index, models = {}, {}
    for t in order:
        j = t.count(".")
        slots = branching if t == "t" else branching + 1
        scaled = FiniteMetricSpace(union.points, scale ** j * union.dist,
                                   _check=False)
        models[t] = peripheral_extension(scaled, slots, r0 * scale ** j,
                                         0.5).as_space()
        for p in models[t].points:
            index[(t, p)] = len(index)
    big = np.full((len(index), len(index)), np.inf)
    for t in order:
        rows = [index[(t, p)] for p in models[t].points]
        big[np.ix_(rows, rows)] = models[t].dist
    for c in order[1:]:
        t = parent[c]
        port = int(c.rsplit(".", 1)[1]) + (1 if t == "t" else 2)
        big[index[(t, ("p", port))], index[(c, ("p", 1))]] = 0.0
        big[index[(c, ("p", 1))], index[(t, ("p", port))]] = 0.0
    closed = floyd_warshall(big)
    kept, names, labels, ends = [], [], {}, {}
    for t in order:
        for ci, p in union.points:
            kept.append(index[(t, (ci, p))])
            names.append(f"{t}|{ci}|{p}")
            labels[names[-1]] = {"kind": "copy", "tree_vertex": t,
                                 "class": ci, "source_point": p}
    for t in order:
        if t.count(".") == depth:
            kept.append(index[(t, models[t].points[-1])])
            names.append(f"end|{t}")
            labels[names[-1]] = {"kind": "end", "leaf": t}
            ends[t] = names[-1]
    return names, labels, ends, closed[np.ix_(kept, kept)]


def wedge_oracle(xs, depth, branching, scale):
    """The glued matrix by wedging each vertex's glued subtree onto its
    parent's whole extended model at the cut point, vertex by vertex from
    the leaves up; kept rows in build order.  The level-by-level
    composition must reproduce its sums bit for bit."""
    union = disjoint_union(xs)
    diam = union.diam()
    r0 = diam / 2 if diam > 0 else 0.5
    nb = len(union.points)
    n_vertices = sum(branching ** j for j in range(depth + 1))
    level = [0] + [0] * (n_vertices - 1)
    for v in range(1, n_vertices):
        level[v] = level[(v - 1) // branching] + 1
    glued = {}
    for v in reversed(range(n_vertices)):
        slots = branching + (v > 0)
        scaled = FiniteMetricSpace(union.points,
                                   scale ** level[v] * union.dist, _check=False)
        mat = peripheral_extension(scaled, slots, r0 * scale ** level[v],
                                   0.5).as_space().dist
        start = {v: 0}
        if level[v] < depth:
            for i in range(branching):
                sub, sub_start = glued.pop(branching * v + 1 + i)
                start.update((u, len(mat) + r) for u, r in sub_start.items())
                cross = mat[:, nb + i + (v > 0), None] + sub[None, nb, :]
                mat = np.block([[mat, cross], [cross.T, sub]])
        else:
            start["end"] = nb + slots - 1
        glued[v] = (mat, start)
    mat, start = glued[0]
    leaves = range(n_vertices - branching ** depth, n_vertices)
    kept = [start[v] + r for v in range(n_vertices) for r in range(nb)]
    kept += [start[v] + nb + branching + (v > 0) - 1 for v in leaves]
    return mat[np.ix_(kept, kept)]


def depth_first_oracle(union, depth, branching, scale, r0, mu):
    """The glued matrix as `_glued_matrix` built it before it reordered in
    place: S_0 whole in depth-first order, then one take of its rows and
    one of its columns into breadth-first order, three n x n arrays."""
    nb = len(union.points)
    sub = g = None
    sizes = []  # per level from the leaves up: model rows kept, rows of S_j+1
    for j in reversed(range(depth + 1)):
        base = scale ** j * union.dist
        r0j = r0 * scale ** j
        radii = [r0j * mu ** math.ceil(k / nb)
                 for k in range(1, branching + (j > 0) + 1)]
        if not radii[-1] >= sys.float_info.min:
            raise ValueError(f"peripheral radii underflow at depth {j}")

        def far(k, l):  # peripheral points k and l
            return (radii[k] + radii[l]) + base[k % nb, l % nb]

        if sub is None:  # a leaf keeps its base points and its last slot
            end = len(radii) - 1
            ports, a, s = [], nb + 1, 0
            mat = np.empty((a, a))
            mat[nb, :nb] = mat[:nb, nb] = radii[end] + base[end % nb]
            mat[nb, nb] = 0.0
        else:
            ports, a, s = [i + (j > 0) for i in range(branching)], nb, len(sub)
            mat = np.empty((a + branching * s,) * 2)
        mat[:nb, :nb] = base
        for i, p in enumerate(ports):
            lo = a + i * s
            mat[lo:lo + s, lo:lo + s] = sub
            cross = (radii[p] + base[p % nb])[:, None] + g
            mat[:a, lo:lo + s], mat[lo:lo + s, :a] = cross, cross.T
            for k in range(i):
                cross = (far(p, ports[k]) + g)[:, None] + g
                lk = a + k * s
                mat[lk:lk + s, lo:lo + s], mat[lo:lo + s, lk:lk + s] = cross, cross.T
        if j > 0:
            g = np.concatenate([radii[0] + base[0]]
                               + ([[far(0, end)]] if sub is None else [])
                               + [far(0, p) + g for p in ports])
        sub = mat
        sizes.append((a, s))
    # a vertex's rows start after its parent's kept model points and its
    # elder siblings' subtrees; sizes runs from the leaves up
    starts = [np.zeros(1, dtype=np.intp)]
    for a, s in reversed(sizes[1:]):
        starts.append((starts[-1][:, None] + a + s * np.arange(branching)).ravel())
    rows = np.concatenate([(np.concatenate(starts)[:, None] + np.arange(nb)).ravel(),
                           starts[-1] + nb])
    return sub.take(rows, 0).take(rows, 1)


class TestPeripheralExtension:
    def test_single_point_base_radii(self):
        m = peripheral_extension(ONE, 3, 1.0, 0.5)
        assert [r for _, r in m.peripheral] == [0.5, 0.25, 0.125]
        assert all(a == "o" for a, _ in m.peripheral)
        space = m.as_space()
        assert space.distance(("p", 1), ("p", 2)) == 0.5 + 0.25
        assert space.distance(("p", 1), "o") == 0.5

    def test_n_zero_keeps_base(self):
        m = peripheral_extension(TWO, 0, 1.0, 0.5)
        assert m.peripheral == ()
        assert m.as_space().points == TWO.points

    def test_two_point_base_cycles_anchors(self):
        m = peripheral_extension(TWO, 2, 1.0, 0.5)
        assert [a for a, _ in m.peripheral] == ["a", "b"]
        assert [r for _, r in m.peripheral] == [0.5, 0.5]
        # cross-peripheral distance r1 + r2 + d(anchors)
        assert m.as_space().distance(("p", 1), ("p", 2)) == 0.5 + 0.5 + 1

    def test_extension_is_a_metric(self):
        for n in (1, 3, 7):
            space = peripheral_extension(circle_net(), n, 2.0, 0.5).as_space()
            FiniteMetricSpace(space.points, space.dist)  # full re-validation

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            peripheral_extension(TWO, -1, 1.0, 0.5)
        with pytest.raises(ValueError, match="r0"):
            peripheral_extension(TWO, 1, 0.0, 0.5)
        with pytest.raises(ValueError, match="mu"):
            peripheral_extension(TWO, 1, 1.0, 1.0)

    def test_model_invariants_enforced(self):
        with pytest.raises(ValueError, match="cycle through the base points"):
            PeripheralModel(TWO, (("b", 0.5),))
        with pytest.raises(ValueError, match="positive"):
            PeripheralModel(TWO, (("a", 0.0),))
        # same anchor twice without shrinking
        with pytest.raises(ValueError, match="strictly decrease"):
            PeripheralModel(TWO, (("a", 0.5), ("b", 0.5),
                                  ("a", 0.5), ("b", 0.25)))


class TestBuildApprox:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one source"):
            build_approx([], 1, 1, 0.5)
        with pytest.raises(ValueError, match="depth"):
            build_approx([TWO], -1, 1, 0.5)
        with pytest.raises(ValueError, match="branching"):
            build_approx([TWO], 1, 0, 0.5)
        for bad in (0.0, 0.6, 1.0, -0.2):
            with pytest.raises(ValueError, match="scale"):
                build_approx([TWO], 1, 1, bad)
        weird = FiniteMetricSpace(["x|y", "z"], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="without"):
            build_approx([weird], 1, 1, 0.5)

    @pytest.mark.parametrize("depth, branching, message", [
        (True, 1, "depth must be a non-negative integer"),
        (1, True, "branching must be a positive integer"),
        (True, True, "depth must be a non-negative integer"),
    ], ids=["bool-depth", "bool-branching", "both-bool"])
    def test_bools_are_not_counts(self, depth, branching, message):
        with pytest.raises(ValueError, match=message):
            build_approx([TWO], depth, branching, 0.3)

    def test_point_counts_example(self):
        a = build_approx([TWO], 1, 2, 1 / 3)
        assert len(a.space.points) == 3 * 2 + 2
        assert len(a.vertices) == 3
        child_diam = submatrix(a.space, copy_points(a, "t.0")).max()
        assert child_diam == pytest.approx(1 / 3)

    def test_depth_zero(self):
        a = build_approx([TWO], 0, 1, 0.5)
        assert a.vertices == ("t",)
        assert len(a.space.points) == 2 + 1
        assert a.ends == {"t": "end|t"}

    def test_every_copy_carries_all_classes(self):
        a = build_approx([TWO, circle_net()], 1, 2, 1 / 3)
        for t in a.vertices:
            for ci in range(2):
                assert a.class_points(t, ci)

    def test_labels_partition_points(self):
        a = build_approx([TWO, circle_net(3)], 2, 2, 1 / 3)
        assert set(a.labels) == set(a.space.points)
        copy_total = sum(len(copy_points(a, t)) for t in a.vertices)
        assert copy_total + len(a.ends) == len(a.space.points)

    def test_copies_embed_exactly(self):
        xs = [TWO, circle_net()]
        a = build_approx(xs, 2, 2, 1 / 3)
        union = disjoint_union(xs)
        for t in a.vertices:
            j = a.tree.depth[a.tree.index[t]]
            for ci, x in enumerate(xs):
                got = submatrix(a.space, a.class_points(t, ci))
                assert np.array_equal(got, (1 / 3) ** j * x.dist)
            copy = submatrix(a.space, copy_points(a, t))
            assert np.array_equal(copy, (1 / 3) ** j * union.dist)

    def test_deterministic(self):
        a = build_approx([TWO], 2, 2, 1 / 3)
        b = build_approx([TWO], 2, 2, 1 / 3)
        assert a.space.points == b.space.points
        assert np.array_equal(a.space.dist, b.space.dist)

    def test_space_is_a_metric(self):
        a = build_approx([TWO, circle_net(3)], 2, 2, 1 / 3)
        FiniteMetricSpace(a.space.points, a.space.dist)  # full re-validation

    def test_cross_copy_distance_goes_through_gluing(self):
        # parent anchor chain: d(x, child point) = d(x, glue) + d(glue, y)
        a = build_approx([ONE], 1, 1, 0.5)
        d_root_child = a.space.distance("t|0|o", "t.0|0|o")
        # root slot radius 0.5*0.5, child parent-slot radius 0.5*0.5*0.5
        assert d_root_child == pytest.approx(0.25 + 0.125)

    @pytest.mark.parametrize("xs, depth, branching, scale, skip", [
        ([TWO], 3, 3, 1 / 3, False),
        ([circle_net()], 3, 3, 1 / 3, False),
        ([TWO], 3, 3, 1.0, True),
        ([circle_net(), TWO], 2, 3, 1 / 3, False),
    ], ids=["two-point", "circle5", "unscaled-control", "circle5+two"])
    def test_matches_closure_oracle(self, xs, depth, branching, scale, skip):
        a = build_approx(xs, depth, branching, scale, _skip_scale_check=skip)
        names, labels, ends, dist = closure_oracle(xs, depth, branching, scale)
        assert list(a.space.points) == names
        assert a.labels == labels
        assert a.ends == ends
        assert float(np.abs(a.space.dist - dist).max()) <= 1e-12

    @pytest.mark.parametrize("xs, depth, branching, scale", [
        ([TWO], 0, 3, 1 / 3),
        ([TWO], 3, 3, 1 / 3),
        ([circle_net()], 2, 2, 0.37),
        ([circle_net(), TWO], 2, 3, 0.1),
        ([circle_net(3), ONE, TWO], 3, 2, 0.5),
    ] + [(xs, depth, branching, 1 / 3)
         for _, xs, depth, branching in sweep_configs()],
        ids=["d0", "two-point", "circle5", "circle5+two", "three-class"]
        + [c[0] for c in sweep_configs()])
    def test_matches_wedge_oracle_bit_for_bit(self, xs, depth, branching, scale):
        a = build_approx(xs, depth, branching, scale)
        expected = wedge_oracle(xs, depth, branching, scale)
        assert a.space.dist.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("xs, depth, branching", [
        (xs, depth, branching) for _, xs, depth, branching in sweep_configs()
    ] + [([circle_net()], 5, 3)],
        ids=[c[0] for c in sweep_configs()] + ["circle5-d5-b3"])
    def test_matches_depth_first_oracle_bit_for_bit(self, xs, depth,
                                                    branching):
        union = disjoint_union(xs)
        args = (union, depth, branching, 1 / 3,
                *approx_mod._radius_and_ratio(union))
        got = approx_mod._glued_matrix(*args)
        assert got.tobytes() == depth_first_oracle(*args).tobytes()

    def test_space_keeps_the_glued_matrix(self, monkeypatch):
        # the space takes the glued matrix over instead of copying it
        built = []
        glued = approx_mod._glued_matrix

        def keep(*args):
            built.append(glued(*args))
            return built[-1]
        monkeypatch.setattr(approx_mod, "_glued_matrix", keep)
        a = build_approx([TWO, circle_net(3)], 2, 2, 1 / 3)
        assert a.space.dist is built[0]

    @pytest.mark.parametrize("cells", [1, 7, 64, 2 ** 14])
    def test_breadth_first_reorders_in_place(self, monkeypatch, cells):
        # any square matrix and order, in blocks down to one row or column
        monkeypatch.setattr(approx_mod, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(cells)
        mat = rng.random((23, 23))
        order = rng.permutation(23)
        expected = mat[order][:, order]
        approx_mod._breadth_first(mat, order)
        assert np.array_equal(mat, expected)


# ---------------------------------------------------------------------------
# Basis sets and half-spaces of the copies' extended models.

def vertex_id(a, t):
    if t not in a.tree.index:
        raise ValueError(f"unknown tree vertex {t!r}")
    return a.tree.index[t]


def copy_points(a, t):
    return [a.space.points[i] for i in a._copy_idx[vertex_id(a, t)]]


def children(a, t):
    return tuple(a.vertices[c] for c in a.tree.children[vertex_id(a, t)])


def edges(a):
    names, parent = a.vertices, a.tree.parent
    return [(names[parent[v]], names[v]) for v in range(1, len(names))]


def subtree_points(a, t):
    pts = set()
    for v in a.tree.subtree(vertex_id(a, t)):
        pts.update(copy_points(a, a.vertices[v]))
        if a.vertices[v] in a.ends:
            pts.add(a.ends[a.vertices[v]])
    return pts


def all_points(a):
    return set(a.space.points)


def slot_tokens(a, t):
    """Selectable directions of copy t's extended model."""
    v = vertex_id(a, t)
    tokens = ["slot:parent"] if v else []
    tokens.extend(f"slot:child:{i}" for i in range(len(a.tree.children[v])))
    if not a.tree.children[v]:
        tokens.append("slot:end")
    return tokens


def model_selection(a, t):
    """The whole of copy t's model: its points plus every slot token."""
    return copy_points(a, t) + slot_tokens(a, t)


def basic_open_set(a, t, u) -> set:
    """Points selected by u, a subset of copy t's points and slot tokens.

    Copy points select themselves; the parent slot selects everything
    outside t's subtree; a child slot selects that child's whole subtree
    (ends included); a leaf's end slot selects its end point.
    """
    copy_pts = set(copy_points(a, t))
    valid_tokens = set(slot_tokens(a, t))
    out = set()
    for member in u:
        if member in copy_pts:
            out.add(member)
        elif member in valid_tokens:
            if member == "slot:parent":
                out |= all_points(a) - subtree_points(a, t)
            elif member == "slot:end":
                out.add(a.ends[t])
            else:
                i = int(member.rsplit(":", 1)[1])
                out |= subtree_points(a, children(a, t)[i])
        else:
            raise ValueError(f"{member!r} is not a point or slot of copy {t!r}")
    return out


def half_space(a, head, tail) -> set:
    """The head's side of the tree edge {head, tail}."""
    index, parent = a.tree.index, a.tree.parent
    if head not in index or tail not in index:
        raise ValueError("half_space needs two tree vertices")
    h, t = index[head], index[tail]
    if parent[h] == t:
        away = "slot:parent"
    elif parent[t] == h:
        away = f"slot:child:{a.tree.children[h].index(t)}"
    else:
        raise ValueError(f"({head!r}, {tail!r}) is not a tree edge")
    selection = [m for m in model_selection(a, head) if m != away]
    return basic_open_set(a, head, selection)


@pytest.fixture(scope="module")
def approx():
    return build_approx([TWO], 2, 2, 1 / 3)


class TestBasisSets:
    def test_whole_model_selects_everything(self, approx):
        for t in approx.vertices:
            sel = model_selection(approx, t)
            assert basic_open_set(approx, t, sel) == all_points(approx)

    def test_copy_points_only(self, approx):
        got = basic_open_set(approx, "t.0", copy_points(approx, "t.0"))
        assert got == set(copy_points(approx, "t.0"))

    def test_child_slot_selects_subtree(self, approx):
        got = basic_open_set(approx, "t", ["slot:child:0"])
        expected = (set(copy_points(approx, "t.0"))
                    | set(copy_points(approx, "t.0.0"))
                    | set(copy_points(approx, "t.0.1"))
                    | {approx.ends["t.0.0"], approx.ends["t.0.1"]})
        assert got == expected

    def test_parent_slot_selects_complement(self, approx):
        got = basic_open_set(approx, "t.0", ["slot:parent"])
        assert got == all_points(approx) - subtree_points(approx, "t.0")

    def test_end_slot(self, approx):
        got = basic_open_set(approx, "t.0.1", ["slot:end"])
        assert got == {approx.ends["t.0.1"]}

    def test_errors(self, approx):
        with pytest.raises(ValueError, match="unknown tree vertex"):
            basic_open_set(approx, "nope", [])
        with pytest.raises(ValueError, match="not a point or slot"):
            basic_open_set(approx, "t", ["t.0|0|a"])

    def test_half_space_partition(self, approx):
        for parent, child in edges(approx):
            plus = half_space(approx, child, parent)
            minus = half_space(approx, parent, child)
            assert plus | minus == all_points(approx)
            assert not plus & minus
            # label saturation: every copy lies wholly inside one side
            for t in approx.vertices:
                pts = set(copy_points(approx, t))
                assert pts <= plus or pts <= minus

    def test_half_space_is_subtree(self, approx):
        assert half_space(approx, "t.1", "t") == subtree_points(approx, "t.1")

    def test_half_space_error(self, approx):
        with pytest.raises(ValueError, match="not a tree edge"):
            half_space(approx, "t.0.0", "t.1")
        with pytest.raises(ValueError, match="tree vertices"):
            half_space(approx, "t", None)


def a5_pair_oracle(a, separation_gap):
    """(a5) over every pair of tree vertices, as first written: the widest
    edge gap on the pair's path against the tolerance at its shallowest
    edge.  Paths are walked in the parent map.  Returns (pairs, worst
    ratio, worst pair)."""
    parent = a.tree_parent

    def chain(t):
        out = [t]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    idx = a.space.index
    gap = {}
    for t in a.vertices[1:]:
        inside = subtree_points(a, t)
        rows = [idx[p] for p in inside]
        cols = [idx[p] for p in all_points(a) - inside]
        gap[t] = float(a.space.dist[np.ix_(rows, cols)].min())
    pairs, worst, worst_pair = 0, math.inf, None
    for i, t1 in enumerate(a.vertices):
        for t2 in a.vertices[i + 1:]:
            up1, up2 = chain(t1), chain(t2)
            meet = next(v for v in up1 if v in up2)
            path = up1[:up1.index(meet)] + up2[:up2.index(meet)]
            eff = separation_gap * a.scale ** (len(chain(meet)) - 1 - a.depth)
            ratio = max(gap[c] for c in path) / eff
            pairs += 1
            if ratio < worst:
                worst, worst_pair = ratio, (t1, t2)
    return pairs, worst, worst_pair


def sorted_set_oracle(a, boundary_gap, separation_gap):
    """(a3) and (a5) as first written: one np.ix_ block per copy and per
    tree edge, its columns the sorted names outside the copy or subtree.
    Returns (a3 worst ratio, a3 worst point, a5 worst ratio, a5 worst
    pair)."""
    dist, idx = a.space.dist, a.space.index
    level = dict(zip(a.tree.names, a.tree.depth))
    worst_ratio, worst_point = 0.0, None
    for t in a.vertices:
        pts = copy_points(a, t)
        outside = sorted(all_points(a) - set(pts))
        gaps = dist[np.ix_([idx[p] for p in pts],
                           [idx[p] for p in outside])].min(axis=1)
        ratio = float(gaps.max()) / (boundary_gap * a.scale ** (level[t] - a.depth))
        if ratio > worst_ratio:
            worst_ratio, worst_point = ratio, pts[int(gaps.argmax())]
    worst_pair_ratio, worst_pair = math.inf, None
    for child, t in enumerate(a.vertices[1:], 1):
        inside = subtree_points(a, t)
        rows = [idx[p] for p in sorted(inside)]
        cols = [idx[p] for p in sorted(all_points(a) - inside)]
        gap = float(dist[np.ix_(rows, cols)].min())
        parent = a.tree.parent[child]
        ratio = gap / (separation_gap * a.scale ** (a.tree.depth[parent] - a.depth))
        if ratio < worst_pair_ratio:
            worst_pair_ratio, worst_pair = ratio, (a.vertices[parent], t)
    return worst_ratio, worst_point, worst_pair_ratio, worst_pair


def jittered(a, jitter, seed):
    """a with every distance scaled by a random symmetric factor in
    [2, 2 + 2 * jitter): uneven gaps, so that witnesses move."""
    rng = np.random.default_rng(seed)
    f = 1 + jitter * rng.random(a.space.dist.shape)
    space = FiniteMetricSpace(a.space.points, a.space.dist * (f + f.T),
                              _check=False)
    return AmalgamApprox(source_spaces=a.source_spaces, depth=a.depth,
                         branching=a.branching, scale=a.scale, r0=a.r0,
                         mu=a.mu, tree=a.tree, space=space,
                         labels=a.labels, ends=a.ends)


def check_conditions_oracle(a, tol=None):
    """check_conditions as it was written per copy: a submatrix per copy
    and class for (a1) and (a2), a masked copy of each copy's rows for
    (a3), a Python loop over every point for (a4), and a masked copy of
    each subtree's rows for (a5)."""
    union_diam, default_gap, default_sep = _default_gaps(a)
    resolved = (tol or ConditionTolerances()).resolve(
        boundary_gap=default_gap, density_gap=default_gap,
        separation_gap=default_sep, iso=None)
    boundary_gap, density_gap, separation_gap, iso = resolved.values()
    dist = a.space.dist
    idx = a.space.index
    scale, depth = a.scale, a.depth
    tree = a.tree
    level = dict(zip(tree.names, tree.depth))
    conditions = {}
    worst_dev = 0.0
    for t, ci in itertools.product(a.vertices, range(len(a.source_spaces))):
        expected = scale ** level[t] * a.source_spaces[ci].dist
        got = submatrix(a.space, a.class_points(t, ci))
        worst_dev = max(worst_dev, float(np.abs(got - expected).max()))
    conditions["a1"] = {
        "verdict": "pass" if worst_dev <= iso else "fail",
        "max_deviation": worst_dev,
    }
    level_diams = []
    for j in range(depth + 1):
        diams = [submatrix(a.space, copy_points(a, t)).max()
                 for t in a.vertices if level[t] == j]
        level_diams.append(float(max(diams)))
    bound_ok = all(d <= scale ** j * union_diam + _EXACT_SLACK
                   for j, d in enumerate(level_diams))
    shrinking = all(nxt < prev or prev == 0.0
                    for prev, nxt in zip(level_diams, level_diams[1:]))
    conditions["a2"] = {
        "verdict": "pass" if bound_ok and shrinking else "fail",
        "level_diameters": level_diams,
        "bound_ok": bound_ok,
        "strictly_shrinking": shrinking,
    }
    worst_ratio = 0.0
    worst_point = None
    for t in a.vertices:
        pts = copy_points(a, t)
        rows = [idx[p] for p in pts]
        block = dist[rows]
        block[:, rows] = math.inf
        gaps = block.min(axis=1)
        eff = boundary_gap * scale ** (level[t] - depth)
        ratio = float(gaps.max()) / eff
        if ratio > worst_ratio:
            worst_ratio, worst_point = ratio, pts[int(gaps.argmax())]
    conditions["a3"] = {
        "verdict": "pass" if worst_ratio <= 1 + _EXACT_SLACK else "fail",
        "worst_gap_over_tolerance": worst_ratio,
        "worst_point": worst_point,
    }
    worst_ratio = 0.0
    worst = None
    for ci in range(len(a.source_spaces)):
        class_cols = [idx[p] for t in a.vertices for p in a.class_points(t, ci)]
        gaps = dist[:, class_cols].min(axis=1)
        for name, gap in zip(a.space.points, gaps):
            label = a.labels[name]
            at = label["tree_vertex"] if label["kind"] == "copy" else label["leaf"]
            point_depth = tree.depth[tree.index[at]]
            eff = density_gap * scale ** (point_depth - depth)
            ratio = float(gap) / eff
            if ratio > worst_ratio:
                worst_ratio, worst = ratio, (name, ci)
    conditions["a4"] = {
        "verdict": "pass" if worst_ratio <= 1 + _EXACT_SLACK else "fail",
        "worst_gap_over_tolerance": worst_ratio,
        "worst_case": worst,
    }
    n_pairs = len(tree) * (len(tree) - 1) // 2
    if n_pairs and not (separation_gap > 0 and scale > 0):
        raise ValueError("a5 needs a positive separation gap and scale, got "
                         f"{separation_gap!r} and {scale!r}")
    worst_pair_ratio = math.inf
    worst_pair = None
    own = a._copy_idx.tolist()
    for t, end in a.ends.items():
        own[tree.index[t]].append(idx[end])
    for child, t in enumerate(a.vertices[1:], 1):
        rows = [p for v in tree.subtree(child) for p in own[v]]
        block = dist[rows]
        block[:, rows] = math.inf
        gap = float(block.min())
        parent = tree.parent[child]
        ratio = gap / (separation_gap * scale ** (tree.depth[parent] - depth))
        if ratio < worst_pair_ratio:
            worst_pair_ratio, worst_pair = ratio, (a.vertices[parent], t)
    conditions["a5"] = {
        "verdict": ("pass" if n_pairs == 0
                    or worst_pair_ratio >= 1 - _EXACT_SLACK else "fail"),
        "location_pairs": n_pairs,
        "worst_gap_over_tolerance": (None if n_pairs == 0
                                     else worst_pair_ratio),
        "worst_pair": worst_pair,
    }
    return ConditionReport(conditions, resolved)


# default, tight (every condition fails, witnesses move), loose, mixed
TOLERANCE_SETS = [
    None,
    ConditionTolerances(boundary_gap=1e-3, density_gap=1e-3,
                        separation_gap=10.0, iso=0.0),
    ConditionTolerances(boundary_gap=10.0, density_gap=10.0,
                        separation_gap=1e-3, iso=1.0),
    ConditionTolerances(boundary_gap=0.2, density_gap=0.05,
                        separation_gap=0.2, iso=-1.0),
]


class TestCheckConditions:
    @pytest.mark.parametrize("tag, xs, depth, branching", sweep_configs(),
                             ids=[c[0] for c in sweep_configs()])
    def test_a3_a5_match_sorted_set_oracle(self, tag, xs, depth, branching):
        built = build_approx(xs, depth, branching, 1 / 3)
        for a in (built, jittered(built, 0.5, depth * 3 + branching)):
            for boundary, sep in ((None, None), (1e-3, 1e-3), (10.0, 0.2)):
                report = check_conditions(a, ConditionTolerances(
                    boundary_gap=boundary, separation_gap=sep))
                a3, a5 = report.conditions["a3"], report.conditions["a5"]
                want = sorted_set_oracle(a, report.tolerances["boundary_gap"],
                                         report.tolerances["separation_gap"])
                assert (a3["worst_gap_over_tolerance"], a3["worst_point"]) == want[:2]
                if depth:
                    assert (a5["worst_gap_over_tolerance"], a5["worst_pair"]) == want[2:]

    @pytest.mark.parametrize("tag, xs, depth, branching", sweep_configs(),
                             ids=[c[0] for c in sweep_configs()])
    def test_reports_match_per_copy_oracle(self, tag, xs, depth, branching):
        built = build_approx(xs, depth, branching, 1 / 3)
        for a in (built, jittered(built, 0.5, depth * 3 + branching)):
            for tol in TOLERANCE_SETS:
                assert check_conditions(a, tol).to_dict() == \
                    check_conditions_oracle(a, tol).to_dict()

    @pytest.mark.parametrize("option", ["boundary_gap", "density_gap"])
    def test_zero_gap_is_refused(self, option):
        # the per-level tolerance divides the gaps: a zero one is refused
        a = build_approx([TWO], 1, 2, 1 / 3)
        with pytest.raises(ValueError, match="vanishes at a tree level"):
            check_conditions(a, ConditionTolerances(**{option: 0.0}))

    def test_all_pass_small(self):
        report = check_conditions(build_approx([TWO], 2, 2, 1 / 3))
        assert report.all_pass()
        assert report.conditions["a1"]["max_deviation"] == 0.0
        assert report.conditions["a2"]["level_diameters"] == [
            pytest.approx(1.0), pytest.approx(1 / 3), pytest.approx(1 / 9)]

    def test_all_pass_two_classes(self):
        report = check_conditions(build_approx([TWO, circle_net(3)], 2, 2, 0.4))
        assert report.all_pass()

    def test_single_point_source(self):
        report = check_conditions(build_approx([ONE], 2, 2, 1 / 3))
        assert report.all_pass()

    def test_depth_zero_vacuous(self):
        report = check_conditions(build_approx([TWO], 0, 2, 1 / 3))
        assert report.all_pass()
        assert report.conditions["a5"]["location_pairs"] == 0

    def test_unscaled_variant_fails_a2(self):
        a = build_approx([TWO], 2, 2, 1.0, _skip_scale_check=True)
        report = check_conditions(a)
        assert report.conditions["a2"]["verdict"] == "fail"
        assert not report.conditions["a2"]["strictly_shrinking"]

    def test_tolerance_overrides(self):
        a = build_approx([TWO], 2, 2, 1 / 3)
        strict = check_conditions(a, ConditionTolerances(boundary_gap=1e-6))
        assert strict.conditions["a3"]["verdict"] == "fail"
        greedy = check_conditions(a, ConditionTolerances(separation_gap=100.0))
        assert greedy.conditions["a5"]["verdict"] == "fail"
        loose = check_conditions(a, ConditionTolerances(
            boundary_gap=100.0, density_gap=100.0, separation_gap=1e-9))
        assert loose.all_pass()

    def test_resolve_fills_only_unset_fields(self):
        tol = ConditionTolerances(boundary_gap=2.0, iso=0.5)
        assert tol.resolve(boundary_gap=1.0, density_gap=3.0, iso=None) == {
            "boundary_gap": 2.0, "density_gap": 3.0, "iso": 0.5}
        assert tol.resolve(separation_gap=0.0) == {"separation_gap": 0.0}
        a = build_approx([TWO], 2, 2, 1 / 3)
        defaults = check_conditions(a).tolerances
        assert check_conditions(a, ConditionTolerances(
            density_gap=7.0)).tolerances == {**defaults, "density_gap": 7.0}

    @pytest.mark.parametrize("xs, depth, branching, scale", [
        ([TWO], 3, 3, 1 / 3), ([circle_net()], 3, 2, 1 / 3),
        ([TWO], 3, 3, 1.0), ([circle_net(), TWO], 2, 3, 0.4),
        ([ONE], 2, 1, 0.5)])
    @pytest.mark.parametrize("jitter", [0.0, 0.5])
    def test_a5_matches_all_pairs_oracle(self, xs, depth, branching, scale,
                                         jitter):
        a = build_approx(xs, depth, branching, scale, _skip_scale_check=True)
        if jitter:
            # uneven edge gaps, so that paths and turning points matter
            a = jittered(a, jitter, depth + branching)
        for sep in (None, 1e-3, 0.2, 100.0, math.inf):
            a5 = check_conditions(
                a, ConditionTolerances(separation_gap=sep)).conditions["a5"]
            gap = sep if sep is not None else \
                check_conditions(a).tolerances["separation_gap"]
            pairs, worst, pair = a5_pair_oracle(a, gap)
            assert a5["location_pairs"] == pairs
            assert a5["worst_gap_over_tolerance"] == worst
            assert a5["worst_pair"] == pair

    def test_a5_refuses_non_positive_gap(self):
        a = build_approx([TWO], 1, 2, 1 / 3)
        for sep in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="positive separation gap"):
                check_conditions(a, ConditionTolerances(separation_gap=sep))

    def test_a5_needs_no_gap_without_pairs(self):
        # a one-vertex tree has no pair to divide by the gap: vacuous pass
        a = build_approx([TWO], 0, 2, 1 / 3)
        for sep in (0.0, -1.0, math.nan):
            a5 = check_conditions(
                a, ConditionTolerances(separation_gap=sep)).conditions["a5"]
            assert a5["verdict"] == "pass"
            assert a5["location_pairs"] == 0

    def test_report_shape(self):
        report = check_conditions(build_approx([TWO], 1, 2, 1 / 3))
        doc = report.to_dict()
        assert set(doc["conditions"]) == {"a1", "a2", "a3", "a4", "a5"}
        assert doc["all_pass"] is True
        assert doc["tolerances"]["boundary_gap"] > 0


class TestLabelShape:
    """The checks read every copy as one block of the source points, so
    labels that do not give every vertex one copy of each are refused."""

    @staticmethod
    def remade(a, labels=None, ends=None):
        return AmalgamApprox(source_spaces=a.source_spaces, depth=a.depth,
                             branching=a.branching, scale=a.scale, r0=a.r0,
                             mu=a.mu, tree=a.tree, space=a.space,
                             labels=labels or a.labels, ends=ends or a.ends)

    def test_build_labels_are_kept(self):
        a = build_approx([TWO, circle_net(3)], 2, 2, 1 / 3)
        assert np.array_equal(self.remade(a)._copy_idx, a._copy_idx)

    @pytest.mark.parametrize("name, change, at", [
        ("t.0|0|b", {"source_point": "a"}, ("t.0", 0)),
        ("t.0|0|b", {"tree_vertex": "t.1"}, ("t.0", 0)),
        ("t.0|0|b", {"class": 1, "source_point": "c0"}, ("t.0", 0)),
        ("t.1|1|c2", None, ("t.1", 1)),
        ("end|t.1", {"kind": "copy", "tree_vertex": "t", "class": 1,
                     "source_point": "c1"}, ("t", 1)),
    ], ids=["repeated-point", "moved-point", "other-class", "empty-slot",
            "slot-filled-twice"])
    def test_uneven_copies_are_refused(self, name, change, at):
        a = build_approx([TWO, circle_net(3)], 1, 2, 1 / 3)
        labels = dict(a.labels)
        if change is None:
            del labels[name]
        else:
            labels[name] = dict(labels[name], **change)
        vertex, ci = at
        with pytest.raises(ValueError) as refused:
            self.remade(a, labels=labels)
        assert str(refused.value) == (f"tree vertex {vertex!r} does not hold "
                                      f"one copy of each point of source {ci}")

    def test_ends_must_list_each_end_once_under_its_leaf(self):
        a = build_approx([TWO], 1, 2, 1 / 3)
        swapped = {"t.0": a.ends["t.1"], "t.1": a.ends["t.0"]}
        doubled = {"t.0": a.ends["t.0"], "t.1": a.ends["t.0"]}
        for ends in (swapped, doubled, {"t.0": a.ends["t.0"]}):
            with pytest.raises(ValueError, match="ends must list"):
                self.remade(a, ends=ends)


class TestBundle:
    def test_round_trip(self, tmp_path):
        a = build_approx([TWO, circle_net(3)], 2, 2, 1 / 3)
        save_bundle(a, tmp_path / "m.csv", tmp_path / "side.json")
        b = load_bundle(tmp_path / "m.csv", tmp_path / "side.json")
        assert b.space == a.space
        assert b.labels == a.labels
        assert b.ends == a.ends
        assert b.tree_parent == a.tree_parent
        r1 = check_conditions(a).to_dict()
        r2 = check_conditions(b).to_dict()
        assert r1 == r2

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_round_trip_at_large_scale(self, tmp_path, scale):
        # rounding in the glued sums grows with the distances; the load
        # check's slack must grow with them
        big = circle_net()
        big = FiniteMetricSpace(big.points, scale * big.dist)
        a = build_approx([big], 3, 3, 1 / 3)
        save_bundle(a, tmp_path / "m.csv", tmp_path / "side.json")
        b = load_bundle(tmp_path / "m.csv", tmp_path / "side.json")
        assert b.space == a.space
        assert check_conditions(b).all_pass()

    def test_tamper_detection(self, tmp_path):
        a = build_approx([TWO], 1, 2, 1 / 3)
        save_bundle(a, tmp_path / "m.csv", tmp_path / "side.json")
        side = (tmp_path / "side.json").read_text()
        (tmp_path / "side.json").write_text(
            side.replace('"amalgam-approx"', '"other"'))
        with pytest.raises(ValueError, match="bundle"):
            load_bundle(tmp_path / "m.csv", tmp_path / "side.json")

    def test_label_coverage_checked(self, tmp_path):
        import json
        a = build_approx([TWO], 1, 2, 1 / 3)
        save_bundle(a, tmp_path / "m.csv", tmp_path / "side.json")
        doc = json.loads((tmp_path / "side.json").read_text())
        doc["labels"].pop(a.space.points[0])
        (tmp_path / "side.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="labels"):
            load_bundle(tmp_path / "m.csv", tmp_path / "side.json")

    def test_load_and_save_hold_one_matrix(self, tmp_path):
        # circle9, depth 3, branching 3: 387 points; the traced peaks are
        # in units of one n x n float64 matrix
        a = build_approx([circle_net(9)], 3, 3, 1 / 3)
        cells = 8 * len(a.space) ** 2
        paths = tmp_path / "m.csv", tmp_path / "side.json"
        tracemalloc.start()
        try:
            save_bundle(a, *paths)
            saved = tracemalloc.get_traced_memory()[1] / cells
            tracemalloc.reset_peak()
            b = load_bundle(*paths)
            loaded = tracemalloc.get_traced_memory()[1] / cells
        finally:
            tracemalloc.stop()
        assert b.space.validation == "rebuild" and b.space == a.space
        assert saved <= 1.5, saved
        assert loaded <= 2.6, loaded
