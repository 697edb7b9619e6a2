"""Finite metric approximations of a dense amalgam of compact spaces.

The construction places a scaled copy of the disjoint union of the input
spaces at every vertex of a truncated b-ary tree, extends each copy by
peripheral points (one per incident tree edge slot), glues copies along
tree edges at matching peripheral points, removes the glued points, and
adds one synthetic end point per leaf at the leaf's deepest unused slot.

Every glued point is a cut point between the two sides of its tree edge.
So the distance between points of two copies is the sum of the legs
through the gluing points on the tree path between them, and distances
inside a single copy are never shortened: each copy embeds isometrically
at its scale, which is what the condition checks rely on.

The tree is a `RootedTree`: names such as "t.0.2" appear only in point
names, labels and the sidecar, and depths, children and subtrees are read
from the tree.  The same cut points let (a5) scan the tree's edges rather
than all pairs of vertices.
"""

import bisect
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._json import SHAPES, document, loads, require
from .metric import (
    _BLOCK_CELLS,
    TRIANGLE_SLACK,
    FiniteMetricSpace,
    disjoint_union,
    read_matrix_csv,
    write_matrix_csv,
)
from .tree import RootedTree

ROOT = "t"

_EXACT_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Run-wise reductions.

class _Runs:
    """Runs of row indices, reduced one position at a time.

    members holds the runs end to end and lengths their lengths.  For a
    reduction the runs are taken longest first (ties in run order), so the
    runs longer than k are a prefix: step k gathers the k-th member row of
    each of them and folds it into that prefix of the output with one
    ufunc call, one step per position up to the longest run.  A run's
    output row is then its ufunc folded over its member rows.  Runs of
    columns are folded the same way.

    This replaces ``ufunc.reduceat`` over a gathered copy of all member
    rows.  numpy runs reduceat along rows at about 7 ns a cell: on a
    307-point structure the subsets' nearest rows took 0.59 ms that way
    and 0.12 ms run-wise, and a second, maximum, pass over the same rows
    (0.79 ms) served only the diameters, which now come from the runs'
    diagonal blocks.  min and max are exact and do not depend on grouping
    or order, so every entry is bit for bit the reduceat one.
    """

    def __init__(self, members, lengths):
        self.members = members = np.asarray(members, dtype=np.intp)
        self.lengths = lengths = list(lengths)
        self.starts = list(itertools.accumulate(lengths, initial=0))[:-1]
        # slots[i, k] is the position in members of run i's k-th member,
        # of its last one past its end
        self.slots = (np.array(self.starts)[:, None]
                      + np.minimum(np.arange(max(lengths)),
                                   np.array(lengths)[:, None] - 1))
        order = sorted(range(len(lengths)), key=lengths.__getitem__,
                       reverse=True)  # stable: ties keep run order
        ranked = members[self.slots[order]]
        longer = [-lengths[i] for i in order]
        self.steps = [ranked[:bisect.bisect_left(longer, -k), k]
                      for k in range(ranked.shape[1])]
        # the rows of out to return in run order; none when the runs are
        # longest first already
        self.inverse = None
        if order != list(range(len(order))):
            self.inverse = np.empty(len(order), dtype=np.intp)
            self.inverse[order] = np.arange(len(order))

    @functools.cached_property
    def owner(self):
        """The run of each member."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)

    def reduce(self, ufunc, array, axis=0):
        """ufunc folded over each run of array's rows (axis 0: out[i] for
        run i) or of its columns (axis 1: out[:, i]).

        out is filled a block of rows at a time, each of about
        _BLOCK_CELLS cells, with every position folded into one block
        before the next: the block stays in cache, and a step's gathered
        rows or columns are a block-sized temporary (see _BLOCK_CELLS).
        On the 2,063-point build's copies (364 runs of 5 rows) that takes
        the fold from 6.6 to 4.7 ms."""
        first, *rest = self.steps
        if axis == 0:
            out = np.empty((len(first), array.shape[1]), dtype=array.dtype)
        else:
            out = np.empty((len(array), len(first)), dtype=array.dtype)
        rows = max(1, _BLOCK_CELLS // out.shape[1])
        for lo in range(0, len(out), rows):
            hi = lo + rows
            block = out[lo:hi]
            if axis == 0:  # the block's runs, position by position
                array.take(first[lo:hi], axis=0, out=block)
                for step in rest:
                    if len(step) <= lo:
                        break
                    head = block[:len(step) - lo]
                    ufunc(head, array[step[lo:hi]], out=head)
            else:  # the block's array rows, all runs
                part = array[lo:hi]
                part.take(first, axis=1, out=block)
                for step in rest:
                    head = block[:, :len(step)]
                    ufunc(head, part.take(step, axis=1), out=head)
        if self.inverse is None:
            return out
        return out[self.inverse] if axis == 0 else out[:, self.inverse]

    def diameters(self, dist):
        """Each run's largest dist between two of its members.

        Each member's row of its run's diagonal block is read through
        slots, the run's members padded by repeats to the longest run;
        repeats change no maximum.  That is sum |run| * longest cells, at
        most one dist row per member."""
        block_rows = dist[self.members[:, None],
                          self.members[self.slots[self.owner]]]
        return block_rows.max(axis=1)[self.slots].max(axis=1)


# ---------------------------------------------------------------------------
# The approximation object.

class AmalgamApprox:
    """Finite approximation: tree, per-vertex scaled copies, glued metric.

    labels maps every final point to {"kind": "copy", "tree_vertex", "class",
    "source_point"} or {"kind": "end", "leaf"}; ends maps each leaf to its
    end point's name; tree is a named RootedTree.  Labels that do not give
    every tree vertex one copy of each source point, a copy's class or
    point that no source space has, or end points that ends does not list
    once under their label's leaf, are refused with ValueError: the
    condition checks read the copies as equal blocks.
    """

    def __init__(self, *, source_spaces, depth, branching, scale, r0, mu,
                 tree, space, labels, ends):
        self.source_spaces = list(source_spaces)
        self.depth = depth
        self.branching = branching
        self.scale = scale
        self.r0 = r0
        self.mu = mu
        self.space = space
        self.labels = dict(labels)
        self.ends = dict(ends)
        self.tree = tree
        self.vertices = self.tree.names

        orders = [{p: i for i, p in enumerate(x.points)}
                  for x in self.source_spaces]
        # vertex v's copy points, class by class in source order, are the
        # space's points _copy_idx[v]; class ci's are the columns
        # _offsets[ci]:_offsets[ci + 1].  A slot no label fills stays -1,
        # and one that two labels fill becomes -2.
        self._offsets = list(itertools.accumulate(map(len, orders), initial=0))
        copy_idx = [[-1] * self._offsets[-1] for _ in self.vertices]
        for name, label in self.labels.items():
            copy = label["kind"] == "copy"
            at = label["tree_vertex"] if copy else label["leaf"]
            if at not in self.tree.index:
                raise ValueError(f"point {name!r} lies at {at!r}, "
                                 "which is not a tree vertex")
            if copy:
                ci = label["class"]
                if not (0 <= ci < len(orders)
                        and label["source_point"] in orders[ci]):
                    raise ValueError(f"label of {name!r} names no point of the "
                                     f"{len(orders)} source spaces")
                row = copy_idx[self.tree.index[at]]
                col = self._offsets[ci] + orders[ci][label["source_point"]]
                row[col] = space.index[name] if row[col] == -1 else -2
        self._copy_idx = np.array(copy_idx, dtype=np.intp).reshape(
            len(self.vertices), self._offsets[-1])
        faults = np.argwhere(self._copy_idx < 0)
        if len(faults):
            v, col = faults[0].tolist()
            raise ValueError(f"tree vertex {self.vertices[v]!r} does not hold one "
                             "copy of each point of source "
                             f"{bisect.bisect_right(self._offsets, col) - 1}")
        for t, e in self.ends.items():
            if not (isinstance(e, str) and e in self.labels
                    and self.labels[e]["kind"] == "end"):
                raise ValueError(f"ends entry {t!r}: {e!r} is no point "
                                 "labelled as an end")
        end_points = {nm for nm, label in self.labels.items()
                      if label["kind"] == "end"}
        if (len(set(self.ends.values())) != len(self.ends)
                or set(self.ends.values()) != end_points
                or any(self.labels[e]["leaf"] != t for t, e in self.ends.items())):
            raise ValueError("ends must list every end point once, each "
                             "under the leaf its label names")

    # -- tree helpers --------------------------------------------------------
    @property
    def tree_parent(self):
        return self.tree.parent_names()

    # -- point bookkeeping ---------------------------------------------------
    def class_points(self, t, ci):
        row = self._copy_idx[self.tree.index[t]]
        return [self.space.points[i] for i in
                row[self._offsets[ci]:self._offsets[ci + 1]].tolist()]


# ---------------------------------------------------------------------------
# Construction.

def _check_recipe(xs, depth, branching, scale, skip_scale_check=False):
    if not xs:
        raise ValueError("need at least one source space")
    for x in xs:
        for p in x.points:
            if not isinstance(p, str) or "|" in p or not p:
                raise ValueError(
                    "source space points must be nonempty strings without '|'")
    if type(depth) is not int or depth < 0:
        raise ValueError("depth must be a non-negative integer")
    if type(branching) is not int or branching < 1:
        raise ValueError("branching must be a positive integer")
    if not skip_scale_check and not 0 < scale <= 0.5:
        raise ValueError("scale must lie in (0, 1/2]")


def _vertex_names(depth, branching):
    """The truncated branching-ary tree's vertices, breadth first: root "t",
    children "<v>.<i>"; vertex v's parent is (v - 1) // branching."""
    names = [ROOT]
    for v in range(1, sum(branching ** j for j in range(depth + 1))):
        names.append(f"{names[(v - 1) // branching]}.{(v - 1) % branching}")
    return names


def _point_names(vertex, union, n_leaves):
    """Copy points "<vertex>|<class>|<point>", then "end|<leaf>" per leaf."""
    return ([f"{t}|{ci}|{p}" for t in vertex for ci, p in union.points]
            + [f"end|{t}" for t in vertex[len(vertex) - n_leaves:]])


def _radius_and_ratio(union):
    """The root copy's peripheral radius r0 and the per-cycle ratio mu."""
    diam = union.diam()
    return (diam / 2 if diam > 0 else 0.5), 0.5


def _glued_matrix(union, depth, branching, scale, r0, mu):
    """The glued metric on every copy's base points, breadth first, then on
    one end per leaf (its deepest slot), breadth first.

    The model at depth j has the base distances d = scale^j d_union and,
    for slots k = 1, 2, ..., the radii r_k = r0 scale^j mu^ceil(k / |base|).
    Peripheral point k lies at r_k + d(x_k, x) from base point x and at
    (r_k + r_l) + d(x_k, x_l) from peripheral point l, its anchor x_k being
    base point k mod |base|; both keep the triangle inequality exactly.

    Every vertex at depth j carries that model, so every subtree rooted at
    depth j has the same matrix S_j; it is built once per level, from the
    leaves up.  S_j holds its root copy's base points (and a leaf's end),
    then b copies of S_{j+1}, depth first; g_j holds the distances from the
    root's parent port (slot 0) to those points.  Child i hangs at the
    child port p_i, the slot after the parent slot if any, which is a cut
    point: a base point x lies at d(x, p_i) + g[t] from point t of the
    child, and point r of child k < i lies at (d(p_i, p_k) + g[r]) + g[t]
    from it.  These are the sums, in the same order, of wedging the
    children onto the whole model one at a time, so the matrix is bit for
    bit the one the vertex-by-vertex gluing gives.

    S_0 is written into the array that is returned, and `_breadth_first`
    then reorders it in place: the build holds that one n x n array, S_1
    and smaller matrices, and a block of cells at a time.
    """
    nb = len(union.points)
    shrink = [mu ** math.ceil(k / nb) for k in range(1, branching + 2)]
    sub = g = None
    for j in reversed(range(depth + 1)):
        base = scale ** j * union.dist
        r0j = r0 * scale ** j
        radii = [r0j * f for f in shrink[:branching + (j > 0)]]
        if not radii[-1] >= sys.float_info.min:
            # halving a normal radius is exact, so the radii then decrease
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
        # cross blocks are summed where they go, with no temporary as large
        # as S_{j+1}, then copied to their transposes
        for i, p in enumerate(ports):
            lo = a + i * s
            mat[lo:lo + s, lo:lo + s] = sub
            cross = np.add((radii[p] + base[p % nb])[:, None], g,
                           out=mat[:a, lo:lo + s])
            mat[lo:lo + s, :a] = cross.T
            for k in range(i):
                lk = a + k * s
                cross = np.add((far(p, ports[k]) + g)[:, None], g,
                               out=mat[lk:lk + s, lo:lo + s])
                mat[lo:lo + s, lk:lk + s] = cross.T
        if j > 0:
            g = np.concatenate([radii[0] + base[0]]
                               + ([[far(0, end)]] if sub is None else [])
                               + [far(0, p) + g for p in ports])
        sub = mat
    if depth and branching > 1:  # else depth first is breadth first
        _breadth_first(mat, _breadth_first_rows(nb, depth, branching))
    return mat


def _breadth_first_rows(nb, depth, branching):
    """The row of S_0 (see `_glued_matrix`) of each point, breadth first.

    |S_depth| = nb + 1 and |S_j| = nb + branching |S_{j+1}|; a vertex's
    rows start after its parent's base points and its elder siblings'
    subtrees, and a leaf's end follows its base points."""
    sizes = [nb + 1]  # |S_j|, from the leaves up
    for _ in range(depth):
        sizes.append(nb + branching * sizes[-1])
    level = starts = [0]  # first rows of the vertices, breadth first
    for s in reversed(sizes[:-1]):
        level = [v + nb + s * i for v in level for i in range(branching)]
        starts = starts + level
    starts = np.array(starts)
    return np.concatenate([(starts[:, None] + np.arange(nb)).ravel(),
                           starts[-len(level):] + nb])


def _breadth_first(mat, order):
    """mat[order][:, order], written over mat.

    Each block of rows takes its columns in order, then each block of
    columns its rows: a block is copied out whole before it is written,
    and no block reads another, so the only temporary is one block of
    about _BLOCK_CELLS cells."""
    step = max(1, _BLOCK_CELLS // len(mat))
    for lo in range(0, len(mat), step):
        mat[lo:lo + step] = mat[lo:lo + step].take(order, 1)
    for lo in range(0, len(mat), step):
        mat[:, lo:lo + step] = mat[:, lo:lo + step].take(order, 0)


def build_approx(xs, depth: int, branching: int, scale: float,
                 *, _skip_scale_check=False) -> AmalgamApprox:
    """Assemble the glued tree of scaled copies.

    scale is the per-level shrink factor lambda in (0, 1/2]; the test hook
    _skip_scale_check admits out-of-range values so checks can be shown to
    fail on them.
    """
    xs = list(xs)
    _check_recipe(xs, depth, branching, scale, _skip_scale_check)
    union = disjoint_union(xs)
    r0, mu = _radius_and_ratio(union)
    vertex = _vertex_names(depth, branching)
    tree = RootedTree([-1] + [(v - 1) // branching
                              for v in range(1, len(vertex))], vertex)
    final = _glued_matrix(union, depth, branching, scale, r0, mu)
    n = len(final)
    assert math.isfinite(final.max()), "tree gluing left the space disconnected"
    # the diagonal is zero by construction
    assert final.min() >= 0 and np.count_nonzero(final) == n * n - n, \
        "gluing collapsed two surviving points"
    leaves = vertex[len(vertex) - branching ** depth:]
    names = _point_names(vertex, union, len(leaves))
    copies = [(t, ci, p) for t in vertex for ci, p in union.points]
    labels = {name: {"kind": "copy", "tree_vertex": t, "class": ci,
                     "source_point": p}
              for name, (t, ci, p) in zip(names, copies)}
    ends = dict(zip(leaves, names[len(copies):]))
    labels.update((name, {"kind": "end", "leaf": t}) for t, name in ends.items())
    space = FiniteMetricSpace(names, final, _check=False)
    return AmalgamApprox(source_spaces=xs, depth=depth, branching=branching,
                         scale=scale, r0=r0, mu=mu, tree=tree,
                         space=space, labels=labels, ends=ends)


def recipe_of(a: AmalgamApprox) -> dict:
    """The build parameters that fix a's matrix, as JSON values."""
    return {"depth": a.depth, "branching": a.branching, "scale": a.scale,
            "source_spaces": [{"points": list(x.points), "dist": x.dist.tolist()}
                              for x in a.source_spaces]}


def _point_count(nb, depth, branching, limit):
    """nb points per tree vertex plus one per leaf, or None past limit;
    the loop stops as soon as the tree outgrows limit."""
    vertices, level = 0, 1
    for j in range(depth + 1):
        vertices += level
        if vertices * nb > limit:
            return None
        if j < depth:
            level *= branching
    return vertices * nb + level


def rebuild_space(recipe, n, sources=None):
    """The space `build_approx` makes from a recipe, when it has n points
    and its axioms are certain; None otherwise.

    recipe is a document with "depth", "branching", "scale" and
    "source_spaces" (a `recipe_of`, or an approximation sidecar); sources
    are the source spaces when the caller has already read them, each
    through the full `FiniteMetricSpace` check.  A recipe with any fault
    (a missing or mistyped field, a source that fails its check, a point
    name with "|", a scale outside (0, 1/2]) gives None, and so does one
    whose point count, vertices * sum|source| + branching^depth, is not n:
    nothing is built for a recipe that claims a larger space.

    Why the returned space is a metric within `TRIANGLE_SLACK`, like a
    space that passed the scan (u = 2^-53, D = depth, diam its diameter):

    1. Each source passed the full check, with a measured worst violation
       v_i; its true worst violation is at most v_i + 3u diam.
    2. Scaling by scale^j <= 1 shrinks violations.  The disjoint union's
       cross distance is at least both diameters, a peripheral point lies
       at its radius plus the base distances from its anchor, and a
       cut-point wedge's cross distances are sums through the cut point:
       each step keeps the triangle inequality exactly, so with exact
       arithmetic on the same inputs the worst violation is at most
       max v_i.
    3. Every entry is a sum of nonnegative terms: at most three per model
       entry (two radii and a scaled distance, itself one product) and one
       model entry per edge of a tree path, which has at most 2D edges.
       So each entry is within (2D + 4)u of its exact value, relatively,
       and a triangle, read as the scan reads it, moves by at most
       (6D + 16)u diam.
    4. The space is returned only when it is finite, positive off the
       diagonal, and max v_i + (6D + 32)u diam <= TRIANGLE_SLACK *
       max(1, diam).  Its diagonal is zero and it is exactly symmetric by
       construction (each block is written with its transpose).

    The budget in 4 is at most 1e-12 * diam for D < 1,495, so a recipe
    whose sources keep the triangle inequality exactly (measured worst 0)
    qualifies at any such depth.
    """
    try:
        if sources is None:
            sources = [FiniteMetricSpace(x["points"], x["dist"])
                       for x in recipe["source_spaces"]]
        depth, branching, scale = (recipe["depth"], recipe["branching"],
                                   recipe["scale"])
        _check_recipe(sources, depth, branching, scale)
        worst = max(x.triangle_violation for x in sources)
        nb = sum(len(x) for x in sources)
        if _point_count(nb, depth, branching, n) != n:
            return None
        union = disjoint_union(sources)
        dist = _glued_matrix(union, depth, branching, scale,
                             *_radius_and_ratio(union))
    except (LookupError, TypeError, ValueError):
        return None
    diam = float(dist.max())
    if not (math.isfinite(diam) and np.count_nonzero(dist) == n * n - n
            and worst + (6 * depth + 32) * 2.0 ** -53 * diam
            <= TRIANGLE_SLACK * max(1.0, diam)):
        return None
    vertex = _vertex_names(depth, branching)
    return FiniteMetricSpace(_point_names(vertex, union, branching ** depth),
                             dist, _check=False)


# ---------------------------------------------------------------------------
# Condition checking.

@dataclass
class ConditionTolerances:
    """Gaps for the finite condition checks.  None leaves a gap to the
    checker, which derives it from the space being checked; `resolve` is
    the one place such a default is filled in."""

    boundary_gap: float = None
    density_gap: float = None
    separation_gap: float = None
    iso: float = 1e-9
    null: float = None

    def resolve(self, **defaults) -> dict:
        """The tolerances a checker reads and records: one per keyword, the
        field's value when set and the keyword's default when it is None."""
        return {key: default if getattr(self, key) is None
                else getattr(self, key) for key, default in defaults.items()}


@dataclass
class ConditionReport:
    conditions: dict
    tolerances: dict = field(default_factory=dict)

    def all_pass(self) -> bool:
        return all(c["verdict"] == "pass" for c in self.conditions.values())

    def to_dict(self) -> dict:
        return {"conditions": self.conditions, "tolerances": self.tolerances,
                "all_pass": self.all_pass()}


def _default_gaps(a: AmalgamApprox):
    union_diam = disjoint_union(a.source_spaces).diam()
    base_scale = union_diam if union_diam > 0 else 2 * a.r0
    gap = 2 * a.scale ** a.depth * base_scale
    slots = a.branching if a.depth == 0 else a.branching + 1
    n_union = sum(len(x) for x in a.source_spaces)
    r_min = a.r0 * a.mu ** math.ceil(slots / n_union)
    return union_diam, gap, a.scale ** a.depth * r_min


def _level_tolerances(gap, scale, depth, levels, what):
    """gap * scale^(j - depth) for the tree levels j, one Python float
    each.  The checks divide by them, so a zero one is refused."""
    tols = [gap * scale ** (j - depth) for j in range(levels)]
    if 0.0 in tols:
        raise ValueError(f"{what} gap {gap!r} at scale {scale!r} vanishes "
                         "at a tree level")
    return tols


def _worst(ratios):
    """(largest ratio, its first flat index), or (0.0, None) when none
    exceeds 0: what a scan from 0.0 keeping each strictly larger ratio
    finds, NaN never being larger."""
    above = ratios > 0.0
    if not above.any():
        return 0.0, None
    at = int(np.where(above, ratios, -math.inf).argmax())
    return float(ratios.flat[at]), at


def check_conditions(a: AmalgamApprox, tol: ConditionTolerances = None) -> ConditionReport:
    """Per-condition verdicts with achieved gaps.

    Gap tolerances are stated at the deepest level and rescaled by
    scale^(level - depth) for shallower points: the truncation only provides
    geometry at each copy's own scale.

    Each condition reads the matrix in a few batched steps, never one copy
    at a time: one gather of every copy's diagonal block serves (a1) and
    (a2).  (a3)-(a5) read the atoms, each copy's class subsets and each
    end point, through the table of every atom's least distance to every
    point, reduced run-wise from the matrix.  (a5) reads the atoms' set
    distances over the pre-order intervals of a tree that hangs each end
    below its leaf and each class subset but the first below its vertex.
    """
    tree = a.tree
    levels = max(tree.depth) + 1
    # a hand-written sidecar may hold any numbers; the checks take its
    # tree's depth, ratios in (0, 1] and numbers within a float's range
    big = sys.float_info.max
    if not (type(a.depth) is int and a.depth == levels - 1
            and 0 < a.r0 <= big
            and type(a.branching) is int and 1 <= a.branching <= big
            and 0 < a.scale <= 1 and 0 < a.mu <= 1):
        raise ValueError("depth, branching, scale, r0 and mu do not fit a "
                         f"tree of depth {levels - 1}")
    union_diam, default_gap, default_sep = _default_gaps(a)
    resolved = (tol or ConditionTolerances()).resolve(
        boundary_gap=default_gap, density_gap=default_gap,
        separation_gap=default_sep, iso=None)
    boundary_gap, density_gap, separation_gap, iso = resolved.values()
    dist = a.space.dist
    scale, depth = a.scale, a.depth
    level = np.array(tree.depth)
    copies = a._copy_idx
    n_vertices = len(copies)
    conditions = {}

    # (a1): each labelled subset is the source space at its vertex's scale
    blocks = dist[copies[:, :, None], copies[:, None, :]]
    factor = np.array([scale ** j for j in range(levels)])[level, None, None]
    worst_dev = 0.0
    offsets = a._offsets
    for x, lo, hi in zip(a.source_spaces, offsets, offsets[1:]):
        got = blocks[:, lo:hi, lo:hi]
        worst_dev = max(worst_dev, float(np.abs(got - factor * x.dist).max()))
    conditions["a1"] = {
        "verdict": "pass" if worst_dev <= iso else "fail",
        "max_deviation": worst_dev,
    }

    # (a2): copy diameters bounded by scale^level * diam and strictly shrinking
    diams = blocks.max(axis=(1, 2))
    by_level = tree.levels()
    level_diams = [float(max(diams[by_level[j]].tolist() if j < levels else []))
                   for j in range(depth + 1)]
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

    # the atoms: the copies' class subsets, class by class, then the end
    # points; near[i, p] is atom i's least distance to point p
    ends = np.array([a.space.index[e] for e in a.ends.values()], dtype=np.intp)
    end_vertex = [tree.index[t] for t in a.ends]
    classes = len(a.source_spaces)
    atoms = _Runs(np.concatenate([copies[:, lo:hi].ravel() for lo, hi in
                                  zip(offsets, offsets[1:])] + [ends]),
                  [hi - lo for lo, hi in zip(offsets, offsets[1:])
                   for _ in range(n_vertices)] + [1] * len(ends))
    near = atoms.reduce(np.minimum, dist)
    at_class = near[:classes * n_vertices].reshape(classes, n_vertices, -1)

    # (a3): every copy point has a nearby point outside its copy, that is
    # near every atom but its own vertex's class subsets
    cells = near.take(copies.ravel(), axis=1)
    cells[(np.arange(classes)[:, None, None] * n_vertices
           + np.arange(n_vertices)[:, None]),
          np.arange(copies.size).reshape(copies.shape)] = math.inf
    gaps = cells.min(axis=0).reshape(copies.shape)
    tols = _level_tolerances(boundary_gap, scale, depth, levels, "a3 boundary")
    worst_ratio, at = _worst(gaps.max(axis=1) / np.array(tols)[level])
    conditions["a3"] = {
        "verdict": "pass" if worst_ratio <= 1 + _EXACT_SLACK else "fail",
        "worst_gap_over_tolerance": worst_ratio,
        "worst_point": (None if at is None
                        else a.space.points[copies[at, gaps[at].argmax()]]),
    }

    # (a4): every point is near every class, at its own scale
    point_level = np.empty(len(dist), dtype=np.intp)
    point_level[copies] = level[:, None]
    point_level[ends] = level[end_vertex]
    tols = _level_tolerances(density_gap, scale, depth, levels, "a4 density")
    worst_ratio, at = _worst(at_class.min(axis=1)
                             / np.array(tols)[point_level])
    conditions["a4"] = {
        "verdict": "pass" if worst_ratio <= 1 + _EXACT_SLACK else "fail",
        "worst_gap_over_tolerance": worst_ratio,
        "worst_case": (None if at is None
                       else (a.space.points[at % len(dist)], at // len(dist))),
    }

    # (a5): pairs at different tree locations are separated by a half-space.
    # A pair's best half-space is the widest edge gap on its tree path, with
    # the tolerance of the vertex where the path turns; the path's edge just
    # below that vertex scores no better alone, so with positive tolerances
    # the first worst pair in vertex order is a tree edge, parent first.
    # The edge's gap is the least set distance between an atom of the
    # child's subtree, a pre-order interval lo:hi, and one outside it: the
    # least of row r before column lo is left[r, lo - 1], from column hi on
    # right[r, hi].
    n_pairs = len(tree) * (len(tree) - 1) // 2
    if n_pairs and not (separation_gap > 0 and scale > 0):
        raise ValueError("a5 needs a positive separation gap and scale, got "
                         f"{separation_gap!r} and {scale!r}")
    worst_pair_ratio = math.inf
    worst_pair = None
    if n_pairs:
        tols = _level_tolerances(separation_gap, scale, depth, levels,
                                 "a5 separation")
        hung = RootedTree(list(tree.parent)
                          + list(range(n_vertices)) * (classes - 1)
                          + end_vertex)
        apart = atoms.reduce(np.minimum, near, axis=1)[np.ix_(hung.pre,
                                                              hung.pre)]
        left = np.minimum.accumulate(apart, axis=1)
        right = np.minimum.accumulate(apart[:, ::-1], axis=1)[:, ::-1]
        for child, t in enumerate(a.vertices[1:], 1):
            lo, hi = hung.tin[child], hung.tout[child]
            gap = left[lo:hi, lo - 1].min()
            if hi < len(apart):
                gap = min(gap, right[lo:hi, hi].min())
            parent = tree.parent[child]
            ratio = float(gap) / tols[tree.depth[parent]]
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


# ---------------------------------------------------------------------------
# Bundle serialization: CSV matrix + JSON sidecar.

def save_bundle(a: AmalgamApprox, matrix_path, sidecar_path):
    write_matrix_csv(a.space, matrix_path)
    sidecar = {
        "kind": "amalgam-approx",
        "r0": a.r0,
        "mu": a.mu,
        "tree": a.tree_parent,
        "labels": a.labels,
        "ends": a.ends,
        **recipe_of(a),
    }
    with open(sidecar_path, "w") as fh:
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True))


# the JSON type of each field of a copy and an end label, and its name
_LABEL_SHAPES = {"copy": {"tree_vertex": "scalar", "class": "integer",
                          "source_point": "scalar"},
                 "end": {"leaf": "scalar"}}
_SHAPE_NAMES = {"scalar": "a name or number", "integer": "an integer"}


def _check_labels(labels):
    """Refuse point labels whose fields AmalgamApprox could not read; as
    there is a label per point, a message is built only for a refusal."""
    for name, label in labels.items():
        kind = label.get("kind") if isinstance(label, dict) else None
        if kind not in ("copy", "end"):
            raise ValueError(f"label of {name!r} has no kind 'copy' or 'end'")
        for field, shape in _LABEL_SHAPES[kind].items():
            if field not in label:
                raise ValueError(f"label of {name!r} lacks field {field!r}")
            if not SHAPES[shape](label[field]):
                raise ValueError(f"label of {name!r}: field {field!r} must be "
                                 f"{_SHAPE_NAMES[shape]}, got {label[field]!r}")


def _read_sidecar(sidecar_path):
    """The sidecar's fields, tree map and checked source spaces.  A missing
    field or a field of the wrong JSON type is refused with ValueError;
    depth, branching and scale are the recipe, and a recipe with values
    out of range leaves the matrix to the full scan."""
    numbers = ("depth", "branching", "scale", "r0", "mu")
    with open(sidecar_path) as fh:
        sidecar = document(
            loads(fh.read(), ValueError), ValueError,
            numbers + ("labels", "ends", "tree", "source_spaces"),
            "amalgam-approx", "sidecar is not an amalgam-approx bundle",
            "sidecar lacks field")
    for key in numbers:
        require(sidecar[key], "number", ValueError,
                "sidecar depth, branching, scale, r0 and mu must be numbers, "
                f"got {key} = {sidecar[key]!r}")
    for key in ("tree", "ends"):
        require(sidecar[key], "object", ValueError,
                "sidecar tree and ends must be objects")
    _check_labels(require(sidecar["labels"], "object", ValueError,
                          "sidecar labels must be an object"))
    spaces = ("sidecar source_spaces must list spaces, each with 'points' "
              "and 'dist'")
    sources = []
    for x in require(sidecar["source_spaces"], "list", ValueError, spaces):
        document(x, ValueError, ("points", "dist"), refusal=spaces,
                 missing="sidecar lacks field")
        sources.append(FiniteMetricSpace(
            require(x["points"], "strings", ValueError, spaces), x["dist"]))
    if not sources:
        raise ValueError("sidecar lists no source spaces")
    return ({key: sidecar[key] for key in numbers + ("labels", "ends")},
            sidecar["tree"], sources)


def load_bundle(matrix_path, sidecar_path) -> AmalgamApprox:
    """Read a `save_bundle` pair back, the matrix checked as a metric.

    The sidecar's source spaces, depth, branching and scale are the
    build's recipe: when `rebuild_space` makes from them a space whose
    matrix CSV text is exactly the file's, that space is the matrix, with
    validation "rebuild", and neither the parse nor the O(n^3) triangle
    scan runs (the docstring of `rebuild_space` proves it a metric).  Any
    other file, a hand-edited one included, is parsed and scanned in full.
    A matrix error is reported before a sidecar error.
    """
    try:
        fields, tree_parent, sources = _read_sidecar(sidecar_path)
    except (OSError, ValueError):
        read_matrix_csv(matrix_path)
        raise
    space = read_matrix_csv(matrix_path, functools.partial(
        rebuild_space, fields, sources=sources))
    if set(fields["labels"]) != set(space.points):
        raise ValueError("sidecar labels do not cover the matrix points")
    return AmalgamApprox(source_spaces=sources, space=space, **fields,
                         tree=RootedTree.from_parents(dict(tree_parent)))
