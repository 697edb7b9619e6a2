"""Regularity checking and tree labellings for tagged subset families.

A RegularStructure is a finite metric space together with an ordered family
of disjoint point subsets, each tagged with a class index.  This module
checks the five regularity conditions against such a structure, merges a
multi-class family into a single-class one, profiles how much the quotient
by the family resembles a Cantor set at a given scale, and runs the greedy
tree-labelling construction with its (L1)-(L6) verification.  A labelling's
tree is the `RootedTree` of its parent map, so levels and subtrees follow
the parent chain whatever the vertices are named.
"""

import collections
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._json import SHAPES, document, loads, require
from ._kernels import floyd_warshall
from .approx import (
    AmalgamApprox,
    ConditionReport,
    ConditionTolerances,
    _Runs,
    rebuild_space,
    recipe_of,
)
from .metric import FiniteMetricSpace, read_matrix_csv, write_matrix_csv
from .tree import RootedTree

MATCH_LIMIT = 8  # largest subset size for the exact shape-matching search


class FamilyTables:
    """A family's distance aggregates, for m subsets of an n-point space.

    near[j, p] is the least distance from point p to subset j (m x n);
    diam[i] is subset i's diameter; reach[i, j] is the farthest any point
    of subset i lies from subset j, max over p in i of near[j, p]; between
    is the set distance, between[i, j] the least distance from a point of
    subset i to one of subset j.  Every entry is a min or max of matrix
    entries, so it is exactly the value of the corresponding block of the
    matrix.

    The structure's subsets are runs of matrix rows (`approx._Runs`): near
    folds each subset's rows with np.minimum one member position at a
    time, reach and between fold near's columns the same way, and diam
    reads only the subsets' diagonal blocks.  No copy of the subsets' rows
    and no maximum pass over them is made.  Each table is computed on its
    first read and kept, read-only, for every later reader.
    """

    def __init__(self, runs, dist):
        self._runs, self._dist = runs, dist

    @functools.cached_property
    def near(self) -> np.ndarray:
        return _shared(self._runs.reduce(np.minimum, self._dist))

    @functools.cached_property
    def diam(self) -> np.ndarray:
        return _shared(self._runs.diameters(self._dist))

    @functools.cached_property
    def reach(self) -> np.ndarray:
        return _shared(self._runs.reduce(np.maximum, self.near, axis=1).T)

    @functools.cached_property
    def between(self) -> np.ndarray:
        return _shared(self._runs.reduce(np.minimum, self.near, axis=1))


def _shared(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


class RegularStructure:
    """A finite metric space with an ordered family of tagged subsets.

    family entries are (points, class_index) pairs; class indices must cover
    1..k with every class nonempty.  Points outside every subset form the
    residual.  Family order is significant: merging and labelling both
    consume subsets in it.  approximation is the build recipe
    (`approx.recipe_of`) of a space that is an approximation's, or None.

    tables holds the family's `FamilyTables`, each computed from the matrix
    on first use and kept: the regularity checks, the labelling and the
    merge read subset diameters and subset-to-subset distances from it.
    """

    def __init__(self, space: FiniteMetricSpace, family, approximation=None):
        self.space = space
        self.approximation = approximation
        subsets = []
        classes = []
        for points, cls in family:
            points = tuple(points)
            if not points:
                raise ValueError("family subsets must be nonempty")
            subsets.append(points)
            classes.append(int(cls))
        if not subsets:
            raise ValueError("the family needs at least one subset")
        self.subsets = tuple(subsets)
        self.classes = tuple(classes)
        seen = set()
        for points in self.subsets:
            for p in points:
                if p not in space.index:
                    raise ValueError(f"subset point {p!r} is not in the space")
                if p in seen:
                    raise ValueError(f"family subsets overlap at {p!r}")
                seen.add(p)
        # k above the number of subsets leaves a gap: no range is built
        k = max(self.classes)
        if k > len(subsets) or set(self.classes) != set(range(1, k + 1)):
            raise ValueError("class indices must cover 1..k with no gaps")
        self.k = k
        self.residual = tuple(p for p in space.points if p not in seen)
        # the subsets as runs of the matrix's rows, in family order
        self._runs = _Runs([space.index[p] for pts in self.subsets
                            for p in pts], [len(p) for p in self.subsets])
        self._residual_idx = np.array([space.index[p] for p in self.residual],
                                      dtype=np.intp)
        self.tables = FamilyTables(self._runs, space.dist)

    def __len__(self) -> int:
        return len(self.subsets)

    def subset_diam(self, i: int) -> float:
        return float(self.tables.diam[i])

    def of_class(self, cls: int):
        return [i for i, c in enumerate(self.classes) if c == cls]

    def __repr__(self):
        return (f"RegularStructure({len(self.subsets)} subsets, "
                f"{self.k} classes, {len(self.residual)} residual points)")


def as_regular_structure(a: AmalgamApprox) -> RegularStructure:
    """View an approximation's labelled copies as a tagged family.

    One subset per (tree vertex, source class), ordered by tree depth, then
    vertex, then class; class tags are 1-based.  End points become the
    residual.  The structure keeps a's build recipe.
    """
    family = []
    for v in a.vertices:
        for ci in range(len(a.source_spaces)):
            family.append((tuple(a.class_points(v, ci)), ci + 1))
    return RegularStructure(a.space, family, approximation=recipe_of(a))


def save_structure(s: RegularStructure, matrix_path, sidecar_path):
    """Write the structure as a distance-matrix CSV plus a JSON sidecar;
    the sidecar's "approximation" field holds the build recipe, if any."""
    write_matrix_csv(s.space, matrix_path)
    payload = {
        "kind": "regular-structure",
        "subsets": [list(points) for points in s.subsets],
        "classes": list(s.classes),
    }
    if s.approximation is not None:
        payload["approximation"] = s.approximation
    with open(sidecar_path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_sidecar(sidecar_path):
    """The sidecar's subsets, classes and approximation recipe (or None)."""
    with open(sidecar_path) as fh:
        data = document(loads(fh.read()), ValueError, ("subsets", "classes"),
                        "regular-structure",
                        "sidecar is not a regular-structure bundle",
                        "sidecar lacks field")
    subsets, classes = data["subsets"], data["classes"]
    for value in (subsets, classes):
        require(value, "list", ValueError,
                "sidecar needs 'subsets' and 'classes' lists")
    if len(subsets) != len(classes):
        raise ValueError("sidecar 'subsets' and 'classes' lengths differ")
    if not all(map(SHAPES["strings"], subsets)):
        raise ValueError("each sidecar subset must be a list of point names")
    if not all(map(SHAPES["integer"], classes)):
        raise ValueError("sidecar classes must be integers")
    return subsets, classes, data.get("approximation")


def load_structure(matrix_path, sidecar_path) -> RegularStructure:
    """Read a `save_structure` pair back, the matrix checked as a metric.

    A structure converted from an approximation carries the build recipe
    in its sidecar's "approximation" field.  When `approx.rebuild_space`
    makes from it a space whose matrix CSV text is exactly the file's, that
    space is the matrix, with validation "rebuild", and neither the parse
    nor the O(n^3) triangle scan runs.  A recipe with any fault, or a file
    that differs in any byte, leaves the full parse and scan in force, and
    the loaded structure then keeps no recipe.  Other structures are
    always scanned.  A matrix error is reported before a sidecar error.
    """
    try:
        subsets, classes, recipe = _read_sidecar(sidecar_path)
    except (OSError, ValueError):
        read_matrix_csv(matrix_path)
        raise
    space = read_matrix_csv(matrix_path, None if recipe is None else
                            functools.partial(rebuild_space, recipe))
    return RegularStructure(
        space, zip(map(tuple, subsets), classes),
        approximation=recipe if space.validation == "rebuild" else None)


def _default_tolerances(s: RegularStructure) -> dict:
    """The regularity check's defaults, from the structure's own scales,
    as keywords of `ConditionTolerances.resolve`.

    Boundary and density default to twice the largest subset diameter (the
    whole-space diameter when all subsets are singletons); the null cutoff
    defaults to the largest subset diameter, so the default check reports
    the diameter profile without imposing a decay rate; the separation
    scale defaults to half the smallest gap between two subsets, recording
    the achieved separation rather than imposing one.  iso has no default
    of its own.
    """
    max_diam = max(s.tables.diam.tolist())
    base = 2 * max_diam if max_diam > 0 else s.space.diam()
    between = s.tables.between[np.triu_indices(len(s), 1)]
    return {"iso": None, "null": max_diam, "boundary_gap": base,
            "density_gap": base,
            "separation_gap": float(between.min()) / 2 if len(s) > 1 else 0.0}


def _atom_distances(s: RegularStructure) -> np.ndarray:
    """Set distances between atoms: the family subsets, then the residual
    points one by one, in the structure's order."""
    res = s._residual_idx
    to_res = s.tables.near[:, res]
    return np.block([[s.tables.between, to_res],
                     [to_res.T, s.space.dist[np.ix_(res, res)]]])


def _match_shapes(ref: np.ndarray, other: np.ndarray, tol: float):
    """Search for a bijection aligning two normalized matrices within tol.

    Returns (found, deviation of the found bijection).  Backtracking over
    rows; identity is tried first, so identically ordered copies match
    without search, and one array comparison finds them.
    """
    deviation = np.abs(ref - other)
    if deviation.max() <= tol:  # the search would keep the identity
        return True, float(deviation.max())
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


def check_regularity(s: RegularStructure, tol: ConditionTolerances = None) -> ConditionReport:
    """Finite verdicts for the five conditions on a tagged family.

    Shape equality in (a1) is scale-free: each subset's matrix is divided
    by its diameter before matching, since family members shrink with depth
    in the structures this is meant for.  (a2)-(a5) read the structure's
    `FamilyTables`: (a3) takes each subset point's nearest point of another
    subset from near, (a4) a class's nearest member from it, and (a5) links
    atoms (subsets and residual points) whose set distance is at most the
    separation scale.
    """
    resolved = (tol or ConditionTolerances()).resolve(**_default_tolerances(s))
    dist = s.space.dist
    tables = s.tables
    n_sub = len(s)
    conditions = {}

    # (a1): members of one class all have the same shape.  A class's
    # members of its reference's size are normalized in one batch, and the
    # identity alignment, which the search tries first, is read for all of
    # them at once; the search runs only where it fails.
    worst_dev = 0.0
    proxy_pairs = []
    mismatches = []
    for cls in range(1, s.k + 1):
        members = s.of_class(cls)
        ref_i = members[0]
        size = len(s.subsets[ref_i])
        same = {i: j for j, i in enumerate(
            i for i in members if len(s.subsets[i]) == size)}
        if size <= MATCH_LIMIT:
            idx = s._runs.members[s._runs.slots[list(same), :size]]
            blocks = dist[idx[:, :, None], idx[:, None, :]]
            peak = blocks.max(axis=(1, 2))
            blocks /= np.where(peak > 0, peak, 1.0)[:, None, None]
            deviation = np.abs(blocks[0] - blocks).max(axis=(1, 2)).tolist()
        for i in members[1:]:
            if i not in same:
                mismatches.append({"class": cls, "subsets": [ref_i, i],
                                   "reason": "cardinality"})
                continue
            if size > MATCH_LIMIT:
                proxy_pairs.append([ref_i, i])
                continue
            j = same[i]
            if deviation[j] <= resolved["iso"]:
                found, dev = True, deviation[j]
            else:
                found, dev = _match_shapes(blocks[0], blocks[j], resolved["iso"])
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

    # (a2): sorted diameters drop below the null cutoff after a prefix
    diams = tables.diam.tolist()
    above = sorted(i for i in range(n_sub) if diams[i] > resolved["null"])
    conditions["a2"] = {
        "verdict": "pass" if len(above) < n_sub else "fail",
        "prefix": len(above),
        "above_null": above,
        "max_diameter": max(diams),
        "min_diameter": min(diams),
    }

    # (a3): every subset point has a nearby point outside its subset; a
    # subset that is the whole space has none, at infinite distance
    members = s._runs.members
    cells = tables.near[:, members]
    cells[s._runs.owner, np.arange(len(members))] = math.inf
    nearest = cells.min(axis=0)
    if len(s._residual_idx):
        nearest = np.minimum(nearest, dist[np.ix_(members, s._residual_idx)]
                             .min(axis=1))
    worst_gap = 0.0
    worst_subset = None
    for i, gap in enumerate(nearest[s._runs.slots].max(axis=1).tolist()):
        if gap > worst_gap:
            worst_gap, worst_subset = gap, i
    conditions["a3"] = {
        "verdict": "pass" if worst_gap <= resolved["boundary_gap"] else "fail",
        "max_gap": worst_gap,
        "worst_subset": worst_subset,
    }

    # (a4): every point of the space is near every class
    worst_gap = 0.0
    worst_pair = None
    for cls in range(1, s.k + 1):
        gaps = tables.near[s.of_class(cls)].min(axis=0)
        at = int(gaps.argmax())
        if gaps[at] > worst_gap:
            worst_gap, worst_pair = float(gaps[at]), [s.space.points[at], cls]
    conditions["a4"] = {
        "verdict": "pass" if worst_gap <= resolved["density_gap"] else "fail",
        "max_gap": worst_gap,
        "worst": worst_pair,
    }

    # (a5): distinct subsets stay in distinct linkage components at the
    # separation scale; components absorb whole subsets, so any component
    # side is automatically family-saturated
    linked = np.triu(_atom_distances(s) <= resolved["separation_gap"], 1)
    comp = _components(len(linked), np.argwhere(linked).tolist())
    together = {}
    for i in range(n_sub):
        together.setdefault(comp[i], []).append(i)
    offending = sorted([i, j] for members in together.values()
                       for i, j in itertools.combinations(members, 2))
    conditions["a5"] = {
        "verdict": "pass" if not offending else "fail",
        "inseparable_pairs": offending,
    }

    return ConditionReport(conditions, resolved)


def _components(n, pairs):
    """Union-find over range(n): each element's root after joining pairs."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    return [find(x) for x in range(n)]


@dataclass
class MergeResult:
    structure: RegularStructure
    ratio: float
    rounds: list

    def to_dict(self) -> dict:
        return {"ratio": self.ratio, "rounds": self.rounds,
                "subsets": [list(p) for p in self.structure.subsets]}


def merge_families(s: RegularStructure) -> MergeResult:
    """Merge a k-class family into a one-class family of unions.

    Each round seeds with the first unused subset in family order and joins
    it with the nearest unused subset of every other class.  The reported
    ratio is the worst diam(union) / diam(seed) over all rounds.
    """
    if s.k < 2:
        raise ValueError("merging needs at least two classes")
    counts = {cls: len(s.of_class(cls)) for cls in range(1, s.k + 1)}
    if len(set(counts.values())) != 1:
        raise ValueError(
            "classes have unequal subset counts "
            f"{sorted(counts.items())}; a finite family cannot compensate")
    between = s.tables.between.tolist()
    used = [False] * len(s)
    picks = []
    for _ in range(counts[1]):
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
        picks.append(members)
    unions = [tuple(p for i in members for p in s.subsets[i])
              for members in picks]
    union_diams = _Runs([s.space.index[p] for points in unions for p in points],
                        [len(points) for points in unions]
                        ).diameters(s.space.dist).tolist()
    rounds = []
    family = []
    ratio = 0.0
    for members, points, union_diam in zip(picks, unions, union_diams):
        seed = members[0]
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


def quotient_profile(s: RegularStructure, eps: float) -> dict:
    """Profile the quotient by the family at a scale.

    Quotient points are the family subsets plus residual singletons, with
    the minimal set-to-set distance closed under shortest paths.  The
    verdict is Cantor-like at scale eps when every quotient point has a
    neighbour within eps and every pair farther apart than eps is split by
    a cut whose gap is at least eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    atoms = ([f"subset:{i}" for i in range(len(s))]
             + [f"point:{p}" for p in s.residual])
    n = len(atoms)
    quot = _atom_distances(s)
    np.fill_diagonal(quot, 0.0)
    quot = floyd_warshall(quot)

    # cuts with gap >= eps exist exactly between components linked by < eps;
    # pairs i < j are read row by row
    comp = np.array(_components(
        n, np.argwhere(np.triu(quot < eps, 1)).tolist()))
    apart = np.argwhere(np.triu(quot > eps, 1) & (comp[:, None] == comp))
    violations = [[atoms[i], atoms[j], float(quot[i, j])]
                  for i, j in apart[:10].tolist()]
    c1 = {"verdict": "pass" if not len(apart) else "fail",
          "violations": violations, "violation_count": len(apart)}

    if n == 1:
        c2 = {"verdict": "fail", "max_nearest": math.inf, "worst_atom": atoms[0]}
    else:
        quot.flat[::n + 1] = math.inf  # the diagonal
        nearest = quot.min(axis=1)
        at = int(nearest.argmax())
        c2 = {"verdict": "pass" if nearest[at] <= eps else "fail",
              "max_nearest": float(nearest[at]), "worst_atom": atoms[at]}

    return {
        "eps": eps,
        "atom_count": n,
        "c1": c1,
        "c2": c2,
        "cantor_like": c1["verdict"] == "pass" and c2["verdict"] == "pass",
    }


@dataclass
class TLabelling:
    """A rooted labelling of a family: tree, assignment, regions, radii.

    parent maps each vertex to its parent (root to None); assignment maps
    vertices to family subset indices; partitions maps each non-root vertex
    to its region; radii holds the per-vertex neighbourhood radius d_t.
    """

    root: str
    parent: dict
    assignment: dict
    partitions: dict
    radii: dict

    def tree(self) -> RootedTree:
        """The tree of the current parent map; ValueError when it is not a
        tree rooted at root."""
        tree = RootedTree.from_parents(self.parent)
        if tree.names[0] != self.root:
            raise ValueError(f"labelling tree is rooted at {tree.names[0]!r}, "
                             f"not at its root {self.root!r}")
        return tree

    def children(self, t):
        tree = self.tree()
        return [tree.names[c] for c in tree.children[tree.index[t]]]


def labelling_to_json(l: TLabelling) -> str:
    payload = {
        "kind": "t-labelling",
        "root": l.root,
        "parent": dict(l.parent),
        "assignment": dict(l.assignment),
        "partitions": {v: sorted(pts) for v, pts in l.partitions.items()},
        "radii": dict(l.radii),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def labelling_from_json(text: str) -> TLabelling:
    data = document(loads(text, ValueError), ValueError,
                    ("root", "parent", "assignment", "partitions", "radii"),
                    "t-labelling", "document is not a t-labelling",
                    "t-labelling document lacks field")
    for key in ("parent", "assignment", "partitions", "radii"):
        require(data[key], "object", ValueError,
                f"t-labelling field {key!r} must be an object")
    # an entry per tree vertex: a message is built only for a refusal
    for key, shape, what in (
            ("partitions", "strings", "partition of vertex {!r} must be a "
             "list of point names"),
            ("assignment", "integer", "malformed t-labelling entry: "
             "assignment of {!r} must be a JSON integer"),
            ("radii", "number", "malformed t-labelling entry: radius of "
             "{!r} must be a JSON number")):
        for v, value in data[key].items():
            if not SHAPES[shape](value):
                raise ValueError(f"{what.format(v)}, got {value!r}")
    labelling = TLabelling(
        data["root"], data["parent"], data["assignment"],
        {v: frozenset(pts) for v, pts in data["partitions"].items()},
        data["radii"])
    labelling.tree()  # refuse a parent map that is not a tree
    return labelling


def _halves(child_diam: float, parent_diam: float) -> bool:
    # singleton subsets cannot shrink further; treat them as already halved
    if child_diam == 0.0 and parent_diam == 0.0:
        return True
    return child_diam < 0.5 * parent_diam


def build_t_labelling(s: RegularStructure, max_depth: int) -> TLabelling:
    """Greedy labelling: every subset becomes a tree vertex.

    The root takes the first family subset.  At each vertex, unused subsets
    inside the region are examined in decreasing-diameter order (ties by
    index); a subset too large or too far to hide inside an earlier child's
    neighbourhood becomes a child itself, with radius
    d_child = min(diam(child), distance to the parent subset, d_parent),
    dropping the diameter term when it is zero.  Remaining subsets and
    residual points are then assigned to the nearest child whose
    neighbourhood accepts them, which carves the child regions; each region
    is finally closed into its component hull at the structure's separation
    scale, so points chained to a claimed region through small gaps join it
    rather than fail the covering check.  Diameters, reaches, set distances
    and each point's distance to a subset are read from the structure's
    `FamilyTables`.
    """
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
    index = s.space.index
    near = s.tables.near
    diams = s.tables.diam.tolist()
    reach = s.tables.reach.tolist()
    between = s.tables.between.tolist()
    point_sets = [set(pts) for pts in s.subsets]
    owner = {p: i for i, pts in enumerate(s.subsets) for p in pts}
    used = [False] * len(s)

    root = "r"
    parent = {root: None}
    assignment = {root: 0}
    partitions = {}
    radii = {root: s.space.diam()}
    used[0] = True

    def descend(t: str, region: set, depth: int):
        met = set(map(owner.get, region))  # the subsets region meets
        met.discard(None)
        candidates = sorted(i for i in met
                            if not used[i] and point_sets[i] <= region)
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
        # every other point goes to the nearest child (the first of equals)
        # whose neighbourhood takes it, read from the children's near rows
        rest = sorted(region - set().union(*regions.values()))
        to_rest = near[[assignment[c] for c in children]].take(
            [index[p] for p in rest], axis=1).T.tolist()
        leftovers = []
        for p, to_p in zip(rest, to_rest):
            fits = [ci for ci, c in enumerate(children) if to_p[ci] <= radii[c]]
            if not fits:
                leftovers.append(p)
                continue
            pick = min(fits, key=lambda ci: (to_p[ci], ci))
            regions[children[pick]].add(p)
        # component hull: points chained to a claim through gaps of at most
        # the separation scale join the nearest claiming region (the first
        # of equals); claimed[ci] marks child ci's region, as it grows
        if leftovers:
            claimed = np.zeros((len(children), len(dist)), dtype=bool)
            for ci, c in enumerate(children):
                claimed[ci, [index[q] for q in regions[c]]] = True
        changed = True
        while leftovers and changed:
            changed = False
            remaining = []
            for p in leftovers:
                pi = index[p]
                gaps = np.where(claimed, dist[pi], math.inf).min(axis=1)
                fits = [(gap, ci) for ci, gap in enumerate(gaps.tolist())
                        if gap <= link_eps]
                if fits:
                    ci = min(fits)[1]
                    regions[children[ci]].add(p)
                    claimed[ci, pi] = True
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


def _region_extents(s: RegularStructure, regions):
    """Each region's least distance to the rest of the space (inf when it
    is the whole space) and its diameter; the regions are nonempty.

    A region is read as a union of atoms: the family subsets that no
    region splits, then single points.  apart and span, the least and the
    largest distance between two atoms, are reduced run-wise from the
    family's near rows and from the matrix; a region then reads only its
    atoms' rows of them.  No region is read point by point.
    """
    if not regions:
        return [], []
    index, runs, dist = s.space.index, s._runs, s.space.dist
    inside = np.zeros((len(regions), len(dist)), dtype=bool)
    for row, region in zip(inside, regions):
        row[np.fromiter(map(index.__getitem__, region), dtype=np.intp,
                        count=len(region))] = True
    # a subset is split when a member and the subset's first member differ
    # in some region
    first = runs.members[np.array(runs.starts)[runs.owner]]
    whole = np.ones(len(s), dtype=bool)
    whole[runs.owner[(inside.take(runs.members, axis=1)
                      != inside.take(first, axis=1)).any(axis=0)]] = False
    kept = np.flatnonzero(whole)
    single = np.concatenate([runs.members[~whole[runs.owner]],
                             s._residual_idx])
    atoms = _Runs(np.concatenate([runs.members[whole[runs.owner]], single]),
                  [len(s.subsets[i]) for i in kept] + [1] * len(single))
    apart = atoms.reduce(np.minimum, np.concatenate(
        [s.tables.near[kept], dist[single]]), axis=1)
    span = atoms.reduce(np.maximum, atoms.reduce(np.maximum, dist), axis=1)
    gaps, diameters = [], []
    for held in inside[:, atoms.members[atoms.starts]]:
        gaps.append(float(apart[held].min(where=~held, initial=math.inf)))
        diameters.append(float(span[held].max(where=held,
                                              initial=-math.inf)))
    return gaps, diameters


def verify_labelling(l: TLabelling, s: RegularStructure,
                     tol: ConditionTolerances = None) -> ConditionReport:
    """Check the truncated labelling conditions (L1)-(L6).

    (L2) and (L3) are trends over the finite tree: diameter halving along
    edges below the first level, and per-level neighbourhood gaps that
    strictly decrease.  (L4) treats each region as the vertex's limit set
    and asks for a gap to its complement of at least the separation
    tolerance (any positive gap when unset), containment of the subtree's
    subsets, and disjointness from ancestor subsets.  The region gaps of
    (L4) and diameters of (L5) come from `_region_extents`.
    """
    resolved = (tol or ConditionTolerances()).resolve(separation_gap=0.0)
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
        if v != l.root and not l.partitions[v]:
            raise ValueError(f"region of vertex {v!r} is empty")
    # per tree vertex id: its subset index and its region
    subset = [l.assignment[v] for v in vertices]
    region = [None] + [l.partitions[v] for v in vertices[1:]]
    levels = tree.levels()
    diams = s.tables.diam.tolist()
    reach = s.tables.reach.tolist()

    # (L1): the assignment is a bijection onto the family
    missing = sorted(set(range(len(s))) - set(subset))
    duplicated = sorted(i for i, c in collections.Counter(subset).items()
                        if c > 1)
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
    gaps, diameters = _region_extents(s, region[1:])
    members = [set(s.subsets[i]) for i in subset]
    min_gap = math.inf
    containment_ok = True
    ancestor_ok = True
    worst = None
    for v, gap in enumerate(gaps, 1):
        if gap < min_gap:
            min_gap, worst = gap, vertices[v]
        if not all(members[u] <= region[v] for u in tree.subtree(v)):
            containment_ok = False
        a = tree.parent[v]
        while a >= 0:
            if not members[a].isdisjoint(region[v]):
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
        level_diams.append(max(diameters[v - 1] for v in level))
    strictly = all(b < a for a, b in zip(level_diams, level_diams[1:]))
    conditions["L5"] = {
        "verdict": "pass" if strictly else "fail",
        "level_diams": level_diams,
    }

    # (L6): sibling regions are pairwise disjoint
    overlaps = []
    for kids in tree.children:
        for c1, c2 in itertools.combinations(kids, 2):
            if not region[c1].isdisjoint(region[c2]):
                overlaps.append([vertices[c1], vertices[c2]])
    conditions["L6"] = {
        "verdict": "pass" if not overlaps else "fail",
        "overlapping_siblings": overlaps,
    }

    return ConditionReport(conditions, resolved)
