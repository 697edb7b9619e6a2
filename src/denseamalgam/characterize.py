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

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import floyd_warshall
from .approx import (
    AmalgamApprox,
    ConditionReport,
    ConditionTolerances,
    rebuild_space,
    recipe_of,
)
from .metric import FiniteMetricSpace, read_matrix_csv, write_matrix_csv
from .tree import RootedTree

MATCH_LIMIT = 8  # largest subset size for the exact shape-matching search


class RegularStructure:
    """A finite metric space with an ordered family of tagged subsets.

    family entries are (points, class_index) pairs; class indices must cover
    1..k with every class nonempty.  Points outside every subset form the
    residual.  Family order is significant: merging and labelling both
    consume subsets in it.  approximation is the build recipe
    (`approx.recipe_of`) of a space that is an approximation's, or None.
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
        k = max(self.classes)
        if set(self.classes) != set(range(1, k + 1)):
            raise ValueError("class indices must cover 1..k with no gaps")
        self.k = k
        self.residual = tuple(p for p in space.points if p not in seen)
        self._idx = [np.array([space.index[p] for p in pts], dtype=np.intp)
                     for pts in self.subsets]

    def __len__(self) -> int:
        return len(self.subsets)

    def subset_diam(self, i: int) -> float:
        block = self.space.dist[np.ix_(self._idx[i], self._idx[i])]
        return float(block.max())

    def set_distance(self, i: int, j: int) -> float:
        block = self.space.dist[np.ix_(self._idx[i], self._idx[j])]
        return float(block.min())

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
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_sidecar(sidecar_path):
    """The sidecar's subsets, classes and approximation recipe (or None)."""
    with open(sidecar_path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("kind") != "regular-structure":
        raise ValueError("sidecar is not a regular-structure bundle")
    subsets = data.get("subsets")
    classes = data.get("classes")
    if not isinstance(subsets, list) or not isinstance(classes, list):
        raise ValueError("sidecar needs 'subsets' and 'classes' lists")
    if len(subsets) != len(classes):
        raise ValueError("sidecar 'subsets' and 'classes' lengths differ")
    if not all(isinstance(pts, list) and all(isinstance(p, str) for p in pts)
               for pts in subsets):
        raise ValueError("each sidecar subset must be a list of point names")
    if not all(type(c) is int for c in classes):
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
    except (OSError, LookupError, TypeError, ValueError):
        read_matrix_csv(matrix_path)
        raise
    space = read_matrix_csv(matrix_path, None if recipe is None else
                            functools.partial(rebuild_space, recipe))
    return RegularStructure(
        space, zip(map(tuple, subsets), classes),
        approximation=recipe if space.validation == "rebuild" else None)


def _resolve_tolerances(s: RegularStructure, tol) -> dict:
    """Fill unset gaps from the structure's own scales.

    Boundary and density default to twice the largest subset diameter (the
    whole-space diameter when all subsets are singletons); the null cutoff
    defaults to the largest subset diameter, so the default check reports
    the diameter profile without imposing a decay rate; the separation
    scale defaults to half the smallest gap between two subsets, recording
    the achieved separation rather than imposing one.
    """
    if tol is None:
        tol = ConditionTolerances()
    max_diam = max(s.subset_diam(i) for i in range(len(s)))
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


def _block_min(dist, blocks) -> np.ndarray:
    """out[i, j] is the least distance between index blocks i and j, the
    set distance of RegularStructure.set_distance, for all pairs at once."""
    rows = np.array([dist[b].min(axis=0) for b in blocks])
    return np.array([rows[:, b].min(axis=1) for b in blocks]).T


def _normalized(block: np.ndarray) -> np.ndarray:
    d = block.max()
    return block / d if d > 0 else block


def _match_shapes(ref: np.ndarray, other: np.ndarray, tol: float):
    """Search for a bijection aligning two normalized matrices within tol.

    Returns (found, deviation of the found bijection).  Backtracking over
    rows; identity is tried first, so identically ordered copies match
    without search.
    """
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
    in the structures this is meant for.
    """
    resolved = _resolve_tolerances(s, tol)
    dist = s.space.dist
    n_sub = len(s)
    conditions = {}

    # (a1): members of one class all have the same shape
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
            found, dev = _match_shapes(ref_block, block, resolved["iso"])
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
    diams = [s.subset_diam(i) for i in range(n_sub)]
    above = sorted(i for i in range(n_sub) if diams[i] > resolved["null"])
    conditions["a2"] = {
        "verdict": "pass" if len(above) < n_sub else "fail",
        "prefix": len(above),
        "above_null": above,
        "max_diameter": max(diams),
        "min_diameter": min(diams),
    }

    # (a3): every subset point has a nearby point outside its subset
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

    # (a4): every point of the space is near every class
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

    # (a5): distinct subsets stay in distinct linkage components at the
    # separation scale; components absorb whole subsets, so any component
    # side is automatically family-saturated
    comp = _linkage_components(s, resolved["separation_gap"])
    offending = []
    for i, j in itertools.combinations(range(n_sub), 2):
        if comp[s._idx[i][0]] == comp[s._idx[j][0]]:
            offending.append([i, j])
    conditions["a5"] = {
        "verdict": "pass" if not offending else "fail",
        "inseparable_pairs": offending,
    }

    return ConditionReport(conditions, resolved)


def _linkage_components(s: RegularStructure, eps: float):
    """Single-linkage components at scale eps, with subsets pre-merged."""
    members = ((int(idx[0]), int(other)) for idx in s._idx for other in idx[1:])
    close = ((int(x), int(y)) for x, y in np.argwhere(s.space.dist <= eps)
             if x < y)
    return _components(len(s.space), itertools.chain(members, close))


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
    m = counts[1]
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
                       key=lambda i: (s.set_distance(seed, i), i))
            used[pick] = True
            members.append(pick)
        points = tuple(p for i in members for p in s.subsets[i])
        union_diam = float(s.space.submatrix(points).max())
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
    atoms = [f"subset:{i}" for i in range(len(s))]
    blocks = list(s._idx)
    for p in s.residual:
        atoms.append(f"point:{p}")
        blocks.append(np.array([s.space.index[p]], dtype=np.intp))
    n = len(atoms)
    quot = _block_min(s.space.dist, blocks)
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
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("kind") != "t-labelling":
        raise ValueError("document is not a t-labelling")
    for key in ("parent", "assignment", "partitions", "radii"):
        if not isinstance(data.get(key, {}), dict):
            raise ValueError(f"t-labelling field {key!r} must be an object")
    for v, pts in data.get("partitions", {}).items():
        if not isinstance(pts, list) or not all(isinstance(p, str) for p in pts):
            raise ValueError(f"partition of vertex {v!r} must be a list of "
                             "point names")
    try:
        labelling = TLabelling(
            root=data["root"],
            parent=dict(data["parent"]),
            assignment={v: int(i) for v, i in data["assignment"].items()},
            partitions={v: frozenset(pts) for v, pts in data["partitions"].items()},
            radii={v: float(r) for v, r in data["radii"].items()},
        )
    except KeyError as missing:
        raise ValueError(f"t-labelling document lacks field {missing}") from None
    except TypeError as exc:
        # an entry of the wrong JSON type, such as a list for a radius
        raise ValueError(f"malformed t-labelling entry: {exc}") from None
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
    rather than fail the covering check.
    """
    if not isinstance(max_depth, int) or isinstance(max_depth, bool) or max_depth < 0:
        raise ValueError("max_depth must be a non-negative integer")
    report = check_regularity(s)
    if not report.all_pass():
        failing = [name for name, c in report.conditions.items()
                   if c["verdict"] != "pass"]
        raise ValueError("labelling needs a structure that passes the "
                         "regularity checks; failing: " + ", ".join(failing))

    link_eps = _resolve_tolerances(s, None)["separation_gap"]
    dist = s.space.dist
    diams = [s.subset_diam(i) for i in range(len(s))]
    point_sets = [set(pts) for pts in s.subsets]
    used = [False] * len(s)

    def reach(i: int, j: int) -> float:
        # farthest point of subset i from subset j
        return float(dist[np.ix_(s._idx[i], s._idx[j])].min(axis=1).max())

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
            hideable = any(reach(i, assignment[c]) <= radii[c]
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
            terms = [s.set_distance(i, t_sub), radii[t]]
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
                    if reach(i, assignment[c]) <= radii[c]
                    and _halves(diams[i], diams[assignment[c]])]
            # selection guarantees at least one accepting child
            pick = min(fits, key=lambda c: (s.set_distance(i, assignment[c]),
                                            children.index(c)))
            regions[pick] |= point_sets[i]
        assigned = set().union(*regions.values())
        leftovers = []
        for p in sorted(region - assigned):
            pi = s.space.index[p]
            fits = [c for c in children
                    if dist[pi, s._idx[assignment[c]]].min() <= radii[c]]
            if not fits:
                leftovers.append(p)
                continue
            pick = min(fits, key=lambda c: (float(dist[pi, s._idx[assignment[c]]].min()),
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


def verify_labelling(l: TLabelling, s: RegularStructure,
                     tol: ConditionTolerances = None) -> ConditionReport:
    """Check the truncated labelling conditions (L1)-(L6).

    (L2) and (L3) are trends over the finite tree: diameter halving along
    edges below the first level, and per-level neighbourhood gaps that
    strictly decrease.  (L4) treats each region as the vertex's limit set
    and asks for a gap to its complement of at least the separation
    tolerance (any positive gap when unset), containment of the subtree's
    subsets, and disjointness from ancestor subsets.
    """
    resolved = {"separation_gap": tol.separation_gap
                if tol is not None and tol.separation_gap is not None else 0.0}
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
        child_d = s.subset_diam(subset[v])
        parent_d = s.subset_diam(subset[p])
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
            rows = s._idx[subset[v]]
            cols = s._idx[subset[tree.parent[v]]]
            gap = max(gap, float(dist[np.ix_(rows, cols)].min(axis=1).max()))
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
        level_diams.append(max(float(s.space.submatrix(sorted(region[v])).max())
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
