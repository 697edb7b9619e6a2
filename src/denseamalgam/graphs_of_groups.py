"""Graphs of groups with finite edge groups.

Vertex and edge groups enter only through their orders; an edge inclusion is
recorded by its index in the target vertex group, which is all that trivial
edges, the elementary shapes, Bass-Serre ball degrees, and the boundary
formula depend on.  Infinite vertex groups additionally carry a symbolic
boundary expression.

An oriented edge is a pair (edge slot, head end); `bar` flips the head.  The
index of an oriented edge a is order(head(a)) / edge_order, infinite exactly
when the head vertex group is infinite.

The Bass-Serre tree of a graph with finite vertex groups is homogeneous: the
half-tree beyond a tree edge depends only on the oriented graph edge it is
entered through.  So the tree has 2E + 1 entry states, one per oriented edge
and one for the base node, and `_states` lists each state's children once.
The separation check and the ball's level counts are decided on these
states alone; a Bass-Serre ball, built one level at a time into flat lists
(label, parent id and entry family per node, the parent ids held in a
`RootedTree`), is needed only to draw it.
"""

import itertools
import json
import math
from dataclasses import dataclass

from ._json import SHAPES, document, loads, require
from .boundary import (
    Amalgam,
    BoundaryExpr,
    EMPTY,
    ExprSyntaxError,
    format_expr,
    normalize,
    parse_expr,
)
from .simplicial import dot_id
from .tree import RootedTree

INF = math.inf

_BALL_RADIUS_CAP = 12
# the most nodes `bass_serre_ball` builds (Z3*Z4 at the radius cap has
# 111,973; a ball of 561,736 peaks at about 310 MB with its DOT text)
_BALL_NODE_CAP = 500_000


class GogParseError(ValueError):
    """Structured error for malformed graph-of-groups documents."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(message if location is None else f"{message} (at {location})")


@dataclass(frozen=True)
class GroupDescriptor:
    """A vertex group: its order and, when infinite, its boundary expression."""

    order: object
    boundary: BoundaryExpr = EMPTY

    def __post_init__(self):
        if self.order != INF and not (type(self.order) is int and self.order >= 1):
            raise ValueError(f"group order must be a positive integer or infinity, "
                             f"got {self.order!r}")
        if self.order != INF and self.boundary != EMPTY:
            raise ValueError("finite groups have empty boundary")


@dataclass(frozen=True)
class OrientedEdge:
    """Edge slot `edge` oriented so that ends[to_end] is the head."""

    edge: int
    to_end: int  # 0 or 1


class GraphOfGroups:
    """Connected graph with group orders on vertices and edges.

    vertex_groups: mapping vertex name -> GroupDescriptor (order preserved);
    edges: sequence of (end, end, edge_order) triples, loops allowed.
    """

    def __init__(self, vertex_groups, edges):
        if not vertex_groups:
            raise ValueError("at least one vertex is required")
        self.vertex_groups = dict(vertex_groups)
        self.vertices = tuple(self.vertex_groups)
        for name, desc in self.vertex_groups.items():
            if not isinstance(desc, GroupDescriptor):
                raise ValueError(f"vertex {name!r} needs a GroupDescriptor")
        parsed = []
        for pos, edge in enumerate(edges):
            v, w, order = edge
            for end in (v, w):
                if end not in self.vertex_groups:
                    raise ValueError(f"edge {pos} end {end!r} is not a vertex")
            if not (isinstance(order, int) and not isinstance(order, bool)
                    and order >= 1):
                raise ValueError(f"edge {pos} order must be a positive integer, "
                                 f"got {order!r}")
            for end in (v, w):
                vertex_order = self.vertex_groups[end].order
                if vertex_order != INF and vertex_order % order != 0:
                    raise ValueError(
                        f"edge {pos} order {order} does not divide the order "
                        f"{vertex_order} of vertex {end!r}")
            parsed.append((v, w, order))
        self.edges = tuple(parsed)
        self._check_connected()

    def _check_connected(self):
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for a, b, _ in self.edges:
                for x, y in ((a, b), (b, a)):
                    if x == v and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        if seen != set(self.vertices):
            missing = sorted(set(self.vertices) - seen)
            raise ValueError(f"graph is not connected; unreachable: {missing}")

    # -- oriented edge helpers ----------------------------------------------
    def oriented_edges(self):
        return [OrientedEdge(e, s) for e in range(len(self.edges)) for s in (0, 1)]

    def head(self, a: OrientedEdge):
        return self.edges[a.edge][a.to_end]

    def tail(self, a: OrientedEdge):
        return self.edges[a.edge][1 - a.to_end]

    def bar(self, a: OrientedEdge) -> OrientedEdge:
        return OrientedEdge(a.edge, 1 - a.to_end)

    def index(self, a: OrientedEdge):
        """Index of the edge group in the head vertex group."""
        head_order = self.vertex_groups[self.head(a)].order
        if head_order == INF:
            return INF
        return head_order // self.edges[a.edge][2]

    def is_loop(self, e: int) -> bool:
        v, w, _ = self.edges[e]
        return v == w

    def __eq__(self, other):
        if not isinstance(other, GraphOfGroups):
            return NotImplemented
        if self.vertex_groups != other.vertex_groups:
            return False
        canon = lambda g: sorted((tuple(sorted((v, w))), o) for v, w, o in g.edges)
        return canon(self) == canon(other)

    def __repr__(self):
        return (f"GraphOfGroups(vertices={list(self.vertices)!r}, "
                f"edges={list(self.edges)!r})")


# ---------------------------------------------------------------------------
# Reduction by elementary collapses.

# The collapse rule works on a vertex-group dict and an edge list, so that
# `reduce` builds (and validates) one GraphOfGroups at the end rather than
# one per collapse.  A collapse keeps a graph valid: the absorbed order
# equals the edge order, which divides the survivor's order.

def _trivial(vertex_groups, edges):
    found = []
    for e, (v, w, order) in enumerate(edges):
        if v == w:
            continue
        for s in (0, 1):
            # index 1: the edge group is all of the head's group
            if vertex_groups[(v, w)[s]].order == order:
                found.append(OrientedEdge(e, s))
                break
    found.sort(key=lambda a: (tuple(sorted(edges[a.edge][:2])), a.edge))
    return found


def _collapse(vertex_groups, edges, a):
    absorbed = edges[a.edge][a.to_end]
    survivor = edges[a.edge][1 - a.to_end]
    kept = {name: desc for name, desc in vertex_groups.items()
            if name != absorbed}
    moved = [(survivor if v == absorbed else v,
              survivor if w == absorbed else w, order)
             for pos, (v, w, order) in enumerate(edges) if pos != a.edge]
    return kept, moved


def reduce(g: GraphOfGroups, rng=None) -> GraphOfGroups:
    """Collapse trivial edges until none remain.

    Deterministic order (first trivial edge) unless rng picks one at random;
    the reduced isomorphism type does not depend on the order.  A graph with
    no trivial edge is returned as it is.
    """
    vertex_groups, edges = g.vertex_groups, g.edges
    while trivial := _trivial(vertex_groups, edges):
        choice = trivial[rng.randrange(len(trivial))] if rng is not None else trivial[0]
        vertex_groups, edges = _collapse(vertex_groups, edges, choice)
    return g if edges is g.edges else GraphOfGroups(vertex_groups, edges)


def is_non_elementary(g: GraphOfGroups) -> bool:
    """False exactly when the reduced graph is one of the small shapes:
    a lone vertex, a loop with both inclusions onto, or an edge with both
    indices 2."""
    r = reduce(g)
    if len(r.vertices) == 1 and not r.edges:
        return False
    if len(r.vertices) == 1 and len(r.edges) == 1 and r.is_loop(0):
        if r.index(OrientedEdge(0, 0)) == 1 and r.index(OrientedEdge(0, 1)) == 1:
            return False
    if len(r.vertices) == 2 and len(r.edges) == 1 and not r.is_loop(0):
        if r.index(OrientedEdge(0, 0)) == 2 and r.index(OrientedEdge(0, 1)) == 2:
            return False
    return True


# ---------------------------------------------------------------------------
# The Bass-Serre tree's entry states.

def _states(g: GraphOfGroups, base=None):
    """The entry states of the Bass-Serre tree: (oriented, over, families,
    kids).

    State k < 2E is a node entered through oriented[k], so it lies over
    over[k] = head(oriented[k]) and its parent over the tail; given a
    `base`, a last state 2E is the base node, over `base`.
    bar(oriented[k]) is oriented[k ^ 1].
    `families[v]` lists (k, index(oriented[k])) for the oriented edges with
    head v.  A node over v has index(a) neighbours through each such a, each
    over tail(a) and entered through bar(a), and its parent is one of the
    neighbours through the oriented edge it was entered by.  So `kids[s]`
    lists state s's children as (child state, multiplicity) pairs, in
    family order, multiplicities positive.
    """
    for name in g.vertices:
        if g.vertex_groups[name].order == INF:
            raise ValueError(f"tree not locally finite at {name}")
    oriented = g.oriented_edges()
    over = [g.head(a) for a in oriented] + ([] if base is None else [base])
    families = {v: [(k, g.index(a)) for k, a in enumerate(oriented)
                    if g.head(a) == v]
                for v in g.vertices}
    kids = [[(k ^ 1, index - (k == s)) for k, index in families[over[s]]
             if index > (k == s)]
            for s in range(len(over))]
    return oriented, over, families, kids


def _ball_states(g: GraphOfGroups, base, radius):
    """`_states` with the base state for a ball of this radius, after the
    ball's refusals."""
    if base not in g.vertex_groups:
        raise ValueError(f"unknown base vertex {base!r}")
    if not isinstance(radius, int) or radius < 0:
        raise ValueError("radius must be a non-negative integer")
    if radius > _BALL_RADIUS_CAP:
        raise ValueError(f"radius {radius} exceeds cap {_BALL_RADIUS_CAP}")
    return _states(g, base)


def _state_counts(kids, radius):
    """Per depth 0..radius, the number of ball nodes in each state.

    The number of depth-(d + 1) nodes in a state is the sum, over the
    states at depth d, of their node counts times that child state's
    multiplicity.  The counts are exact integers.
    """
    level = [0] * len(kids)
    level[-1] = 1
    levels = [level]
    for _ in range(radius):
        below = [0] * len(kids)
        for s, count in enumerate(level):
            for t, mult in kids[s]:
                below[t] += count * mult
        level = below
        levels.append(level)
    return levels


def ball_counts(g: GraphOfGroups, base, radius: int) -> list:
    """Node counts at depths 0..radius of `bass_serre_ball(g, base,
    radius)`, without building it; the refusals are the ball's."""
    kids = _ball_states(g, base, radius)[3]
    return list(map(sum, _state_counts(kids, radius)))


def check_separation(g: GraphOfGroups) -> dict:
    """The two separation properties of the Bass-Serre tree T, decided on
    its entry states.

    (1) Every tree edge splits T into two halves, each containing lifts of
    every vertex.  (2) Some tree vertex splits T into at least three
    unbounded pieces.  Both verdicts are "pass" or "fail"; for an edgeless
    graph T is one vertex, so (1) passes vacuously and (2) fails.  The
    witnesses are the first oriented edge whose half-tree misses a label,
    with the labels it misses, and the vertices with three or more
    infinite pieces.  An infinite vertex group is refused, as by the ball.

    Proof.  Homogeneity: a vertex of T over v has, for each oriented edge a
    with head v, index(a) neighbours over tail(a) (Serre, *Trees*, I.4).
    Enter a node y through a tree edge over a, from its neighbour x over
    tail(a); the half-tree H(a) is the component of T - x holding y.  Then
    y's other neighbours are index(b) - [b = a] through each b with head
    head(a), each entered through bar(b), so by induction on depth H(a) is
    the tree unfolded from state a of `_states`: it depends on a alone.
    Half-tree and state: removing a tree edge over a leaves H(a) and
    H(bar(a)), and every edge slot lifts to T, so the halves of all tree
    edges are exactly the H(a) for the 2E oriented edges a.  Every kid has
    multiplicity at least 1, so the labels of H(a) are the labels over the
    states reachable from a, and (1) holds iff every state reaches every
    label.  Pieces: the components of T - x for x over v are index(b)
    copies of H(bar(b)) for each b with head v, whatever x was entered by.
    T is locally finite, so unbounded means infinite, and (2) holds iff
    some v has at least three such copies that are infinite.  Infinite iff
    it reaches a cycle: H(a) is locally finite, so by Koenig's lemma it is
    infinite iff it holds an infinite descending path, whose states walk
    the finite state graph and so repeat; a reachable cycle unrolls into
    such a path.  The finite states are thus the least fixpoint of "all
    kids finite": each state added has a finite unfolding by induction,
    and a state never added has a kid never added, so an endless path.
    """
    oriented, over, families, kids = _states(g)
    states = range(len(kids))
    bits = {v: 1 << i for i, v in enumerate(g.vertices)}
    reach = [bits[v] for v in over]
    finite = [False] * len(kids)
    changed = True
    while changed:  # both at once: labels grow, finite states are added
        changed = False
        for s in states:
            seen = reach[s]
            for t, _ in kids[s]:
                seen |= reach[t]
            done = not finite[s] and all(finite[t] for t, _ in kids[s])
            if seen != reach[s] or done:
                reach[s], finite[s], changed = seen, finite[s] or done, True
    full = (1 << len(g.vertices)) - 1
    short = next((s for s in states if reach[s] != full), None)
    witness = None
    if short is not None:
        a = oriented[short]
        witness = {"edge": a.edge, "from": g.tail(a), "to": g.head(a),
                   "missing": [v for v in g.vertices
                               if not reach[short] & bits[v]]}
    three_way_vertices = [
        v for v in g.vertices
        if sum(index for k, index in families[v] if not finite[k ^ 1]) >= 3]
    return {
        "edge_overall": "pass" if witness is None else "fail",
        "edge_witness": witness,
        "three_way": "pass" if three_way_vertices else "fail",
        "three_way_vertices": three_way_vertices,
    }


# ---------------------------------------------------------------------------
# Bass-Serre balls.

class BassSerreBall:
    """Finite-radius ball of the Bass-Serre tree, with truncation markers.

    Node ids run breadth first from the base node 0, and three flat lists
    describe node v: `labels[v]` is the graph vertex it lies over,
    `tree.parent[v]` its parent id (-1 at the base) and `entries[v]` the
    oriented edge family it occupies toward its parent (None at the base).
    Depth d holds the ids levels[d] to levels[d + 1] - 1.  `unexplored`
    lists node ids whose further neighbours were cut off by the radius.
    """

    def __init__(self, graph, base, radius, labels, parents, entries, levels,
                 unexplored):
        self.graph = graph
        self.base = base
        self.radius = radius
        self.labels = labels
        self.entries = entries
        self.levels = levels
        self.unexplored = frozenset(unexplored)
        self.tree = RootedTree(parents)
        self.children = self.tree.children

    def size(self) -> int:
        return len(self.labels)

    def counts_by_depth(self):
        return [hi - lo for lo, hi in zip(self.levels, self.levels[1:])]

    def subtree_ids(self, node_id):
        """The node's subtree, a set view of its pre-order interval."""
        return self.tree.subtree(node_id)

    def to_dot(self) -> str:
        lines = ["graph ball {"]
        for v, label in enumerate(self.labels):
            shape = ', style=dashed' if v in self.unexplored else ''
            lines.append(f"  n{v} [label={dot_id(label)}{shape}];")
        parent = self.tree.parent
        lines.extend(f"  n{parent[v]} -- n{v};" for v in range(1, len(parent)))
        lines.append("}")
        return "\n".join(lines)


def bass_serre_ball(g: GraphOfGroups, base, radius: int) -> BassSerreBall:
    """Breadth-first ball of the Bass-Serre tree around a vertex over `base`.

    Each of the 2E + 1 states of `_states` lists its children once.  The
    ball grows one level at a time: the states of a level's children, and
    their parent ids, extend two flat lists in one call each, and the
    labels and entries are read off the states at the end.  A ball of more
    than _BALL_NODE_CAP nodes is refused from its level counts, before
    anything is built.
    """
    oriented, over, _, kids = _ball_states(g, base, radius)
    counts = _state_counts(kids, radius)
    size = sum(map(sum, counts))
    if size > _BALL_NODE_CAP:
        raise ValueError(f"ball has {size} nodes, exceeding the cap of "
                         f"{_BALL_NODE_CAP} nodes a ball is built with")
    # only states above the last level list children, all of them nodes
    grown = [[t for t, mult in pairs for _ in range(mult)]
             if any(level[s] for level in counts[:-1]) else None
             for s, pairs in enumerate(kids)]
    state, parents, levels = [len(oriented)], [-1], [0, 1]
    for _ in range(radius):
        lo, hi = levels[-2], levels[-1]
        level = [grown[s] for s in state[lo:hi]]
        state.extend(itertools.chain.from_iterable(level))
        parents.extend(itertools.chain.from_iterable(
            map(itertools.repeat, range(lo, hi), map(len, level))))
        levels.append(len(state))
    unexplored = [v for v in range(levels[-2], levels[-1]) if kids[state[v]]]
    labels = list(map(over.__getitem__, state))
    entries = list(map((oriented + [None]).__getitem__, state))
    return BassSerreBall(g, base, radius, labels, parents, entries, levels,
                         unexplored)


# ---------------------------------------------------------------------------
# Boundary of the fundamental group.

def boundary_expression(g: GraphOfGroups) -> BoundaryExpr:
    """Normalized dense amalgam of the vertex group boundaries.

    Finite vertices contribute empty boundaries, so an all-finite graph
    yields the Cantor set.  Requires a non-elementary graph.
    """
    if not is_non_elementary(g):
        raise ValueError(
            "graph of groups is elementary (its reduced form is a lone "
            "vertex, a loop with both inclusions onto, or a single edge "
            "with both indices 2); the dense-amalgam boundary formula "
            "applies only to non-elementary graphs")
    args = tuple(g.vertex_groups[v].boundary for v in g.vertices)
    return normalize(Amalgam(args))


# ---------------------------------------------------------------------------
# JSON round trip.

def from_json(text: str) -> GraphOfGroups:
    """Parse {"vertices": {name: {"order": n|"inf", "boundary": expr}},
    "edges": [{"ends": [v, w], "edge_order": n}]}."""
    error = GogParseError
    doc = document(loads(text, error), error, ("vertices", "edges"))
    vertex_groups = {}
    for name, body in require(doc["vertices"], "object", error,
                              "'vertices' must be an object").items():
        if not isinstance(body, dict) or "order" not in body:
            raise error("vertex needs an 'order'", name)
        order = INF if body["order"] == "inf" else body["order"]
        expr = body.get("boundary")
        if expr is None and order == INF:
            raise error("infinite vertex group needs a 'boundary' expression",
                        name)
        if expr is not None:
            require(expr, "string", error,
                    "'boundary' must be an expression string", name)
        try:
            vertex_groups[name] = GroupDescriptor(
                order, EMPTY if expr is None else parse_expr(expr))
        except ExprSyntaxError as exc:
            raise error(f"bad boundary expression: {exc}", name) from exc
        except ValueError as exc:
            raise error(str(exc), name) from exc
    edges = []
    for pos, body in enumerate(require(doc["edges"], "list", error,
                                       "'edges' must be a list")):
        if (not isinstance(body, dict) or "ends" not in body
                or "edge_order" not in body):
            raise error("edge needs 'ends' and 'edge_order'", f"edge {pos}")
        ends = body["ends"]
        if not (SHAPES["strings"](ends) and len(ends) == 2):
            raise error("'ends' must list two vertices", f"edge {pos}")
        edges.append((*ends, body["edge_order"]))
    try:
        return GraphOfGroups(vertex_groups, edges)
    except ValueError as exc:
        raise error(str(exc)) from exc


def to_json(g: GraphOfGroups) -> str:
    vertices = {}
    for name, desc in g.vertex_groups.items():
        body = {"order": "inf" if desc.order == INF else desc.order}
        if desc.order == INF:
            body["boundary"] = format_expr(desc.boundary)
        vertices[name] = body
    doc = {
        "vertices": vertices,
        "edges": [{"ends": [v, w], "edge_order": order}
                  for v, w, order in g.edges],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
