"""Graphs of groups with finite edge groups.

Vertex and edge groups enter only through their orders; an edge inclusion is
recorded by its index in the target vertex group, which is all that trivial
edges, the elementary shapes, Bass-Serre ball degrees, and the boundary
formula depend on.  Infinite vertex groups additionally carry a symbolic
boundary expression.

An oriented edge is a pair (edge slot, head end); `bar` flips the head.  The
index of an oriented edge a is order(head(a)) / edge_order, infinite exactly
when the head vertex group is infinite.

A Bass-Serre ball is built one level at a time into flat lists, one entry
per node: its label, its parent id and its entry family, with the parent
ids held in a `RootedTree`.  The lists are the ball's only representation;
a node is its id.  The separation check reads them, in one pass up the
tree and one pass down it.
"""

import itertools
import json
import math
from dataclasses import dataclass

from ._json import loads
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


class GogParseError(ValueError):
    """Structured error for malformed graph-of-groups documents."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(message if location is None else f"{message} (at {location})")


def _valid_order(order) -> bool:
    if order == INF:
        return True
    return isinstance(order, int) and not isinstance(order, bool) and order >= 1


@dataclass(frozen=True)
class GroupDescriptor:
    """A vertex group: its order and, when infinite, its boundary expression."""

    order: object
    boundary: BoundaryExpr = EMPTY

    def __post_init__(self):
        if not _valid_order(self.order):
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

    def edge_order(self, a) -> int:
        e = a.edge if isinstance(a, OrientedEdge) else a
        return self.edges[e][2]

    def index(self, a: OrientedEdge):
        """Index of the edge group in the head vertex group."""
        head_order = self.vertex_groups[self.head(a)].order
        if head_order == INF:
            return INF
        return head_order // self.edge_order(a)

    def is_loop(self, e: int) -> bool:
        v, w, _ = self.edges[e]
        return v == w

    def degree(self, vertex) -> object:
        """Bass-Serre tree degree of any tree vertex over `vertex`."""
        total = 0
        for a in self.oriented_edges():
            if self.head(a) == vertex:
                idx = self.index(a)
                if idx == INF:
                    return INF
                total += idx
        return total

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


def trivial_edges(g: GraphOfGroups):
    """Collapsible edges: non-loops whose inclusion into one end is onto.

    Returns one oriented edge per collapsible slot, oriented so that the head
    is the absorbed end (index 1); ordered by sorted end names then slot.
    """
    return _trivial(g.vertex_groups, g.edges)


def elementary_collapse(g: GraphOfGroups, e) -> GraphOfGroups:
    """Contract a trivial edge; the surviving vertex keeps the tail's group."""
    if isinstance(e, OrientedEdge):
        a = e
        if g.is_loop(a.edge):
            raise ValueError("cannot collapse a loop")
        if g.index(a) != 1:
            raise ValueError("edge is not trivial in this orientation")
    else:
        matches = [t for t in trivial_edges(g) if t.edge == e]
        if not matches:
            raise ValueError(f"edge {e} is not trivial")
        a = matches[0]
    return GraphOfGroups(*_collapse(g.vertex_groups, g.edges, a))


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
# Bass-Serre balls.

class BassSerreBall:
    """Finite-radius ball of the Bass-Serre tree, with truncation markers.

    Node ids run breadth first from the base node 0, and three flat lists
    describe node v: `labels[v]` is the graph vertex it lies over,
    `tree.parent[v]` its parent id (-1 at the base) and `entries[v]` the
    oriented edge family it occupies toward its parent (None at the base).
    Depth d holds the ids levels[d] to levels[d + 1] - 1.  `unexplored`
    lists node ids whose further neighbours were cut off by the radius;
    separation checks treat their hidden subtrees as unknown rather than
    absent.
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


def bass_serre_ball(g: GraphOfGroups, base, radius: int,
                    cap: int = _BALL_RADIUS_CAP) -> BassSerreBall:
    """Breadth-first ball of the Bass-Serre tree around a vertex over `base`.

    Children of a node over v come in families, one per oriented edge a with
    head v, with index(a) members each entering through bar(a); the family
    through which the node was entered has one member fewer.  So a node's
    children depend only on the oriented edge it was entered through (or on
    its being the base), and each such state's children are listed once.
    The ball grows one level at a time: the states of a level's children,
    and their parent ids, extend two flat lists in one call each, and the
    labels and entries are read off the states at the end.
    """
    if base not in g.vertex_groups:
        raise ValueError(f"unknown base vertex {base!r}")
    if not isinstance(radius, int) or radius < 0:
        raise ValueError("radius must be a non-negative integer")
    if radius > cap:
        raise ValueError(f"radius {radius} exceeds cap {cap}")
    for name in g.vertices:
        if g.vertex_groups[name].order == INF:
            raise ValueError(f"tree not locally finite at {name}")

    # State k < len(oriented): entered through oriented[k]; the last state is
    # the base.  bar(oriented[k]) is oriented[k ^ 1].
    oriented = g.oriented_edges()
    root = len(oriented)
    over = [g.head(a) for a in oriented] + [base]
    families = {v: [(k, g.index(a)) for k, a in enumerate(oriented)
                    if g.head(a) == v]
                for v in g.vertices}
    kids = [[k ^ 1 for k, index in families[over[s]]
             for _ in range(index - (k == s))]
            for s in range(root + 1)]
    state, parents, levels = [root], [-1], [0, 1]
    for _ in range(radius):
        lo, hi = levels[-2], levels[-1]
        level = [kids[s] for s in state[lo:hi]]
        state.extend(itertools.chain.from_iterable(level))
        parents.extend(itertools.chain.from_iterable(
            map(itertools.repeat, range(lo, hi), map(len, level))))
        levels.append(len(state))
    unexplored = [v for v in range(levels[-2], levels[-1]) if kids[state[v]]]
    labels = list(map(over.__getitem__, state))
    entries = list(map((oriented + [None]).__getitem__, state))
    return BassSerreBall(g, base, radius, labels, parents, entries, levels,
                         unexplored)


def _worst(verdicts):
    """The first of "fail", "inconclusive" and "pass" that occurs."""
    return ("fail" if "fail" in verdicts
            else "inconclusive" if "inconclusive" in verdicts else "pass")


def check_separation(ball: BassSerreBall, g: GraphOfGroups) -> dict:
    """Truncation-aware evidence for the two tree separation properties.

    (1) every tree edge splits the tree into two halves each containing
    lifts of every vertex; (2) some tree vertex splits it into at least
    three unbounded pieces.  Sides cut off by the radius report
    'inconclusive' rather than 'fail'.  Everything is read from the ball's
    flat lists.  The pass up gives each subtree's label bitmask, and its
    count of unexplored nodes is a difference of prefix counts, over a list
    of unexplored flags in pre-order, across its pre-order interval; the
    pass down gives the label bitmask of the rest of the ball beyond each
    edge.  One pass from each node to its parent counts the unbounded
    pieces at every node, and each edge's verdicts are looked up from the
    four booleans that decide them.
    """
    tree = ball.tree
    n = len(tree)
    parent = tree.parent
    bits = {v: 1 << i for i, v in enumerate(g.vertices)}
    full = (1 << len(g.vertices)) - 1
    label = list(map(bits.__getitem__, ball.labels))
    sub_mask = list(label)
    for v in range(n - 1, 0, -1):  # children come after their parents
        sub_mask[parent[v]] |= sub_mask[v]
    unexplored = [False] * n
    for u in ball.unexplored:
        unexplored[u] = True
    before = list(itertools.accumulate(map(unexplored.__getitem__, tree.pre),
                                       initial=0))
    sub_open = [before[s.stop] - before[s.start]
                for s in map(ball.subtree_ids, range(n))]
    all_open = sub_open[0]
    rest_mask = [0] * n
    for p in range(n):  # parents before children
        kids = tree.children[p]
        for siblings in (kids, kids[::-1]):  # earlier, then later siblings
            seen = rest_mask[p] | label[p]
            for c in siblings:
                rest_mask[c] |= seen
                seen |= sub_mask[c]

    def side(complete, truncated):
        return "pass" if complete else "inconclusive" if truncated else "fail"

    # An edge's (subtree, rest, verdict) for each value of the four booleans
    # that decide it: whether its subtree has every label and whether it
    # has an unexplored node, then the same for the rest of the ball.
    triples = {}
    for key in itertools.product((False, True), repeat=4):
        sides = side(*key[:2]), side(*key[2:])
        triples[key] = (*sides, _worst(sides))
    edge_checks = []
    for v in range(1, n):
        v1, v2, verdict = triples[sub_mask[v] == full, sub_open[v] > 0,
                                  rest_mask[v] == full, all_open > sub_open[v]]
        edge_checks.append({"edge": [parent[v], v],
                            "subtree": v1, "rest": v2, "verdict": verdict})
    edge_overall = (_worst({c["verdict"] for c in edge_checks})
                    if edge_checks else "inconclusive")

    unbounded = [0] * n  # pieces at each node that reach an unexplored node
    for v in range(1, n):
        if sub_open[v]:
            unbounded[parent[v]] += 1
        if all_open > sub_open[v]:
            unbounded[v] += 1
    three_way_nodes = [v for v in range(n) if unbounded[v] >= 3]
    if three_way_nodes:
        three_way = "pass"
    elif all(g.degree(v) <= 2 for v in g.vertices):
        three_way = "fail"
    else:
        three_way = "inconclusive"
    return {
        "edge_checks": edge_checks,
        "edge_overall": edge_overall,
        "three_way_nodes": three_way_nodes,
        "three_way": three_way,
    }


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
    try:
        doc = loads(text)
    except json.JSONDecodeError as exc:
        raise GogParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GogParseError("document must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise GogParseError(f"missing key {key!r}")
    if not isinstance(doc["vertices"], dict) or not doc["vertices"]:
        raise GogParseError("'vertices' must be a nonempty object")
    vertex_groups = {}
    for name, body in doc["vertices"].items():
        if not isinstance(body, dict) or "order" not in body:
            raise GogParseError("vertex needs an 'order'", location=name)
        order = body["order"]
        if order == "inf":
            order = INF
        if not _valid_order(order):
            raise GogParseError(
                f"order must be a positive integer or \"inf\", got {order!r}",
                location=name)
        boundary_text = body.get("boundary")
        if not isinstance(boundary_text, (str, type(None))):
            raise GogParseError("'boundary' must be an expression string",
                                location=name)
        if order == INF:
            if boundary_text is None:
                raise GogParseError(
                    "infinite vertex group needs a 'boundary' expression",
                    location=name)
            try:
                boundary = parse_expr(boundary_text)
            except ExprSyntaxError as exc:
                raise GogParseError(f"bad boundary expression: {exc}",
                                    location=name) from exc
        else:
            boundary = EMPTY
            if boundary_text is not None and parse_expr(boundary_text) != EMPTY:
                raise GogParseError("finite vertex group must have empty boundary",
                                    location=name)
        try:
            vertex_groups[name] = GroupDescriptor(order, boundary)
        except ValueError as exc:
            raise GogParseError(str(exc), location=name) from exc
    if not isinstance(doc["edges"], list):
        raise GogParseError("'edges' must be a list")
    edges = []
    for pos, body in enumerate(doc["edges"]):
        if (not isinstance(body, dict) or "ends" not in body
                or "edge_order" not in body):
            raise GogParseError("edge needs 'ends' and 'edge_order'",
                                location=f"edge {pos}")
        ends = body["ends"]
        if (not isinstance(ends, list) or len(ends) != 2
                or not all(isinstance(end, str) for end in ends)):
            raise GogParseError("'ends' must list two vertices",
                                location=f"edge {pos}")
        edges.append((ends[0], ends[1], body["edge_order"]))
    try:
        return GraphOfGroups(vertex_groups, edges)
    except ValueError as exc:
        raise GogParseError(str(exc)) from exc


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
