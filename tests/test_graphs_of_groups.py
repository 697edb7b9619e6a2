"""Graphs of groups: collapses, elementarity, Bass-Serre balls, the tree's
separation properties, boundaries.

Ball sizes are checked against an independent level-count recursion for
biregular trees, written directly from the degree formula rather than the
ball builder.  The exact separation check is checked against the check on
a built ball (`ball_separation`), which is itself checked against a
quadratic walk (`quadratic_separation`).
"""

import itertools
import json
import math
import random
import re

import pytest

from denseamalgam.boundary import Amalgam, Atom, CANTOR, EMPTY, normalize, parse_expr
from denseamalgam.graphs_of_groups import (
    BassSerreBall,
    GogParseError,
    GraphOfGroups,
    GroupDescriptor,
    _collapse,
    _trivial,
    ball_counts,
    bass_serre_ball,
    boundary_expression,
    check_separation,
    from_json,
    is_non_elementary,
    reduce,
    to_json,
)

INF = math.inf


def gg(vertex_orders, edges, boundaries=None):
    boundaries = boundaries or {}
    groups = {
        name: GroupDescriptor(order, boundaries.get(name, EMPTY))
        for name, order in vertex_orders.items()
    }
    return GraphOfGroups(groups, edges)


def degree(g, vertex):
    """Bass-Serre tree degree of any tree vertex over `vertex`: the sum of
    the indices of the oriented edges with that head."""
    total = 0
    for a in range(2 * len(g.edges)):
        if g.head(a) == vertex:
            idx = g.index(a)
            if idx == INF:
                return INF
            total += idx
    return total


Z2_Z3 = gg({"u": 2, "w": 3}, [("u", "w", 1)])
D_INF_SPLITTING = gg({"u": 2, "w": 2}, [("u", "w", 1)])


def loop_graph(n=4):
    # loop with both inclusions onto: edge order equals the vertex order
    return gg({"v": n}, [("v", "v", n)])


def biregular_level_counts(deg_even, deg_odd, radius):
    """Level sizes of a tree whose vertices at even/odd depth have the given
    degrees; written straight from the degree recursion."""
    counts = [1]
    for level in range(1, radius + 1):
        parent_degree = deg_even if (level - 1) % 2 == 0 else deg_odd
        branching = parent_degree if level == 1 else parent_degree - 1
        counts.append(counts[-1] * branching)
    return counts


def graph_isomorphic(g1, g2):
    """Exhaustive matching on vertex names; fine for the small test graphs."""
    v1, v2 = list(g1.vertices), list(g2.vertices)
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False
    target = sorted((tuple(sorted((a, b))), o) for a, b, o in g2.edges)
    for perm in itertools.permutations(v2):
        mapping = dict(zip(v1, perm))
        if any(g1.vertex_groups[v] != g2.vertex_groups[mapping[v]] for v in v1):
            continue
        mapped = sorted((tuple(sorted((mapping[a], mapping[b]))), o)
                        for a, b, o in g1.edges)
        if mapped == target:
            return True
    return False


def unambiguous_absorption(g):
    """True when no vertex can ever be absorbed along two different edges:
    absorbing v needs edge order == order(v), so one such edge per vertex
    order value suffices, and collapses never change surviving orders."""
    import collections
    by_order = collections.Counter(o for _, _, o in g.edges)
    return all(by_order[desc.order] <= 1 for desc in g.vertex_groups.values()
               if desc.order in by_order)


def random_gog(rng):
    """Random connected graph of groups with finite vertex groups."""
    n = rng.randint(1, 6)
    names = [f"v{i}" for i in range(n)]
    orders = {name: rng.choice([1, 2, 3, 4, 6, 12]) for name in names}
    edges = []
    for i in range(1, n):
        other = names[rng.randrange(i)]
        edges.append((names[i], other))
    for _ in range(rng.randint(0, 3)):
        edges.append((rng.choice(names), rng.choice(names)))
    full = []
    for v, w in edges:
        divisors = [d for d in range(1, 13)
                    if orders[v] % d == 0 and orders[w] % d == 0]
        full.append((v, w, rng.choice(divisors)))
    return gg(orders, full)


def trivial_edges(g):
    """Collapsible edges: non-loops whose inclusion into one end is onto.

    Returns one oriented edge per collapsible slot, oriented so that the head
    is the absorbed end (index 1); ordered by sorted end names then slot.
    """
    return _trivial(g.vertex_groups, g.edges)


def elementary_collapse(g, e=None, *, oriented=None):
    """Contract a trivial edge, given as slot `e` or as an `oriented` edge;
    the surviving vertex keeps the tail's group."""
    if oriented is not None:
        a = oriented
        if g.is_loop(a >> 1):
            raise ValueError("cannot collapse a loop")
        if g.index(a) != 1:
            raise ValueError("edge is not trivial in this orientation")
    else:
        matches = [t for t in trivial_edges(g) if t >> 1 == e]
        if not matches:
            raise ValueError(f"edge {e} is not trivial")
        a = matches[0]
    return GraphOfGroups(*_collapse(g.vertex_groups, g.edges, a))


class TestConstruction:
    def test_requires_vertices(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            GraphOfGroups({}, [])

    def test_edge_order_must_divide(self):
        with pytest.raises(ValueError, match="does not divide"):
            gg({"u": 2, "w": 3}, [("u", "w", 2)])

    def test_unknown_end(self):
        with pytest.raises(ValueError, match="not a vertex"):
            gg({"u": 2}, [("u", "z", 1)])

    def test_connectivity_required(self):
        with pytest.raises(ValueError, match="not connected"):
            gg({"u": 2, "w": 2}, [])

    def test_finite_vertex_boundary_must_be_empty(self):
        with pytest.raises(ValueError, match="empty boundary"):
            GroupDescriptor(2, Atom("p"))

    def test_index_and_degree(self):
        g = Z2_Z3
        a_uw = 1  # slot 0 toward its end 1, head w
        assert g.head(a_uw) == "w" and g.tail(a_uw) == "u"
        assert g.index(a_uw) == 3
        assert g.index(a_uw ^ 1) == 2
        assert degree(g, "u") == 2 and degree(g, "w") == 3

    def test_infinite_index(self):
        g = gg({"u": INF, "w": 2}, [("u", "w", 2)],
               boundaries={"u": Atom("p")})
        to_u = 0 if g.head(0) == "u" else 1
        assert g.index(to_u) == INF
        assert g.index(to_u ^ 1) == 1


class TestTrivialEdges:
    def test_index_one_side_collapses(self):
        g = gg({"big": 6, "small": 2}, [("big", "small", 2)])
        (a,) = trivial_edges(g)
        assert g.head(a) == "small"  # absorbed end
        assert g.index(a) == 1

    def test_loop_never_trivial(self):
        assert trivial_edges(loop_graph()) == []

    def test_z2_z3_has_none(self):
        assert trivial_edges(Z2_Z3) == []

    def test_collapse_chain_to_single_edge(self):
        # only the a-b edge is trivial (toward the end vertex a)
        g = gg({"a": 2, "b": 6, "c": 3}, [("a", "b", 2), ("b", "c", 1)])
        (t,) = trivial_edges(g)
        assert g.head(t) == "a"
        out = elementary_collapse(g, oriented=t)
        assert set(out.vertices) == {"b", "c"}
        assert out.edges == (("b", "c", 1),)

    def test_chain_trivial_toward_middle(self):
        g = gg({"u": 6, "m": 2, "w": 6}, [("u", "m", 2), ("m", "w", 2)])
        found = trivial_edges(g)
        assert len(found) == 2
        assert all(g.head(a) == "m" for a in found)
        for a in found:
            out = elementary_collapse(g, oriented=a)
            assert set(out.vertices) == {"u", "w"}
            assert out.edges[0][2] == 2

    def test_collapse_two_vertex_graph(self):
        g = gg({"u": 6, "m": 2}, [("u", "m", 2)])
        out = elementary_collapse(g, 0)
        assert out.vertices == ("u",)
        assert out.edges == ()
        assert out.vertex_groups["u"].order == 6

    def test_collapse_rejects_loops_and_non_trivial(self):
        with pytest.raises(ValueError, match="not trivial"):
            elementary_collapse(Z2_Z3, 0)
        g = gg({"v": 4}, [("v", "v", 4)])
        with pytest.raises(ValueError, match="loop"):
            elementary_collapse(g, oriented=0)

    def test_collapse_can_create_loops(self):
        # two parallel edges u=m, one trivial; collapsing makes the other a loop
        g = gg({"u": 4, "m": 2}, [("u", "m", 2), ("u", "m", 1)])
        out = elementary_collapse(g, 0)
        assert out.vertices == ("u",)
        assert out.edges == (("u", "u", 1),)


class TestReduce:
    def test_fixed_point(self):
        assert reduce(Z2_Z3) == Z2_Z3
        assert reduce(loop_graph()) == loop_graph()

    def test_chain_of_trivial_edges(self):
        orders = {"a": 2, "b": 2, "c": 2, "d": 2}
        edges = [("a", "b", 2), ("b", "c", 2), ("c", "d", 2)]
        out = reduce(gg(orders, edges))
        assert len(out.vertices) == 1 and not out.edges

    def test_randomized_orders_agree_up_to_isomorphism(self, rng):
        # Collapse order only matters when some vertex is absorbable along
        # two different edges, which forces both edge orders to equal that
        # vertex's order.  Corpus restricted so that cannot happen.
        accepted = 0
        for _ in range(300):
            g = random_gog(rng)
            if not unambiguous_absorption(g):
                continue
            accepted += 1
            baseline = reduce(g)
            for seed in range(3):
                other = reduce(g, rng=random.Random(seed))
                assert graph_isomorphic(baseline, other)
            if accepted == 30:
                break
        assert accepted >= 20

    def test_ambiguous_absorption_counterexample(self):
        # center absorbable along all three edges: the surviving star keeps
        # the chosen center, so reduced shapes differ; coarser invariants
        # (elementarity, vertex count minus edge count) still agree
        g = gg({"m": 2, "u": 6, "w": 4, "z": 10},
               [("m", "u", 2), ("m", "w", 2), ("m", "z", 2)])
        into_u = reduce(elementary_collapse(g, 0))
        into_w = reduce(elementary_collapse(g, 1))
        assert not graph_isomorphic(into_u, into_w)
        assert len(into_u.vertices) - len(into_u.edges) \
            == len(into_w.vertices) - len(into_w.edges)
        assert is_non_elementary(into_u) and is_non_elementary(into_w)


class TestElementarity:
    def test_d_infinity_elementary(self):
        assert not is_non_elementary(D_INF_SPLITTING)

    def test_z2_z3_non_elementary(self):
        assert is_non_elementary(Z2_Z3)

    def test_single_vertex_elementary(self):
        assert not is_non_elementary(gg({"v": 5}, []))

    def test_onto_loop_elementary(self):
        assert not is_non_elementary(loop_graph())

    def test_non_onto_loop_is_non_elementary(self):
        # index-2 loop: reduced, not one of the small shapes
        assert is_non_elementary(gg({"v": 4}, [("v", "v", 2)]))

    def test_detected_after_reduction(self):
        g = gg({"a": 2, "b": 2, "c": 2},
               [("a", "b", 1), ("a", "c", 2)])
        assert not is_non_elementary(g)

    def test_invariant_under_relabelling(self, rng):
        for _ in range(30):
            g = random_gog(rng)
            names = list(g.vertices)
            renamed = {v: f"x{i}" for i, v in enumerate(reversed(names))}
            g2 = GraphOfGroups(
                {renamed[v]: g.vertex_groups[v] for v in names},
                [(renamed[v], renamed[w], o) for v, w, o in g.edges])
            assert is_non_elementary(g) == is_non_elementary(g2)


class TestBassSerreBall:
    def test_golden_sizes_z2_z3(self):
        expected = [1, 3, 7, 11, 19, 27, 43]
        for radius, size in enumerate(expected):
            ball = bass_serre_ball(Z2_Z3, "u", radius)
            assert ball.size() == size

    def test_radius_zero(self):
        ball = bass_serre_ball(Z2_Z3, "u", 0)
        assert ball.size() == 1
        assert ball.labels[0] == "u"
        assert ball.unexplored == {0}

    def test_loop_gives_line(self):
        for r in range(5):
            ball = bass_serre_ball(loop_graph(), "v", r)
            assert ball.size() == 2 * r + 1

    def test_biregular_counts(self):
        for p, q in itertools.product((2, 3, 4), repeat=2):
            g = gg({"u": p, "w": q}, [("u", "w", 1)])
            for radius in range(6):
                ball = bass_serre_ball(g, "u", radius)
                counts = biregular_level_counts(p, q, radius)
                assert ball.counts_by_depth() == counts
                assert ball.size() == sum(counts)

    def test_edge_order_scales_out(self):
        # orders (4, 6) with edge order 2 has indices (2, 3): same tree as Z2*Z3
        g = gg({"u": 4, "w": 6}, [("u", "w", 2)])
        for radius in range(5):
            assert bass_serre_ball(g, "u", radius).size() \
                == bass_serre_ball(Z2_Z3, "u", radius).size()

    def test_degrees_match_formula(self, rng):
        for _ in range(25):
            g = random_gog(rng)
            if max(degree(g, v) for v in g.vertices) > 6:
                continue  # keep radius-3 balls small
            base = g.vertices[0]
            ball = bass_serre_ball(g, base, 3)
            for nid, (label, depth, parent, _) in enumerate(ball_nodes(ball)):
                if depth == ball.radius:
                    continue
                expected = degree(g, label) - (0 if parent is None else 1)
                assert len(ball.children[nid]) == expected

    def test_infinite_vertex_rejected(self):
        g = gg({"u": INF, "w": 2}, [("u", "w", 2)],
               boundaries={"u": Atom("p")})
        with pytest.raises(ValueError, match="tree not locally finite at u"):
            bass_serre_ball(g, "w", 2)

    @pytest.mark.parametrize("radius", [True, False, 1.0, -1],
                             ids=["true", "false", "float", "negative"])
    def test_radius_must_be_a_count(self, radius):
        with pytest.raises(ValueError, match="radius must be a non-negative"):
            bass_serre_ball(Z2_Z3, "u", radius)
        with pytest.raises(ValueError, match="radius must be a non-negative"):
            ball_counts(Z2_Z3, "u", radius)

    def test_radius_cap(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            bass_serre_ball(Z2_Z3, "u", 13)
        with pytest.raises(ValueError, match="exceeds cap 12"):
            ball_counts(Z2_Z3, "u", 13)

    def test_unknown_base(self):
        with pytest.raises(ValueError, match="unknown base"):
            bass_serre_ball(Z2_Z3, "zz", 1)

    def test_dot_output(self):
        dot = bass_serre_ball(Z2_Z3, "u", 1).to_dot()
        assert dot.startswith("graph ball {")
        assert 'label="u"' in dot and 'label="w"' in dot
        assert "n0 -- n1" in dot

    def test_dot_labels_read_back(self):
        g = gg({'a"b': 2, "c\\": 3}, [('a"b', "c\\", 1)])
        ball = bass_serre_ball(g, 'a"b', 2)
        quoted = re.findall(r'label="((?:[^"\\]|\\.)*)"', ball.to_dot())
        assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == ball.labels
        assert set(ball.labels) == {'a"b', "c\\"}


HAIR = gg({"u": 2, "w": 2, "h1": 2, "h2": 2},
          [("u", "w", 1), ("w", "h1", 2), ("h1", "h2", 2)])


class TestSeparation:
    """Each ball verdict is the oracle's (`ball_separation`); the exact
    verdict of `check_separation` does not depend on a radius."""

    def test_z2_z3_three_way_holds(self):
        ball = bass_serre_ball(Z2_Z3, "u", 4)
        report = ball_separation(ball, Z2_Z3)
        assert report["three_way"] == "pass"
        assert all(ball.labels[i] == "w" for i in report["three_way_nodes"])
        assert report["three_way_nodes"] != []
        exact = check_separation(Z2_Z3)
        assert exact["three_way"] == "pass"
        assert exact["three_way_vertices"] == ["w"]  # degree 3; u has 2

    def test_radius_zero_inconclusive(self):
        ball = bass_serre_ball(Z2_Z3, "u", 0)
        report = ball_separation(ball, Z2_Z3)
        assert report["edge_overall"] == "inconclusive"
        assert report["three_way"] == "inconclusive"
        exact = check_separation(Z2_Z3)
        assert (exact["edge_overall"], exact["three_way"]) == ("pass", "pass")

    def test_line_fails_three_way(self):
        g = loop_graph()
        report = ball_separation(bass_serre_ball(g, "v", 4), g)
        assert report["three_way"] == "fail"
        # every finite side of the line still shows the single label
        assert report["edge_overall"] == "pass"
        assert check_separation(g) == {
            "edge_overall": "pass", "edge_witness": None,
            "three_way": "fail", "three_way_vertices": []}

    def test_true_leaf_side_fails(self):
        # indices (1,1) across a non-loop edge: the tree is one segment
        g = gg({"u": 2, "w": 2}, [("u", "w", 2)])
        report = ball_separation(bass_serre_ball(g, "u", 2), g)
        assert report["edge_overall"] == "fail"
        exact = check_separation(g)
        assert exact["edge_overall"] == "fail"
        # slot 0 entered from w to u: the half-tree is the lone u node
        assert exact["edge_witness"] == {"edge": 0, "from": "w", "to": "u",
                                         "missing": ["w"]}

    def test_edges_inconclusive_at_small_radius(self):
        ball = bass_serre_ball(Z2_Z3, "u", 2)
        report = ball_separation(ball, Z2_Z3)
        assert report["edge_overall"] == "inconclusive"
        assert all(c["verdict"] in ("pass", "inconclusive")
                   for c in report["edge_checks"])
        assert check_separation(Z2_Z3)["edge_overall"] == "pass"

    def test_edgeless_graph(self):
        # the tree is one vertex: no edge to split it, no piece at all
        assert check_separation(gg({"v": 5}, [])) == {
            "edge_overall": "pass", "edge_witness": None,
            "three_way": "fail", "three_way_vertices": []}

    def test_hair_refutes_the_ball_three_way_pass(self):
        # a line of u and w with a finite hair w-h1-h2 at every w: w has
        # degree 3, but only two of its pieces are infinite
        for radius in (2, 4):
            report = ball_separation(bass_serre_ball(HAIR, "u", radius), HAIR)
            assert report["three_way"] == "pass"
        assert check_separation(HAIR) == {
            "edge_overall": "fail",
            "edge_witness": {"edge": 1, "from": "w", "to": "h1",
                             "missing": ["u", "w"]},
            "three_way": "fail", "three_way_vertices": []}

    def test_infinite_vertex_rejected(self):
        g = gg({"u": INF, "w": 2}, [("u", "w", 2)],
               boundaries={"u": Atom("p")})
        with pytest.raises(ValueError, match="tree not locally finite at u"):
            check_separation(g)
        with pytest.raises(ValueError, match="tree not locally finite at u"):
            ball_counts(g, "w", 2)


def ball_nodes(ball):
    """(label, depth, parent, entry) per node in id order, read from the
    ball's flat lists; the parent is None at the base."""
    return [(label, depth, None if parent < 0 else parent, entry)
            for label, depth, parent, entry in zip(
                ball.labels, ball.tree.depth, ball.tree.parent, ball.entries)]


def _worst(verdicts):
    """The first of "fail", "inconclusive" and "pass" that occurs."""
    return ("fail" if "fail" in verdicts
            else "inconclusive" if "inconclusive" in verdicts else "pass")


def ball_separation(ball, g):
    """Truncation-aware evidence for the two tree separation properties,
    read from a built ball; sides cut off by the radius report
    'inconclusive' rather than 'fail'.

    A conclusive edge verdict and a three-way "fail" agree with the exact
    `check_separation`.  A three-way "pass" need not: a piece that reaches
    the radius counts as unbounded even when it is finite.  The pass up
    gives each subtree's label bitmask, and its count of unexplored nodes
    is a difference of prefix counts, over a list of unexplored flags in
    pre-order, across its pre-order interval; the pass down gives the
    label bitmask of the rest of the ball beyond each edge.  One pass from
    each node to its parent counts the unbounded pieces at every node, and
    each edge's verdicts are looked up from the four booleans that decide
    them.
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
    sub_open = [before[stop] - before[start]
                for start, stop in zip(tree.tin, tree.tout)]
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
    elif all(degree(g, v) <= 2 for v in g.vertices):
        three_way = "fail"
    else:
        three_way = "inconclusive"
    return {
        "edge_checks": edge_checks,
        "edge_overall": edge_overall,
        "three_way_nodes": three_way_nodes,
        "three_way": three_way,
    }


def quadratic_separation(ball, g):
    """`ball_separation` as first written: one subtree walk per node, and
    each side's labels and truncation read from its own id set."""
    labels = set(g.vertices)
    nodes = ball_nodes(ball)
    all_ids = frozenset(range(len(nodes)))

    def subtree_ids(node_id):
        out = [node_id]
        stack = [node_id]
        while stack:
            for child in ball.children[stack.pop()]:
                out.append(child)
                stack.append(child)
        return frozenset(out)

    def side_verdict(ids):
        if {nodes[i][0] for i in ids} >= labels:
            return "pass"
        if any(i in ball.unexplored for i in ids):
            return "inconclusive"
        return "fail"

    edge_checks = []
    for nid, (_, _, parent, _) in enumerate(nodes):
        if parent is None:
            continue
        inside = subtree_ids(nid)
        v1, v2 = side_verdict(inside), side_verdict(all_ids - inside)
        verdict = ("fail" if "fail" in (v1, v2)
                   else "inconclusive" if "inconclusive" in (v1, v2) else "pass")
        edge_checks.append({"edge": [parent, nid],
                            "subtree": v1, "rest": v2, "verdict": verdict})
    if any(c["verdict"] == "fail" for c in edge_checks):
        edge_overall = "fail"
    elif not edge_checks or any(c["verdict"] == "inconclusive" for c in edge_checks):
        edge_overall = "inconclusive"
    else:
        edge_overall = "pass"
    three_way_nodes = []
    for nid, (_, _, parent, _) in enumerate(nodes):
        pieces = [subtree_ids(c) for c in ball.children[nid]]
        if parent is not None:
            pieces.append(all_ids - subtree_ids(nid))
        if sum(1 for p in pieces if p & ball.unexplored) >= 3:
            three_way_nodes.append(nid)
    if three_way_nodes:
        three_way = "pass"
    elif all(degree(g, v) <= 2 for v in g.vertices):
        three_way = "fail"
    else:
        three_way = "inconclusive"
    return {"edge_checks": edge_checks, "edge_overall": edge_overall,
            "three_way_nodes": three_way_nodes, "three_way": three_way}


Z3_Z4 = gg({"p": 3, "q": 4}, [("p", "q", 1)])


def naive_ball(g, base, radius):
    """The ball by plain breadth-first search, each node's children and
    degree read again from every oriented edge: (label, depth, parent,
    entry) per node, and the ids whose neighbours the radius cut off."""
    nodes = [(base, 0, None, None)]
    unexplored = []
    for nid, (label, depth, parent, entry) in enumerate(nodes):  # grows
        if depth == radius:
            if degree(g, label) - (parent is not None) > 0:
                unexplored.append(nid)
            continue
        for a in range(2 * len(g.edges)):
            if g.head(a) == label:
                for _ in range(g.index(a) - (a == entry)):
                    nodes.append((g.tail(a), depth + 1, nid, a ^ 1))
    return nodes, unexplored


def naive_dot(nodes, unexplored):
    """The DOT text of a `naive_ball` result: one line per node in id
    order, unexplored ones dashed, then one line per edge."""
    lines = ["graph ball {"]
    for nid, (label, _, _, _) in enumerate(nodes):
        shape = ", style=dashed" if nid in unexplored else ""
        lines.append(f'  n{nid} [label="{label}"{shape}];')
    for nid, (_, _, parent, _) in enumerate(nodes):
        if parent is not None:
            lines.append(f"  n{parent} -- n{nid};")
    lines.append("}")
    return "\n".join(lines)


BALL_GRAPHS = pytest.mark.parametrize("g, base", [
    (Z3_Z4, "p"), (Z3_Z4, "q"), (Z2_Z3, "w"), (loop_graph(), "v"),
    (D_INF_SPLITTING, "u"),
    (gg({"a": 2, "b": 3, "c": 2}, [("a", "b", 1), ("b", "c", 1)]), "b")],
    ids=["z3*z4-p", "z3*z4-q", "z2*z3", "loop", "d-infinity", "three-vertex"])


class TestBallOracle:
    @BALL_GRAPHS
    @pytest.mark.parametrize("radius", range(10))
    def test_matches_breadth_first_search(self, g, base, radius):
        ball = bass_serre_ball(g, base, radius)
        nodes, unexplored = naive_ball(g, base, radius)
        assert ball_nodes(ball) == nodes
        assert ball.unexplored == frozenset(unexplored)

    @BALL_GRAPHS
    @pytest.mark.parametrize("radius", range(10))
    def test_flat_lists_match_breadth_first_search(self, g, base, radius):
        ball = bass_serre_ball(g, base, radius)
        nodes, _ = naive_ball(g, base, radius)
        assert ball.labels == [label for label, _, _, _ in nodes]
        assert ball.tree.parent == tuple(-1 if parent is None else parent
                                         for _, _, parent, _ in nodes)
        assert ball.entries == [entry for _, _, _, entry in nodes]
        depths = [depth for _, depth, _, _ in nodes]
        assert ball.counts_by_depth() == [depths.count(d)
                                          for d in range(radius + 1)]
        assert ball_counts(g, base, radius) == ball.counts_by_depth()
        assert ball.size() == len(nodes)

    @BALL_GRAPHS
    @pytest.mark.parametrize("radius", range(7))
    def test_dot_matches_breadth_first_search(self, g, base, radius):
        nodes, unexplored = naive_ball(g, base, radius)
        assert (bass_serre_ball(g, base, radius).to_dot()
                == naive_dot(nodes, set(unexplored)))

    @pytest.mark.parametrize("g, base, degrees", [
        (Z2_Z3, "u", (2, 3)), (Z3_Z4, "p", (3, 4)), (Z3_Z4, "q", (4, 3))],
        ids=["z2*z3-u", "z3*z4-p", "z3*z4-q"])
    def test_counts_at_the_radius_cap(self, g, base, degrees):
        ball = bass_serre_ball(g, base, 12)
        counts = biregular_level_counts(*degrees, 12)
        assert ball.counts_by_depth() == counts
        assert ball_counts(g, base, 12) == counts
        assert ball.size() == sum(counts)

    def test_random_graphs(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_gog(rng)
            base = rng.choice(g.vertices)
            growth = max(1, max(degree(g, v) for v in g.vertices))
            size = 1
            for radius in range(10):
                if size * growth > 2000:  # the next ball would be too large
                    break
                nodes, unexplored = naive_ball(g, base, radius)
                ball = bass_serre_ball(g, base, radius)
                assert ball_nodes(ball) == nodes
                assert ball.unexplored == frozenset(unexplored)
                assert ball_separation(ball, g) == quadratic_separation(ball, g)
                size = len(nodes)


class TestSeparationOracle:
    @pytest.mark.parametrize("radius", range(8))
    def test_z3_z4_balls(self, radius):
        ball = bass_serre_ball(Z3_Z4, "p", radius)
        assert ball_separation(ball, Z3_Z4) == quadratic_separation(ball, Z3_Z4)

    # (edge, three_way) on the ball, then the exact pair
    @pytest.mark.parametrize("g, base, radius, edge, three_way, exact", [
        (Z2_Z3, "u", 5, "inconclusive", "pass", ("pass", "pass")),
        # indices (1, 1): the tree is one segment and a side misses a label
        (gg({"u": 2, "w": 2}, [("u", "w", 2)]), "u", 2, "fail", "fail",
         ("fail", "fail")),
        # every vertex degree <= 2: lines, no three-way split
        (loop_graph(), "v", 4, "pass", "fail", ("pass", "fail")),
        (D_INF_SPLITTING, "w", 3, "inconclusive", "fail", ("pass", "fail")),
        (gg({"a": 2, "b": 3, "c": 2}, [("a", "b", 1), ("b", "c", 1)]),
         "b", 4, "inconclusive", "pass", ("pass", "pass")),
    ], ids=["z2*z3", "edge-fails", "loop-line", "d-infinity", "three-vertex"])
    def test_other_graphs(self, g, base, radius, edge, three_way, exact):
        ball = bass_serre_ball(g, base, radius)
        report = ball_separation(ball, g)
        assert report == quadratic_separation(ball, g)
        assert (report["edge_overall"], report["three_way"]) == (edge, three_way)
        sep = check_separation(g)
        assert (sep["edge_overall"], sep["three_way"]) == exact

    def test_subtree_ids_are_the_walked_subtrees(self):
        ball = bass_serre_ball(Z3_Z4, "q", 4)
        for nid in range(ball.size()):
            walked = {nid}
            stack = [nid]
            while stack:
                kids = ball.children[stack.pop()]
                walked.update(kids)
                stack.extend(kids)
            ids = ball.subtree_ids(nid)
            assert set(ids) == walked and len(ids) == len(walked)


class TestExactSeparation:
    def test_refines_the_ball_on_random_graphs(self):
        """Over (graph, radius) pairs with balls of at most 2,000 nodes, the
        level counts are the built ball's, every conclusive ball edge
        verdict and every ball three-way "fail" is the exact verdict."""
        rng = random.Random(7)
        pairs = refuted = 0
        for _ in range(400):
            g = random_gog(rng)
            base = rng.choice(g.vertices)
            sep = check_separation(g)
            for radius in range(13):
                counts = ball_counts(g, base, radius)
                if sum(counts) > 2000:
                    break
                ball = bass_serre_ball(g, base, radius)
                assert ball.counts_by_depth() == counts
                report = ball_separation(ball, g)
                if report["edge_overall"] != "inconclusive":
                    assert report["edge_overall"] == sep["edge_overall"]
                if report["three_way"] == "fail":
                    assert sep["three_way"] == "fail"
                refuted += (report["three_way"], sep["three_way"]) == ("pass", "fail")
                pairs += 1
        assert pairs >= 1000
        assert refuted > 0  # hair-shaped graphs: see test_hair_refutes...

    def test_criterion_6_sizes(self):
        sizes = list(itertools.accumulate(ball_counts(Z2_Z3, "u", 6)))
        assert sizes == [1, 3, 7, 11, 19, 27, 43]


class TestBoundary:
    def test_all_finite_is_cantor(self):
        assert boundary_expression(Z2_Z3) == CANTOR

    def test_two_infinite_vertices(self):
        g = gg({"u": INF, "w": INF}, [("u", "w", 2)],
               boundaries={"u": Atom("p1"), "w": Atom("p2")})
        assert boundary_expression(g) == normalize(
            Amalgam((Atom("p1"), Atom("p2"))))

    def test_one_infinite_one_finite(self):
        g = gg({"u": INF, "w": 6}, [("u", "w", 2)],
               boundaries={"u": Atom("p")})
        assert boundary_expression(g) == Amalgam((Atom("p"),))

    def test_elementary_rejected(self):
        with pytest.raises(ValueError, match="elementary"):
            boundary_expression(D_INF_SPLITTING)
        with pytest.raises(ValueError, match="elementary"):
            boundary_expression(gg({"v": 5}, []))

    def test_vertex_order_independent(self):
        g1 = gg({"u": INF, "w": INF}, [("u", "w", 2)],
                boundaries={"u": Atom("p1"), "w": Atom("p2")})
        g2 = gg({"w": INF, "u": INF}, [("u", "w", 2)],
                boundaries={"u": Atom("p1"), "w": Atom("p2")})
        assert boundary_expression(g1) == boundary_expression(g2)

    def test_normal_form(self):
        g = gg({"u": INF, "w": INF, "x": 2},
               [("u", "w", 2), ("w", "x", 1)],
               boundaries={"u": Atom("p"), "w": Atom("p")})
        e = boundary_expression(g)
        assert normalize(e) == e
        assert e == Amalgam((Atom("p"),))


class TestJson:
    def test_round_trip(self):
        g = gg({"u": INF, "w": 6}, [("u", "w", 2), ("w", "w", 3)],
               boundaries={"u": parse_expr("Amalgam(p, q:td)")})
        assert from_json(to_json(g)) == g

    def test_inf_spelling(self):
        text = json.dumps({
            "vertices": {"u": {"order": "inf", "boundary": "p"},
                         "w": {"order": 2}},
            "edges": [{"ends": ["u", "w"], "edge_order": 2}],
        })
        g = from_json(text)
        assert g.vertex_groups["u"].order == INF
        assert g.vertex_groups["u"].boundary == Atom("p")
        assert g.vertex_groups["w"].boundary == EMPTY

    def test_infinite_vertex_requires_boundary(self):
        text = json.dumps({
            "vertices": {"u": {"order": "inf"}, "w": {"order": 2}},
            "edges": [{"ends": ["u", "w"], "edge_order": 1}],
        })
        with pytest.raises(GogParseError, match="needs a 'boundary'"):
            from_json(text)

    def test_finite_vertex_rejects_boundary(self):
        text = json.dumps({
            "vertices": {"u": {"order": 4, "boundary": "p"}},
            "edges": [],
        })
        with pytest.raises(GogParseError, match="empty boundary"):
            from_json(text)

    @pytest.mark.parametrize("vertices, message", [
        ({}, "at least one vertex"),
        ({"u": {"order": 2, "boundary": "Amalgam("}},
         "bad boundary expression"),
        ({"u": {"order": 2.0}}, "order must be"),
        ({"u": {"order": True}}, "order must be"),
        ({"u": {"order": "inf", "boundary": None}}, "needs a 'boundary'"),
    ], ids=["no-vertices", "bad-finite-boundary", "float-order", "bool-order",
            "null-boundary"])
    def test_vertex_values_refused_as_parse_errors(self, vertices, message):
        with pytest.raises(GogParseError, match=message):
            from_json(json.dumps({"vertices": vertices, "edges": []}))

    def test_malformed_documents(self):
        with pytest.raises(GogParseError, match="invalid JSON"):
            from_json("{")
        with pytest.raises(GogParseError, match="missing key"):
            from_json('{"vertices": {"u": {"order": 2}}}')
        with pytest.raises(GogParseError, match="order must be"):
            from_json('{"vertices": {"u": {"order": 0}}, "edges": []}')
        with pytest.raises(GogParseError, match="two vertices"):
            from_json('{"vertices": {"u": {"order": 2}},'
                      ' "edges": [{"ends": ["u"], "edge_order": 1}]}')
        with pytest.raises(GogParseError, match="two vertices"):
            from_json('{"vertices": {"u": {"order": 2}, "v": {"order": 3}},'
                      ' "edges": [{"ends": [["u"], "v"], "edge_order": 1}]}')
        with pytest.raises(GogParseError, match="expression string"):
            from_json('{"vertices": {"u": {"order": 2, "boundary": 5}},'
                      ' "edges": []}')
        with pytest.raises(GogParseError, match="expression string"):
            from_json('{"vertices": {"u": {"order": "inf", "boundary": 5}},'
                      ' "edges": []}')
