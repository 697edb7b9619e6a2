import math
import random

import pytest

from denseamalgam.boundary import (
    Amalgam,
    Atom,
    CANTOR,
    EMPTY,
    POINT_PAIR,
    Empty,
    is_totally_disconnected,
)
from denseamalgam.coxeter import INF, CoxeterSystem
from denseamalgam.simplicial import SimplicialComplex


def random_expr(rng: random.Random, max_depth=5, max_leaves=8):
    """Random boundary expression with bounded depth and leaf count."""
    budget = rng.randint(1, max_leaves)

    def leaf():
        roll = rng.randrange(6)
        if roll == 0:
            return EMPTY
        if roll == 1:
            return CANTOR
        if roll == 2:
            return POINT_PAIR
        name = rng.choice("abcde")
        if roll == 3:
            return Atom(name)
        if roll == 4:
            return Atom(name, frozenset({"totally_disconnected"}))
        return Atom(name, frozenset({"two_point"}))

    def build(depth, leaves_left):
        if depth <= 0 or leaves_left <= 1 or rng.random() < 0.35:
            return leaf(), 1
        width = rng.randint(1, min(4, leaves_left))
        args, used = [], 0
        for _ in range(width):
            child, n = build(depth - 1, leaves_left - used)
            args.append(child)
            used += n
            if used >= leaves_left:
                break
        return Amalgam(tuple(args)), used

    expr, _ = build(rng.randint(1, max_depth), budget)
    return expr


# ---------------------------------------------------------------------------
# Single-step rewriting, used to confirm the normal form is rule-order
# independent: any maximal run of R1-R5 in any order lands on normalize(e).

def _rewrite_choices(e):
    """All expressions reachable from e by one rule application at one node."""
    out = []
    if not isinstance(e, Amalgam):
        return out
    args = e.args

    def with_args(new_args):
        return Amalgam(tuple(new_args)) if new_args else CANTOR

    for i, a in enumerate(args):
        if isinstance(a, Amalgam):  # R1 at position i
            out.append(with_args(args[:i] + a.args + args[i + 1:]))
        if isinstance(a, Empty):    # R2 at position i
            out.append(with_args(args[:i] + args[i + 1:]))
    has_non_td = any(not is_totally_disconnected(a) for a in args)
    if has_non_td:
        for i, a in enumerate(args):
            if is_totally_disconnected(a):  # R3 at position i
                out.append(with_args(args[:i] + args[i + 1:]))
    if all(is_totally_disconnected(a) for a in args):  # R4
        out.append(CANTOR)
    leaf_like = [a for a in args if not isinstance(a, Amalgam)]
    if len(leaf_like) == len(args):
        ordered = sorted(args, key=lambda a: a.sort_key())
        deduped = []
        for a in ordered:
            if not deduped or deduped[-1] != a:
                deduped.append(a)
        candidate = Amalgam(tuple(deduped))
        if candidate != e:  # R5, only when it changes something
            out.append(candidate)
    # Recurse: a rule may fire inside a nested argument as well.
    for i, a in enumerate(args):
        for inner in _rewrite_choices(a):
            out.append(Amalgam(args[:i] + (inner,) + args[i + 1:]))
    return out


def random_order_normalize(e, rng):
    """Run R1-R5 to a fixed point, choosing the next rewrite with rng.

    Used as evidence of confluence: the result must equal normalize(e).
    """
    current = e
    for _ in range(10000):
        choices = _rewrite_choices(current)
        if not choices:
            return current
        current = choices[rng.randrange(len(choices))]
    raise RuntimeError("rewriting did not terminate")


def random_complex(rng: random.Random, n_vertices):
    """Random simplicial complex on n_vertices labelled vertices."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    faces = []
    n_faces = rng.randint(1, max(2, n_vertices))
    for _ in range(n_faces):
        size = rng.randint(1, min(4, n_vertices))
        faces.append(frozenset(rng.sample(vertices, size)))
    covered = set().union(*faces)
    for v in vertices:
        if v not in covered:
            faces.append(frozenset({v}))
    maximal = [f for f in faces if not any(f != g and f <= g for g in faces)]
    return SimplicialComplex(vertices, set(maximal))


def random_graph_complex(rng: random.Random, n_vertices, p=0.4):
    """Clique complex of a random graph (always flag)."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = set()
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < p:
                edges.add((i, j))
    return clique_complex(n_vertices, edges)


def clique_complex(n_vertices, edges):
    """Clique complex of the graph on range(n_vertices) with the given edges."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    adj = {i: set() for i in range(n_vertices)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    cliques = []

    def extend(clique, candidates):
        grew = False
        for v in sorted(candidates):
            extend(clique | {v}, candidates & adj[v] & set(range(v + 1, n_vertices)))
            grew = True
        if not grew:
            # maximal along this branch; keep only globally maximal later
            cliques.append(clique)

    extend(frozenset(), set(range(n_vertices)))
    maximal = [c for c in cliques if c and not any(c != d and c <= d for d in cliques)]
    if not maximal:
        maximal = [frozenset({i}) for i in range(n_vertices)]
    faces = [frozenset(f"v{i}" for i in c) for c in maximal]
    # isolated vertices
    covered = set().union(*faces) if faces else set()
    for v in vertices:
        if v not in covered:
            faces.append(frozenset({v}))
    return SimplicialComplex(vertices, set(faces))


def random_coxeter_matrix(rng: random.Random, n, entries=(2, 3, 4, 5, 6, math.inf)):
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = rng.choice(entries)
            rows[i][j] = rows[j][i] = value
    return rows


def cosine_matrix(c, subset=None):
    """Symmetric bilinear form of the subset, as a numpy array: 1 on the
    diagonal and -cos(pi/m(s,t)) off it (-1 for infinite orders)."""
    import numpy as np

    members = c.subset_tuple(subset) if subset is not None else c.generators
    n = len(members)
    b = np.ones((n, n), dtype=np.float64)
    for i, s in enumerate(members):
        for j, t in enumerate(members):
            if i == j:
                continue
            m = c.order(s, t)
            b[i, j] = -1.0 if m == INF else -math.cos(math.pi / m)
    return b


def gram_pd_test(c, subset=None, tol=1e-9):
    """Finite-type oracle: the cosine matrix is positive definite (smallest
    eigenvalue > tol).  Independent of the catalogue route of
    `is_finite_type`."""
    members = c.subset_tuple(subset) if subset is not None else c.generators
    if not members:
        return True
    import numpy as np

    eigenvalues = np.linalg.eigvalsh(cosine_matrix(c, members))
    return bool(eigenvalues[0] > tol)


def from_pairs(n, order):
    """System on g00, g01, ... with m(s, t) = order(i, j) for i < j."""
    names = [f"g{i:02d}" for i in range(n)]
    return CoxeterSystem(names, [
        [1 if i == j else order(min(i, j), max(i, j)) for j in range(n)]
        for i in range(n)])


def block_product(rng, n):
    """Free product of one-ended 4-generator blocks (D_inf x D_inf, affine
    A~3, affine A~2 x A1 in turn), generators shuffled among the blocks."""
    perm = list(range(n))
    rng.shuffle(perm)
    block = {g: k // 4 for k, g in enumerate(perm)}
    odd = {}
    for b in range(n // 4):
        a, c, d, e = perm[4 * b:4 * b + 4]
        if b % 3 == 0:
            odd.update({frozenset((a, c)): INF, frozenset((d, e)): INF})
        else:
            ring = ((a, c), (c, d), (d, e), (e, a)) if b % 3 == 1 else \
                ((a, c), (c, d), (d, a))
            odd.update({frozenset(p): 3 for p in ring})
    return from_pairs(n, lambda i, j: INF if block[i] != block[j]
                      else odd.get(frozenset((i, j)), 2))


def product_system(rng, n, labels=(2, 2, 2, 3, INF)):
    """W1 x W2 on two commuting halves, each with random labels and one
    infinite-order pair (one-ended)."""
    perm = list(range(n))
    rng.shuffle(perm)
    halves = (perm[:n // 2], perm[n // 2:])
    odd = {}
    for part in halves:
        for k, i in enumerate(part):
            for j in part[k + 1:]:
                odd[frozenset((i, j))] = rng.choice(labels)
        odd[frozenset(part[:2])] = INF
    return from_pairs(n, lambda i, j: odd.get(frozenset((i, j)), 2))


@pytest.fixture
def rng():
    return random.Random(20260819)


def _circle_space(n, prefix):
    from denseamalgam.metric import FiniteMetricSpace
    return FiniteMetricSpace(
        [f"{prefix}{i}" for i in range(n)],
        [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)])


def submatrix(x, points):
    """The block of x's matrix on points, in their order."""
    import numpy as np

    idx = [x.index[p] for p in points]
    return x.dist[np.ix_(idx, idx)]


def sweep_configs():
    """The 72 small approximation configurations of the benchmark's sweep:
    (tag, sources, depth, branching) over six source choices, depth 0-3 and
    branching 1-3, all at scale 1/3.  Fifteen of them, the two+two' builds
    other than depth 1-3 at branching 3 and the depth-0 circle+two and
    two+circle builds, are structures that `regular check` fails."""
    two, two_b = _circle_space(2, "a"), _circle_space(2, "b")
    circle5, circle9 = _circle_space(5, "c"), _circle_space(9, "d")
    sources = [("two", [two]), ("circle5", [circle5]), ("circle9", [circle9]),
               ("two+two_b", [two, two_b]), ("circle5+two", [circle5, two]),
               ("two+circle5", [two, circle5])]
    return [(f"{tag}-d{depth}-b{branching}", xs, depth, branching)
            for tag, xs in sources for depth in range(4)
            for branching in (1, 2, 3)]
