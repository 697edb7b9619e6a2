"""Coxeter systems: finite-type recognition, nerves, endedness, boundaries.

A system is a finite generator tuple S together with the symmetric matrix of
orders m(s,t) in {1,2,...} with m(s,s)=1 (infinity allowed off-diagonal).
Finiteness of the generated group depends only on the labelled diagram
(vertices S, edges where m >= 3); it is decided against the classification of
finite irreducible systems.

The nerve has a vertex per generator and a simplex per subset generating a
finite special subgroup.  It is built factor by factor: over a direct
product (a disconnected diagram) it is the join of the factors' nerves, over
a free product (infinite orders between the parts) their disjoint union.
An indecomposable set of generators is searched by growing finite-type
generator bitmasks one generator at a time and keeping those that cannot
grow; only finite-type subsets are ever visited.  Endedness of the group and
its boundary expression are read off the matrix and the nerve's splitting
structure, building the nerve at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

from .boundary import (
    Amalgam,
    Atom,
    BoundaryExpr,
    CANTOR,
    EMPTY,
    POINT_PAIR,
    normalize,
)
from .simplicial import SimplicialComplex, component, components

INF = math.inf

_NERVE_GENERATOR_CAP = 16


class CoxeterParseError(ValueError):
    """Malformed Coxeter input; carries the offending location when known."""

    def __init__(self, message, location=None):
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class EndednessClass:
    """Number-of-ends classification of a Coxeter group.

    tag is one of 'finite', 'two_ended', 'one_ended', 'infinitely_many_ends';
    virtually_free reports whether the group is virtually a nonabelian free
    group (meaningful only in the infinitely-many-ends case, False otherwise).
    """

    tag: str
    virtually_free: bool = False


class CoxeterSystem:
    """Generators plus the symmetric order matrix m(s,t)."""

    def __init__(self, generators, matrix):
        generators = tuple(generators)
        if not generators:
            raise CoxeterParseError("at least one generator is required")
        if len(set(generators)) != len(generators):
            raise CoxeterParseError("duplicate generator names")
        self.generators = generators
        self._index = {s: i for i, s in enumerate(generators)}
        n = len(generators)
        m = {}
        for i, s in enumerate(generators):
            for j, t in enumerate(generators):
                try:
                    value = matrix[(s, t)] if isinstance(matrix, dict) else matrix[i][j]
                except (KeyError, IndexError):
                    raise CoxeterParseError("missing matrix entry",
                                            location=f"m[{s},{t}]") from None
                m[(s, t)] = value
        for s in generators:
            if m[(s, s)] != 1:
                raise CoxeterParseError("diagonal entries must be 1",
                                        location=f"m[{s},{s}]")
        for i, s in enumerate(generators):
            for t in generators[i + 1:]:
                a, b = m[(s, t)], m[(t, s)]
                if a != b:
                    raise CoxeterParseError("matrix must be symmetric",
                                            location=f"m[{s},{t}]")
                if a != INF and (not isinstance(a, int) or a < 2):
                    raise CoxeterParseError(
                        "off-diagonal entries must be integers >= 2 or infinity",
                        location=f"m[{s},{t}]")
        self._m = m
        # per generator, the bitmask of its diagram neighbours (m >= 3,
        # infinity included) and of the generators it has a finite order with
        self._diagram = tuple(
            sum(1 << j for j, t in enumerate(generators) if m[(s, t)] >= 3)
            for s in generators)
        self._finite_orders = tuple(
            sum(1 << j for j, t in enumerate(generators) if m[(s, t)] != INF)
            for s in generators)

    def order(self, s, t):
        return self._m[(s, t)]

    def subset_tuple(self, subset):
        subset = frozenset(subset)
        unknown = subset - set(self.generators)
        if unknown:
            raise ValueError(f"unknown generators: {sorted(unknown)}")
        return tuple(s for s in self.generators if s in subset)

    def __repr__(self):
        return f"CoxeterSystem(generators={self.generators!r})"


def parse_coxeter(text: str) -> CoxeterSystem:
    """Parse {"generators": [...], "m": [[...]]} with "inf" for infinite orders."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CoxeterParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CoxeterParseError("document must be a JSON object")
    for key in ("generators", "m"):
        if key not in doc:
            raise CoxeterParseError(f"missing key {key!r}")
    generators = doc["generators"]
    if (not isinstance(generators, list) or not generators
            or not all(isinstance(g, str) for g in generators)):
        raise CoxeterParseError("'generators' must be a nonempty list of strings")
    rows = doc["m"]
    n = len(generators)
    if not isinstance(rows, list) or len(rows) != n:
        raise CoxeterParseError(f"'m' must be a {n}x{n} matrix (row-major)")
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise CoxeterParseError(f"'m' must be a {n}x{n} matrix (row-major)",
                                    location=f"row {i}")
        entries = []
        for j, value in enumerate(row):
            if value == "inf":
                entries.append(INF)
            elif isinstance(value, int) and not isinstance(value, bool):
                entries.append(value)
            else:
                raise CoxeterParseError(
                    f"matrix entries must be integers or \"inf\", got {value!r}",
                    location=f"m[{generators[i]},{generators[j]}]")
        matrix.append(entries)
    return CoxeterSystem(generators, matrix)


# ---------------------------------------------------------------------------
# Finite-type recognition against the classification of finite systems.

def _component_is_finite(c: CoxeterSystem, comp: int) -> bool:
    """Does this connected diagram component (a bitmask) define a finite
    group?"""
    members = [s for i, s in enumerate(c.generators) if comp >> i & 1]
    n = len(members)
    if n == 1:
        return True
    edges = []
    for i, s in enumerate(members):
        for t in members[i + 1:]:
            m = c.order(s, t)
            if m >= 3:
                if m == INF:
                    return False
                edges.append((s, t, m))
    if n == 2:
        return True  # dihedral with finite m
    if len(edges) != n - 1:
        return False  # a connected non-tree diagram is never finite type
    degree = {s: 0 for s in members}
    for s, t, _ in edges:
        degree[s] += 1
        degree[t] += 1
    labels = sorted(m for _, _, m in edges)
    high = [m for m in labels if m >= 4]
    if any(m >= 6 for m in high) or len(high) >= 2:
        return False
    is_path = max(degree.values()) <= 2
    if not high:
        if is_path:
            return True  # type A
        branch = [s for s in members if degree[s] >= 3]
        if len(branch) != 1 or degree[branch[0]] != 3:
            return False
        legs = _leg_lengths(branch[0], edges)
        if legs[:2] == [1, 1]:
            return True  # type D
        return legs in ([1, 2, 2], [1, 2, 3], [1, 2, 4])  # E6, E7, E8
    if not is_path:
        return False
    (s, t, m) = next((e for e in edges if e[2] >= 4))
    terminal = degree[s] == 1 or degree[t] == 1
    if m == 4:
        if terminal:
            return True  # type B
        return n == 4  # type F4 is the only interior-4 path
    # m == 5: H3 and H4 only
    return terminal and n in (3, 4)


def _leg_lengths(branch, edges):
    adj = {}
    for s, t, _ in edges:
        adj.setdefault(s, []).append(t)
        adj.setdefault(t, []).append(s)
    legs = []
    for first in adj[branch]:
        length = 1
        prev, cur = branch, first
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    return sorted(legs)


def is_finite_type(c: CoxeterSystem, subset=None) -> bool:
    """Does the subset generate a finite special subgroup?

    The empty subset gives the trivial group (finite).  Decided per diagram
    component against the catalogue of finite irreducible systems.
    """
    members = c.generators if subset is None else c.subset_tuple(subset)
    mask = 0
    for s in members:
        mask |= 1 << c._index[s]
    return all(_component_is_finite(c, comp)
               for comp in components(c._diagram, mask))


# ---------------------------------------------------------------------------
# Nerve and endedness.

def nerve(c: CoxeterSystem) -> SimplicialComplex:
    """Nerve of the system: vertices are generators, simplices the subsets
    spanning finite special subgroups.

    The maximal faces of a generator set M are found by splitting M before
    any search, and recursing on the parts:

    1. If the diagram restricted to M has components M_1, ..., M_k with
       k >= 2, the maximal faces of M are the unions F_1 + ... + F_k of one
       maximal face F_i of each M_i (the nerve is the join of the parts'
       nerves).  Finite type is decided per diagram component, and every
       diagram component of a subset F of M lies in one M_i, so F is finite
       type exactly when each F & M_i is.  F is then maximal exactly when
       each F & M_i is maximal in M_i: a finite-type G above F meets each
       M_i in a finite-type set above F & M_i, and a finite-type F' of M_i
       above F & M_i gives the finite-type (F - M_i) + F' above F.
    2. Otherwise, if the graph of finite orders (m < infinity) restricted
       to M has components M_1, ..., M_k with k >= 2, the maximal faces of
       M are those of the M_i, listed one part after the other (the nerve
       is the disjoint union of the parts' nerves).  Between two parts
       every order is infinite, and a pair with m = infinity generates the
       infinite dihedral group, so no finite-type set meets two parts.  A
       maximal face of M_i is nonempty (a single generator is finite type),
       so it lies below no face of another part.
    3. Otherwise M is searched Bron–Kerbosch style over generator bitmasks:
       a finite-type set r grows by the candidates p that keep it finite,
       the excluded generators x having been tried on an earlier branch.  A
       generator v joins r exactly when its diagram component in r + v is
       finite (an infinite order is a diagram edge, so this also asks for
       finite orders with r); the other components are untouched.  When
       r + p is itself finite it is the one maximal face below the node,
       kept unless some excluded generator still joins it.

    All searches share one memo of component verdicts, keyed by bitmask.
    Only finite-type subsets are visited, never all 2^n.
    """
    n = len(c.generators)
    if n > _NERVE_GENERATOR_CAP:
        raise ValueError(
            f"nerve computation capped at {_NERVE_GENERATOR_CAP} generators, got {n}")
    memo = {}

    def finite(comp):
        if comp not in memo:
            memo[comp] = _component_is_finite(c, comp)
        return memo[comp]

    def joiners(r, candidates):
        """The candidates v for which finite-type r + v is finite type."""
        out = 0
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            if finite(component(c._diagram, r | low, low)):
                out |= low
        return out

    def grow(r, p, x, maximal):
        top = r | p
        # a generator commuting with all of top joins every finite subset
        # of it: if excluded, nothing below is maximal; if a candidate,
        # every maximal face below contains it
        alone = 0
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            if not c._diagram[low.bit_length() - 1] & top:
                alone |= low
        if alone & x:
            return
        r |= alone
        p &= ~alone
        if all(finite(comp) for comp in components(c._diagram, top)):
            if not joiners(top, x):
                maximal.append(top)
            return
        while p:
            low = p & -p
            p ^= low
            grown = r | low
            grow(grown, joiners(grown, p), joiners(grown, x), maximal)
            x |= low

    def faces(mask):
        """The maximal finite-type subsets of `mask`, as bitmasks."""
        parts = components(c._diagram, mask)
        if len(parts) > 1:
            out = [0]
            for part in parts:
                below = faces(part)
                out = [f | g for f in out for g in below]
            return out
        parts = components(c._finite_orders, mask)
        if len(parts) > 1:
            return [f for part in parts for f in faces(part)]
        maximal = []
        grow(0, mask, 0, maximal)
        return maximal

    return SimplicialComplex(c.generators, [
        [s for i, s in enumerate(c.generators) if m >> i & 1]
        for m in faces((1 << n) - 1)])


def _endedness(c: CoxeterSystem):
    """The endedness class, with the nerve when deciding it needed one
    (None otherwise)."""
    gens = c.generators
    if is_finite_type(c):
        return EndednessClass("finite"), None
    for i, s in enumerate(gens):
        for t in gens[i + 1:]:
            if c.order(s, t) != INF:
                continue
            rest = [u for u in gens if u not in (s, t)]
            if all(c.order(u, v) == 2 for u in (s, t) for v in rest) \
                    and is_finite_type(c, rest):
                return EndednessClass("two_ended"), None
    # not finite type, so the nerve is not one simplex on every generator
    l = nerve(c)
    if l.is_irreducible():
        return EndednessClass("one_ended"), l
    return EndednessClass("infinitely_many_ends",
                          virtually_free=l.is_infinity_large()), l


def classify_endedness(c: CoxeterSystem) -> EndednessClass:
    """Decision tree on the matrix and the nerve.

    finite type -> finite; a commuting split into an infinite dihedral pair
    and a finite-type rest -> two ended; irreducible non-simplex nerve ->
    one ended; otherwise infinitely many ends, virtually free (nonabelian)
    exactly when the nerve is flag with chordal 1-skeleton.
    """
    return _endedness(c)[0]


def subsystem_boundary_atom(c: CoxeterSystem, subset) -> Atom:
    """Atom standing for the boundary of the special subgroup on `subset`;
    the name records the generator subset (in generator order)."""
    members = c.subset_tuple(subset)
    return Atom("bd[" + ",".join(members) + "]")


def boundary_expression(c: CoxeterSystem) -> BoundaryExpr:
    """Normalized boundary expression of the group.

    Finite groups have empty boundary, two-ended groups a point pair,
    one-ended groups a single connected boundary atom.  With infinitely many
    ends the boundary is the dense amalgam of the terminal factors of the
    nerve: simplex factors contribute empty boundaries, the rest contribute
    the boundary atoms of their (one-ended) special subgroups.  The nerve
    built to classify the group is the one decomposed.
    """
    cls, l = _endedness(c)
    if cls.tag == "finite":
        return EMPTY
    if cls.tag == "two_ended":
        return POINT_PAIR
    if cls.tag == "one_ended":
        return Atom("bd[" + ",".join(c.generators) + "]")
    args = []
    for factor in sorted(l.terminal_factors(), key=lambda f: sorted(f)):
        if l.is_face(factor):
            args.append(EMPTY)
        else:
            args.append(subsystem_boundary_atom(c, factor))
    return normalize(Amalgam(tuple(args)))
