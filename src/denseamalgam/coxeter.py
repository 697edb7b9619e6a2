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
An indecomposable set of generators is searched over finite-type generator
bitmasks, branching on the generators of an infinite-type subset that a
face must miss, within a budget of search work.  Endedness of the group and
its boundary expression are read off the matrix and the nerve's splitting
structure, building the nerve at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from ._json import document, loads, require
from .boundary import (
    Amalgam,
    Atom,
    BoundaryExpr,
    CANTOR,
    EMPTY,
    POINT_PAIR,
    normalize,
)
from .simplicial import SimplicialComplex, components

INF = math.inf

_NERVE_BUDGET = 200_000


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
    """Generators plus the symmetric order matrix m(s,t): the integer 1 on
    the diagonal, and integers >= 2 or infinity, equal in value and type
    to their mirror images, off it."""

    def __init__(self, generators, matrix):
        generators = tuple(generators)
        if not generators:
            raise CoxeterParseError("at least one generator is required")
        if len(set(generators)) != len(generators):
            raise CoxeterParseError("duplicate generator names")
        self.generators = generators
        self._index = {s: i for i, s in enumerate(generators)}
        rows = []
        for i, s in enumerate(generators):
            row = []
            for j, t in enumerate(generators):
                try:
                    row.append(matrix[(s, t)] if isinstance(matrix, dict)
                               else matrix[i][j])
                except (KeyError, IndexError):
                    raise CoxeterParseError("missing matrix entry",
                                            location=f"m[{s},{t}]") from None
            rows.append(row)
        for i, s in enumerate(generators):
            if type(rows[i][i]) is not int or rows[i][i] != 1:
                raise CoxeterParseError("diagonal entries must be 1",
                                        location=f"m[{s},{s}]")
        for i, s in enumerate(generators):
            for j, t in enumerate(generators[i + 1:], i + 1):
                a, b = rows[i][j], rows[j][i]
                if a != b or type(a) is not type(b):
                    raise CoxeterParseError("matrix must be symmetric",
                                            location=f"m[{s},{t}]")
                if a != INF and (not isinstance(a, int) or a < 2):
                    raise CoxeterParseError(
                        "off-diagonal entries must be integers >= 2 or infinity",
                        location=f"m[{s},{t}]")
        # the orders by generator index; per generator, the bitmask of its
        # diagram neighbours (m >= 3, infinity included) and of the
        # generators it has a finite order with
        self._orders = tuple(map(tuple, rows))
        self._diagram = tuple(
            sum(1 << j for j, m in enumerate(row) if m >= 3) for row in rows)
        self._finite_orders = tuple(
            sum(1 << j for j, m in enumerate(row) if m != INF) for row in rows)

    def order(self, s, t):
        return self._orders[self._index[s]][self._index[t]]

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
    error = CoxeterParseError
    doc = document(loads(text, error), error, ("generators", "m"))
    generators = require(doc["generators"], "strings", error,
                         "'generators' must be a list of strings")
    n = len(generators)
    shape = f"'m' must be a {n}x{n} matrix (row-major)"
    if len(require(doc["m"], "list", error, shape)) != n:
        raise error(shape)
    for i, row in enumerate(doc["m"]):
        if len(require(row, "list", error, shape, f"row {i}")) != n:
            raise error(shape, f"row {i}")
    return CoxeterSystem(generators, [[INF if value == "inf" else value
                                       for value in row] for row in doc["m"]])


# ---------------------------------------------------------------------------
# Finite-type recognition against the classification of finite systems.

def _component_is_finite(c: CoxeterSystem, comp: int) -> bool:
    """Does this connected diagram component (a bitmask) define a finite
    group?  Degrees and edges come from the diagram rows, orders from the
    index table."""
    diagram = c._diagram
    n = comp.bit_count()
    room = 2 * n - 2  # twice the edges of a tree on the n generators
    branch = None
    high = None
    rest = comp
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        row = diagram[i] & comp
        d = row.bit_count()
        room -= d
        if d > 3 or room < 0:
            return False  # finite diagrams are trees of degree at most 3
        if d == 3:
            if branch is not None:
                return False
            branch = i
        row &= -2 << i  # each edge once, from its lower end
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            m = c._orders[i][j]
            if m >= 4:
                if m == INF or n > 2 and (m >= 6 or high is not None):
                    return False
                high = (i, j, m)
    if room:
        return False  # a connected non-tree diagram is never finite type
    if n <= 2:
        return True  # a single generator, or dihedral with finite m
    if high is None:
        if branch is None:
            return True  # type A
        legs = _leg_lengths(c, comp, branch)
        if legs[:2] == [1, 1]:
            return True  # type D
        return legs in ([1, 2, 2], [1, 2, 3], [1, 2, 4])  # E6, E7, E8
    if branch is not None:
        return False
    i, j, m = high
    terminal = (diagram[i] & comp).bit_count() == 1 \
        or (diagram[j] & comp).bit_count() == 1
    if m == 4:
        return terminal or n == 4  # type B; F4 is the only interior-4 path
    # m == 5: H3 and H4 only
    return terminal and n in (3, 4)


def _leg_lengths(c, comp, branch):
    """The sorted lengths of the paths leaving the branch generator."""
    legs = []
    rest = c._diagram[branch] & comp
    while rest:
        cur = rest & -rest
        rest ^= cur
        prev, length = 1 << branch, 1
        while True:
            nxt = c._diagram[cur.bit_length() - 1] & comp & ~prev
            if not nxt:
                break
            prev, cur = cur, nxt
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
    3. Otherwise M is searched over generator bitmasks.  A search node
       holds a finite-type set r, the candidates p that each keep r finite,
       and the excluded generators x; it collects the maximal faces F with
       r <= F <= r + p that miss x.  A generator v joins r exactly when its
       diagram component in r + v is finite (an infinite order is a
       diagram edge, so this also asks for finite orders with r).  The
       diagram components of r with two or more generators are carried
       down the search, so that component is v, the generators of r its
       diagram row meets, and the carried components those lie in: no
       search per candidate.  At a node:
       - a finite diagram component of r + p lies in every maximal face
         below, so it joins r;
       - if r + p is then finite, it is the one face below, kept unless an
         excluded generator joins it;
       - an excluded u whose component in r + p + u is finite joins every
         face below, so none of them is maximal;
       - otherwise the smallest infinite component of r + p is thinned to
         an infinite m.  Finite type is hereditary, so every face below
         misses some candidate of m.  The node branches on the first
         candidate v_i of m that a face misses: that branch has v_1, ...,
         v_(i-1) joined to r and v_i excluded.  The branches are disjoint,
         so no face is found twice, and once a prefix is infinite no later
         branch holds a face.

    All searches share one memo of component verdicts, keyed by bitmask.
    Only finite-type subsets are visited, never all 2^n.  The work is
    bounded by `_NERVE_BUDGET`, shared by all parts: one unit per search
    node and per face a join forms.  A system that needs more is refused
    with ValueError, never answered with part of its nerve.
    """
    n = len(c.generators)
    diagram = c._diagram
    memo = {}
    budget = _NERVE_BUDGET

    def spend(units):
        nonlocal budget
        budget -= units
        if budget < 0:
            raise ValueError(
                f"nerve search budget of {_NERVE_BUDGET} nodes and faces "
                f"exhausted on {n} generators")

    def finite(comp):
        verdict = memo.get(comp)
        if verdict is None:
            verdict = memo[comp] = _component_is_finite(c, comp)
        return verdict

    def joiners(r, carried, candidates):
        """The candidates v for which finite-type r + v is finite type.
        `carried` lists the diagram components of r with two or more
        generators: the component of v in r + v is v, the generators of r
        its diagram row meets, and the carried components those lie in."""
        out = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            row = diagram[low.bit_length() - 1]
            if row & r:
                comp = low | row & r
                for part in carried:
                    if part & row:
                        comp |= part
                if not finite(comp):
                    continue
            out |= low
        return out

    def grow(r, carried, p, x, maximal):
        """Collect the maximal faces F with r <= F <= r + p that miss x."""
        spend(1)
        # a finite diagram component of r + p lies in every maximal face
        # below: adding it to such a face F leaves the other components of
        # F as they are and makes it one component of F
        infinite, given = [], r
        parts = components(diagram, r | p)
        for part in parts:
            if not finite(part):
                infinite.append(part)
            elif part & p:
                r |= part
                p &= ~part
                carried = [q for q in carried if not q & part]
                if part & part - 1:
                    carried.append(part)
        if not infinite:
            if not joiners(r, carried, x):
                maximal.append(r)
            return
        if r != given:
            x = joiners(r, carried, x)
        # an excluded generator whose component in r + p + u is finite
        # joins every face below: none of them is maximal
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            row = diagram[low.bit_length() - 1]
            comp = low
            for part in parts:
                if part & row:
                    comp |= part
            if finite(comp):
                return
        # thin the smallest infinite part to an infinite m, dropping
        # candidates while some diagram component of the rest stays infinite
        m = min(infinite, key=int.bit_count)
        rest = m & p
        while rest:
            low = rest & -rest
            rest ^= low
            for part in components(diagram, m & ~low):
                if not finite(part):
                    m = part
                    rest &= part
                    break
        # each face below misses a first candidate v of m: branch on it,
        # with the candidates before v joined to r and v excluded
        branch = m & p
        while branch:
            low = branch & -branch
            branch ^= low
            p &= ~low
            grow(r, carried, p, x | low, maximal)
            row = diagram[low.bit_length() - 1]
            comp = low | row & r
            kept = []
            for part in carried:
                if part & row:
                    comp |= part
                else:
                    kept.append(part)
            if not finite(comp):
                return
            if comp != low:
                kept.append(comp)
            r |= low
            carried = kept
            p = joiners(r, carried, p)
            x = joiners(r, carried, x)

    def faces(mask):
        """The maximal finite-type subsets of `mask`, as bitmasks."""
        parts = components(diagram, mask)
        if len(parts) > 1:
            out = [0]
            for part in parts:
                below = faces(part)
                spend(len(out) * len(below))
                out = [f | g for f in out for g in below]
            return out
        parts = components(c._finite_orders, mask)
        if len(parts) > 1:
            return [f for part in parts for f in faces(part)]
        maximal = []
        grow(0, [], mask, 0, maximal)
        return maximal

    return SimplicialComplex._from_masks(c.generators, faces((1 << n) - 1))


def _endedness(c: CoxeterSystem):
    """The endedness tag, with the nerve when deciding it needed one (None
    otherwise).

    The group is two-ended exactly when some pair i, j with m = infinity
    commutes with every other generator and the rest is finite type.  On
    the masks: the diagram rows of i and j meet none of the rest, and
    every diagram component of the rest is finite.
    """
    if is_finite_type(c):
        return "finite", None
    full = (1 << len(c.generators)) - 1
    for i, row in enumerate(c._diagram):
        infinite = full & ~c._finite_orders[i] & -2 << i
        while infinite:
            low = infinite & -infinite
            infinite ^= low
            rest = full & ~(1 << i | low)
            if not (row | c._diagram[low.bit_length() - 1]) & rest and all(
                    _component_is_finite(c, part)
                    for part in components(c._diagram, rest)):
                return "two_ended", None
    # not finite type, so the nerve is not one simplex on every generator
    l = nerve(c)
    return ("one_ended" if l.is_irreducible() else "infinitely_many_ends"), l


def classify_endedness(c: CoxeterSystem) -> EndednessClass:
    """Decision tree on the matrix and the nerve.

    finite type -> finite; a commuting split into an infinite dihedral pair
    and a finite-type rest -> two ended; irreducible non-simplex nerve ->
    one ended; otherwise infinitely many ends, virtually free (nonabelian)
    exactly when the nerve is flag with chordal 1-skeleton.
    """
    tag, l = _endedness(c)
    return EndednessClass(tag, virtually_free=(
        tag == "infinitely_many_ends" and l.is_infinity_large()))


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
    tag, l = _endedness(c)
    if tag == "finite":
        return EMPTY
    if tag == "two_ended":
        return POINT_PAIR
    if tag == "one_ended":
        return subsystem_boundary_atom(c, c.generators)
    args = []
    for factor in sorted(l.terminal_factors(), key=lambda f: sorted(f)):
        if l.is_face(factor):
            args.append(EMPTY)
        else:
            args.append(subsystem_boundary_atom(c, factor))
    return normalize(Amalgam(tuple(args)))
