"""Finite simplicial complexes, splittings along simplex separators, and the
resulting decomposition into terminal (irreducible) factors.

Complexes are stored by their maximal faces (an antichain of vertex sets).
A splitting presents the complex as a union of two proper full subcomplexes
whose intersection is a single shared simplex or empty; a complex with no
splitting is irreducible.  Splitting recursively and collecting the pieces
that admit no further splitting yields the terminal factors, which are
independent of the order in which splittings are chosen.  The recursion
therefore takes the first splitting at each step and lists no others.

A face or the empty set S splits the complex exactly when removing S
disconnects the 1-skeleton: every face is a clique, so it lies in S plus at
most one component.  To find such an S it suffices to look once per maximal
face F, rather than at every sub-simplex of F: if S lies in F and
separates, some component C of the complement of S misses the clique F - S,
so C is a whole component of the complement of F, and its neighbourhood
N(C), a subset of S and so a face, cuts C from the rest.  Hence the complex
splits exactly when it is disconnected or, for some maximal face F, some
component C of the complement of F has C + N(C) short of every vertex: one
component pass per maximal face (compare clique minimal separator
decomposition, Tarjan 1985, Berry-Pogorelcnik-Simonet 2010).

Internally vertex subsets are bitmasks over the vertex tuple, which keeps the
separator/component searches cheap for the sizes this module is meant for
(tens of vertices at most).  The component search is shared with the
Coxeter diagrams of `coxeter`.
"""

from __future__ import annotations

import functools
import json

from ._json import document, loads, require


def component(rows, mask: int, seed: int) -> int:
    """Bitmask of the component of `mask` containing the bit `seed`, in the
    graph whose vertex i has the neighbour bitmask rows[i]."""
    comp = frontier = seed
    while frontier:
        low = frontier & -frontier
        grown = rows[low.bit_length() - 1] & mask & ~comp
        comp |= grown
        frontier = (frontier ^ low) | grown
    return comp


def components(rows, mask: int):
    """Connected components of the graph `rows` restricted to `mask`, as
    bitmasks, in the order of their lowest bits."""
    comps = []
    while mask:
        comp = component(rows, mask, mask & -mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def dot_id(name) -> str:
    """`name` as a quoted DOT ID, with backslash and double quote escaped."""
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _maximal_masks(masks):
    """The inclusion-maximal members of the distinct `masks`.

    A mask lies only inside masks with more bits, and if inside any then
    inside a maximal one; so each mask is compared only with the maximal
    masks of larger size, and masks of equal size never with each other.
    """
    by_size = {}
    for m in masks:
        by_size.setdefault(bin(m).count("1"), []).append(m)
    kept = []
    for size in sorted(by_size, reverse=True):
        kept += [m for m in by_size[size] if not any(m & o == m for o in kept)]
    return kept


class SimplicialComplex:
    """A nonempty finite simplicial complex given by its maximal faces."""

    def __init__(self, vertices, maximal_faces):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("empty complex: at least one vertex is required")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        index = {v: i for i, v in enumerate(vertices)}
        masks = []
        for face in maximal_faces:
            face = frozenset(face)
            if not face:
                raise ValueError("maximal faces must be nonempty")
            mask = 0
            for v in face:
                if v not in index:
                    raise ValueError(f"face vertex {v!r} is not a declared vertex")
                mask |= 1 << index[v]
            masks.append(mask)
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate maximal faces")
        if len(_maximal_masks(masks)) != len(masks):
            raise ValueError("maximal faces must form an antichain")
        covered = 0
        for m in masks:
            covered |= m
        if covered != (1 << len(vertices)) - 1:
            missing = [v for i, v in enumerate(vertices) if not covered >> i & 1]
            raise ValueError(f"vertices not covered by any maximal face: {missing}")
        self._adopt(vertices, masks)

    @classmethod
    def _from_masks(cls, vertices, masks):
        """The complex whose maximal faces are `masks`, bitmasks over
        `vertices`.  Nothing is checked: the caller guarantees a nonempty
        antichain of nonempty masks covering every vertex."""
        self = cls.__new__(cls)
        self._adopt(tuple(vertices), masks)
        return self

    def _adopt(self, vertices, masks):
        self.vertices = vertices
        self._index = {v: i for i, v in enumerate(vertices)}
        self._masks = tuple(sorted(masks))
        self._adjacency = self._build_adjacency()

    @functools.cached_property
    def maximal_faces(self):
        """The maximal faces as vertex sets, in the order of their masks."""
        return tuple(map(self.vertex_set, self._masks))

    # -- mask helpers ------------------------------------------------------

    def _build_adjacency(self):
        adj = [0] * len(self.vertices)
        for m in self._masks:
            rest = m
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                adj[i] |= m & ~low
                rest ^= low
        return tuple(adj)

    def mask_of(self, vs) -> int:
        mask = 0
        for v in vs:
            mask |= 1 << self._index[v]
        return mask

    def vertex_set(self, mask: int) -> frozenset:
        vs = self.vertices
        out = []
        while mask:
            low = mask & -mask
            out.append(vs[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def _full_mask(self):
        return (1 << len(self.vertices)) - 1

    def is_face_mask(self, mask: int) -> bool:
        return mask != 0 and any(mask & ~m == 0 for m in self._masks)

    def _neighbourhood(self, mask: int) -> int:
        """Vertices adjacent to some vertex of `mask`, outside `mask`."""
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= self._adjacency[low.bit_length() - 1]
            rest ^= low
        return out & ~mask

    # -- public operations -------------------------------------------------

    def is_face(self, vs) -> bool:
        vs = frozenset(vs)
        if not vs:
            return False
        return self.is_face_mask(self.mask_of(vs))

    def is_flag(self) -> bool:
        """Every clique of the 1-skeleton spans a face."""
        adj = self._adjacency
        result = True

        # Bron-Kerbosch with pivoting over the bitmask adjacency.
        def expand(r, p, x):
            nonlocal result
            if not result:
                return
            if p == 0 and x == 0:
                if not self.is_face_mask(r):
                    result = False
                return
            pivot_pool = p | x
            pivot = (pivot_pool & -pivot_pool).bit_length() - 1
            best, best_cnt = pivot, -1
            rest = pivot_pool
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                cnt = bin(p & adj[i]).count("1")
                if cnt > best_cnt:
                    best, best_cnt = i, cnt
                rest ^= low
            candidates = p & ~adj[best]
            while candidates:
                low = candidates & -candidates
                i = low.bit_length() - 1
                expand(r | low, p & adj[i], x & adj[i])
                if not result:
                    return
                p &= ~low
                x |= low
                candidates ^= low

        expand(0, self._full_mask(), 0)
        return result

    def edges(self):
        """Edges of the 1-skeleton as sorted vertex pairs."""
        out = []
        for i in range(len(self.vertices)):
            rest = self._adjacency[i] >> (i + 1) << (i + 1)
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                out.append((self.vertices[i], self.vertices[j]))
                rest ^= low
        return out

    def is_chordal(self) -> bool:
        """No induced cycle of length >= 4 in the 1-skeleton.

        Maximum-cardinality search followed by the standard perfect elimination
        order check.
        """
        n = len(self.vertices)
        adj = self._adjacency
        weight = [0] * n
        order = []
        placed = 0
        for _ in range(n):
            best, best_w = -1, -1
            for i in range(n):
                if not placed >> i & 1 and weight[i] > best_w:
                    best, best_w = i, weight[i]
            order.append(best)
            placed |= 1 << best
            rest = adj[best] & ~placed
            while rest:
                low = rest & -rest
                weight[low.bit_length() - 1] += 1
                rest ^= low
        position = [0] * n
        for pos, v in enumerate(order):
            position[v] = pos
        for pos, v in enumerate(order):
            earlier = 0
            rest = adj[v]
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if position[u] < pos:
                    earlier |= low
                rest ^= low
            if earlier:
                # latest earlier neighbour must dominate the others
                latest, latest_pos = -1, -1
                rest = earlier
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    if position[u] > latest_pos:
                        latest, latest_pos = u, position[u]
                    rest ^= low
                others = earlier & ~(1 << latest)
                if others & ~adj[latest]:
                    return False
        return True

    # -- splittings ---------------------------------------------------------

    def _first_splitting(self, within: int):
        """The first splitting of the full subcomplex on `within`, as masks
        (p1, p2, sep) with p1 < p2, or None when it is irreducible.

        Each candidate F is tried once: the empty set, then each distinct
        m & within over the maximal faces m, in mask order.  The first
        component C of within - F whose neighbourhood S = N(C) leaves some
        vertex outside C + S splits off as (S + C, within - C, S).  S lies
        in F, as C is a component of within - F, so S is empty or a face,
        and it cuts C from the rest.

        This misses no splitting.  Say a face S' in a face F separates.
        F - S' is a clique, so it lies in one component of within - S', and
        any other component C misses F.  C is connected and its neighbours
        lie in S', inside F, so C is a component of within - F; N(C) lies
        in S', and the other components of within - S' lie outside C + N(C).
        So C is found at F, without trying the sub-simplices of F.
        """
        seen = set()
        for m in (0,) + self._masks:
            face = m & within
            if face in seen:
                continue
            seen.add(face)
            for comp in components(self._adjacency, within & ~face):
                sep = self._neighbourhood(comp) & within
                if comp | sep != within:
                    p1, p2 = sep | comp, within & ~comp
                    return (p1, p2, sep) if p1 < p2 else (p2, p1, sep)
        return None

    def is_irreducible(self) -> bool:
        return self._first_splitting(self._full_mask()) is None

    def terminal_factors(self):
        """Vertex sets of the terminal factors of the splitting recursion.

        Each step takes the first splitting, found without listing the
        others.  The result does not depend on this choice.  Raw recursion
        leaves are not order-independent: a branch may later split inside a
        simplex that an earlier separator duplicated into both parts,
        leaving a factor nested inside another.  Every inclusion-maximal
        irreducible full subcomplex still occurs as a leaf under any order
        (an irreducible subcomplex lies entirely in one part of any
        splitting), and every leaf is irreducible hence contained in such a
        maximal one, so the inclusion-maximal leaves are exactly the
        maximal irreducibles.
        """
        memo = {}

        def recurse(mask):
            if mask in memo:
                return memo[mask]
            split = self._first_splitting(mask)
            if split is None:
                result = frozenset({mask})
            else:
                p1, p2, _sep = split
                result = recurse(p1) | recurse(p2)
            memo[mask] = result
            return result

        return {self.vertex_set(m)
                for m in _maximal_masks(recurse(self._full_mask()))}

    def is_infinity_large(self) -> bool:
        """Flag and chordal: every terminal factor of every full subcomplex is
        a simplex exactly under these two 1-skeleton conditions."""
        return self.is_flag() and self.is_chordal()

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "vertices": list(self.vertices),
            "maximal_faces": [sorted(f) for f in self.maximal_faces],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimplicialComplex":
        doc = document(loads(text, ValueError), ValueError,
                       ("vertices", "maximal_faces"))
        vertices = require(doc["vertices"], "strings", ValueError,
                           "'vertices' must be a list of strings")
        shape = "'maximal_faces' must be a list of lists of strings"
        faces = require(doc["maximal_faces"], "list", ValueError, shape)
        return cls(vertices, [frozenset(require(f, "strings", ValueError,
                                                shape)) for f in faces])

    def to_dot(self) -> str:
        """DOT rendering of the 1-skeleton."""
        lines = ["graph skeleton {"]
        for v in self.vertices:
            lines.append(f"  {dot_id(v)};")
        for u, v in self.edges():
            lines.append(f"  {dot_id(u)} -- {dot_id(v)};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        faces = ", ".join("{" + ",".join(sorted(f)) + "}" for f in self.maximal_faces)
        return f"SimplicialComplex({faces})"

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (set(self.vertices) == set(other.vertices)
                and set(self.maximal_faces) == set(other.maximal_faces))

    def __hash__(self):
        return hash((frozenset(self.vertices), frozenset(self.maximal_faces)))
