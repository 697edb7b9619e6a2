"""Finite simplicial complexes, splittings along simplex separators, and the
resulting decomposition into terminal (irreducible) factors.

Complexes are stored by their maximal faces (an antichain of vertex sets).
A splitting presents the complex as a union of two proper full subcomplexes
whose intersection is a single shared simplex or empty; a complex with no
splitting is irreducible.  Splitting recursively and collecting the pieces
that admit no further splitting yields the terminal factors, which are
independent of the order in which splittings are chosen.

Internally vertex subsets are bitmasks over the vertex tuple, which keeps the
exhaustive separator/component searches cheap for the sizes this module is
meant for (tens of vertices at most).
"""

from __future__ import annotations

from dataclasses import dataclass
import json

# beyond this many components around one separator, only one-vs-rest splits
# are produced; enough for picking a splitting, too few to list them all
_FULL_BIPARTITION_COMPONENT_LIMIT = 12


@dataclass(frozen=True)
class Splitting:
    """Two proper full subcomplexes covering the complex.

    part1/part2 are the vertex sets of the parts; separator is their
    intersection (empty or a simplex).  part1 is the lexicographically
    smaller part.
    """

    part1: frozenset
    part2: frozenset
    separator: frozenset


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
        for m in masks:
            for other in masks:
                if m != other and m & other == m:
                    raise ValueError("maximal faces must form an antichain")
        covered = 0
        for m in masks:
            covered |= m
        if covered != (1 << len(vertices)) - 1:
            missing = [v for i, v in enumerate(vertices) if not covered >> i & 1]
            raise ValueError(f"vertices not covered by any maximal face: {missing}")
        self.vertices = vertices
        self._index = index
        self._masks = tuple(sorted(masks))
        self.maximal_faces = tuple(
            frozenset(vertices[i] for i in range(len(vertices)) if m >> i & 1)
            for m in self._masks
        )
        self._adjacency = self._build_adjacency()

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
        return frozenset(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    def _full_mask(self):
        return (1 << len(self.vertices)) - 1

    def is_face_mask(self, mask: int) -> bool:
        return mask != 0 and any(mask & ~m == 0 for m in self._masks)

    def simplex_masks(self):
        """All nonempty faces, as masks (deduplicated across maximal faces)."""
        seen = set()
        for m in self._masks:
            sub = m
            while True:
                if sub and sub not in seen:
                    seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & m
        return seen

    def _component_masks(self, within: int):
        """Connected components of the full subcomplex on the mask `within`."""
        comps = []
        remaining = within
        while remaining:
            seed = remaining & -remaining
            comp = seed
            frontier = seed
            while frontier:
                grown = comp
                rest = frontier
                while rest:
                    low = rest & -rest
                    grown |= self._adjacency[low.bit_length() - 1] & within
                    rest ^= low
                frontier = grown & ~comp
                comp = grown
            comps.append(comp)
            remaining &= ~comp
        return comps

    def _full_subcomplex_masks(self, within: int):
        """Maximal faces (as masks) of the full subcomplex on `within`."""
        cut = {m & within for m in self._masks if m & within}
        return [m for m in cut if not any(m != o and m & o == m for o in cut)]

    # -- public operations -------------------------------------------------

    def is_face(self, vs) -> bool:
        vs = frozenset(vs)
        if not vs:
            return False
        return self.is_face_mask(self.mask_of(vs))

    def simplices(self):
        """All nonempty faces as frozensets."""
        return {self.vertex_set(m) for m in self.simplex_masks()}

    def full_subcomplex(self, vs) -> "SimplicialComplex":
        vs = frozenset(vs)
        if not vs:
            raise ValueError("full subcomplex of the empty vertex set is not a complex")
        unknown = vs - set(self.vertices)
        if unknown:
            raise ValueError(f"unknown vertices: {sorted(unknown)}")
        within = self.mask_of(vs)
        faces = [self.vertex_set(m) for m in self._full_subcomplex_masks(within)]
        sub_vertices = tuple(v for v in self.vertices if v in vs)
        return SimplicialComplex(sub_vertices, faces)

    def is_flag(self) -> bool:
        """Every clique of the 1-skeleton spans a face."""
        n = len(self.vertices)
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
        n = len(self.vertices)
        for i in range(n):
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

    def _splitting_masks(self, within=None, first_only=False, complete=False):
        """Splittings of the full subcomplex on `within` as (p1, p2, sep) masks.

        first_only stops at the first one, which is the first of the full
        list.  Above the component limit only one-vs-rest splits are made;
        with complete set, such a separator is refused instead.
        """
        if within is None:
            within = self._full_mask()
        sub_simplices = set()
        for m in self._full_subcomplex_masks(within):
            sub = m
            while True:
                if sub:
                    sub_simplices.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & m
        out = []
        seen = set()
        for sep in [0] + sorted(sub_simplices):
            rest = within & ~sep
            if rest == 0:
                continue
            comps = self._component_masks(rest)
            k = len(comps)
            if k < 2:
                continue
            if k <= _FULL_BIPARTITION_COMPONENT_LIMIT:
                for bits in range(2 ** (k - 1) - 1):
                    g1 = comps[0]
                    for i in range(k - 1):
                        if bits >> i & 1:
                            g1 |= comps[i + 1]
                    # bits enumerates proper subsets of comps[1:]; comps[0]
                    # always sits in g1, so the unordered pair is hit once.
                    g2 = rest & ~g1
                    p1, p2 = sep | g1, sep | g2
                    key = (p1, p2) if p1 < p2 else (p2, p1)
                    if key not in seen:
                        seen.add(key)
                        out.append((key[0], key[1], sep))
                        if first_only:
                            return out
            else:
                if complete:
                    raise ValueError(
                        f"a separator leaves {k} components; listing every "
                        f"splitting is capped at "
                        f"{_FULL_BIPARTITION_COMPONENT_LIMIT} components")
                for comp in comps:
                    p1, p2 = sep | comp, sep | (rest & ~comp)
                    key = (p1, p2) if p1 < p2 else (p2, p1)
                    if key not in seen:
                        seen.add(key)
                        out.append((key[0], key[1], sep))
                        if first_only:
                            return out
        return out

    def enumerate_splittings(self):
        """All splittings, deduplicated, in a deterministic order.

        Refuses (ValueError) a complex where some simplex separator leaves
        more than 12 components, rather than list only some splittings.
        """
        raw = self._splitting_masks(complete=True)
        splittings = []
        for p1, p2, sep in raw:
            a, b = self.vertex_set(p1), self.vertex_set(p2)
            if sorted(b) < sorted(a):
                a, b = b, a
            splittings.append(Splitting(a, b, self.vertex_set(sep)))
        splittings.sort(key=lambda s: (sorted(s.separator), sorted(s.part1), sorted(s.part2)))
        return splittings

    def is_irreducible(self) -> bool:
        return not self._splitting_masks(first_only=True)

    def terminal_factors(self, rng=None):
        """Vertex sets of the terminal factors of the splitting recursion.

        Without rng each step takes the first splitting, found without
        listing the others; with rng given, the splitting used at each step
        is chosen at random from all of them.  The result does not depend
        on this choice.  Raw recursion leaves are not order-independent: a
        branch may later split inside a simplex that an earlier separator
        duplicated into both parts, leaving a factor nested inside another.  Every inclusion-maximal irreducible full
        subcomplex still occurs as a leaf under any order (an irreducible
        subcomplex lies entirely in one part of any splitting), and every
        leaf is irreducible hence contained in such a maximal one, so the
        inclusion-maximal leaves are exactly the maximal irreducibles.
        """
        memo = {}

        def recurse(mask):
            if mask in memo:
                return memo[mask]
            splits = self._splitting_masks(within=mask, first_only=rng is None)
            if not splits:
                result = frozenset({mask})
            else:
                choice = splits[rng.randrange(len(splits))] if rng is not None else splits[0]
                p1, p2, _sep = choice
                result = recurse(p1) | recurse(p2)
            memo[mask] = result
            return result

        leaves = recurse(self._full_mask())
        return {
            self.vertex_set(m)
            for m in leaves
            if not any(m != o and m & o == m for o in leaves)
        }

    def maximally_full_irreducible(self, bound=12):
        """Inclusion-maximal vertex sets spanning irreducible full subcomplexes.

        Brute force over all vertex subsets; refuses vertex counts above
        `bound`.  Serves as the order-free characterization of the terminal
        factors.
        """
        n = len(self.vertices)
        if n > bound:
            raise ValueError(f"brute-force search over {n} vertices exceeds bound {bound}")
        irreducible = []
        for mask in range(1, 1 << n):
            if not self._splitting_masks(within=mask, first_only=True):
                irreducible.append(mask)
        maximal = [
            m for m in irreducible
            if not any(m != o and m & o == m for o in irreducible)
        ]
        return {self.vertex_set(m) for m in maximal}

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
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("complex document must be a JSON object")
        for key in ("vertices", "maximal_faces"):
            if key not in doc:
                raise ValueError(f"complex document missing key {key!r}")
        vertices = doc["vertices"]
        faces = doc["maximal_faces"]
        if (not isinstance(vertices, list)
                or not all(isinstance(v, str) for v in vertices)):
            raise ValueError("'vertices' must be a list of strings")
        if (not isinstance(faces, list)
                or not all(isinstance(f, list) for f in faces)):
            raise ValueError("'maximal_faces' must be a list of lists")
        return cls(vertices, [frozenset(f) for f in faces])

    def to_dot(self) -> str:
        """DOT rendering of the 1-skeleton."""
        lines = ["graph skeleton {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for u, v in self.edges():
            lines.append(f'  "{u}" -- "{v}";')
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
