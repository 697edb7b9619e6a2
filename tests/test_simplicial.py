"""Splittings, terminal decompositions and chordality of finite complexes.

The independent oracle here enumerates splittings straight from the
definition: unordered pairs of proper nonempty vertex subsets whose full
subcomplexes cover every maximal face and intersect in the empty set or in a
single simplex.  The library's first splitting, irreducibility test and
terminal factors must agree with it; where the definition is too slow (2^n
vertex subsets), an exhaustive scan over every simplex separator stands in.
"""

import itertools
import json
import random
import re

import pytest

from denseamalgam.simplicial import SimplicialComplex, components
from denseamalgam.coxeter import nerve
from conftest import (block_product, clique_complex, product_system,
                      random_complex, random_graph_complex)


def path_abc():
    return SimplicialComplex("abc", [{"a", "b"}, {"b", "c"}])


def four_cycle():
    return SimplicialComplex("abcd", [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}])


def empty_triangle():
    return SimplicialComplex("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])


def full_subcomplex(c, vs):
    """The full subcomplex of c on the vertex set vs: the faces of c inside
    vs, kept by their maximal members."""
    vs = frozenset(vs)
    cut = {f & vs for f in c.maximal_faces if f & vs}
    return SimplicialComplex([v for v in c.vertices if v in vs],
                             [f for f in cut if not any(f < g for g in cut)])


def _splittings_by_definition(c):
    """Each splitting of c, straight from the covering-pair definition, as
    an unordered pair of vertex sets (repeats possible)."""
    verts = frozenset(c.vertices)
    faces = set()
    for f in c.maximal_faces:
        members = sorted(f)
        for r in range(1, len(members) + 1):
            for sub in itertools.combinations(members, r):
                faces.add(frozenset(sub))
    ordered = sorted(verts)
    for r in range(1, len(ordered)):
        for chosen in itertools.combinations(ordered, r):
            v1 = frozenset(chosen)
            rest = verts - v1
            for sep in [frozenset()] + [f for f in faces if f <= v1]:
                v2 = rest | sep
                if v2 == verts:
                    continue
                if all(f <= v1 or f <= v2 for f in c.maximal_faces):
                    yield frozenset((v1, v2))


def splittings_by_definition(c):
    """Enumerate splittings directly from the covering-pair definition."""
    return set(_splittings_by_definition(c))


def has_splitting_by_definition(c):
    return next(_splittings_by_definition(c), None) is not None


def maximal_irreducibles(c):
    """Inclusion-maximal vertex sets whose full subcomplex has no splitting
    by definition: brute force over every vertex subset, the order-free
    characterization of the terminal factors."""
    verts = sorted(c.vertices)
    irreducible = [
        frozenset(vs)
        for r in range(1, len(verts) + 1)
        for vs in itertools.combinations(verts, r)
        if not has_splitting_by_definition(full_subcomplex(c, vs))]
    return {f for f in irreducible if not any(f < g for g in irreducible)}


def random_order_factors(c, rng):
    """Terminal factors by the splitting recursion, each step drawing its
    splitting at random from the by-definition splittings of the full
    subcomplex.  The factors do not depend on the draws, so
    terminal_factors must equal this for any rng."""
    leaves = set()

    def recurse(vs):
        splits = sorted(splittings_by_definition(full_subcomplex(c, vs)),
                        key=lambda pair: sorted(sorted(p) for p in pair))
        if not splits:
            leaves.add(vs)
            return
        for part in splits[rng.randrange(len(splits))]:
            recurse(part)

    recurse(frozenset(c.vertices))
    return {f for f in leaves if not any(f < g for g in leaves)}


def separations(c, within):
    """(sep, comps) for each simplex separator of the full subcomplex on the
    mask `within` that leaves two or more components: the empty separator
    first, then every sub-simplex of its faces in mask order."""
    faces = set()
    for m in c._masks:
        sub = m & within
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m & within
    for sep in [0] + sorted(faces):
        comps = components(c._adjacency, within & ~sep)
        if len(comps) >= 2:
            yield sep, comps


def petals(k):
    """k squares h-x-y-z sharing the vertex h: the separator {h} leaves
    k components."""
    vertices = ["h"]
    faces = []
    for i in range(k):
        x, y, z = f"x{i}", f"y{i}", f"z{i}"
        vertices += [x, y, z]
        faces += [{"h", x}, {x, y}, {y, z}, {z, "h"}]
    return SimplicialComplex(vertices, faces)


def check_first_splitting(c, within):
    """_first_splitting(within) finds a splitting exactly when the exhaustive
    separator scan finds a separator, and what it returns is one."""
    first = c._first_splitting(within)
    exhaustive = next(separations(c, within), None)
    assert (first is None) == (exhaustive is None), (c, within)
    if first is None:
        return
    p1, p2, sep = first
    assert p1 < p2
    assert p1 | p2 == within and p1 & p2 == sep
    assert sep == 0 or c.is_face_mask(sep)
    assert p1 & ~sep and p2 & ~sep
    assert not any(m & p1 & ~sep and m & p2 & ~sep for m in c._masks)


def visited_masks(c):
    """The masks terminal_factors asks _first_splitting about, and the
    factors it returns."""
    visited = []
    first = c._first_splitting
    c._first_splitting = lambda mask: visited.append(mask) or first(mask)
    try:
        factors = c.terminal_factors()
    finally:
        del c._first_splitting
    return visited, factors


class TestConstruction:
    def test_rejects_empty_complex(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            SimplicialComplex([], [])

    def test_rejects_unknown_face_vertex(self):
        with pytest.raises(ValueError, match="not a declared vertex"):
            SimplicialComplex("ab", [{"a", "z"}])

    def test_rejects_nested_maximal_faces(self):
        with pytest.raises(ValueError, match="antichain"):
            SimplicialComplex("ab", [{"a"}, {"a", "b"}])

    @pytest.mark.parametrize("faces", [
        [{"a", "b"}, {"a"}],
        [{"a"}, {"a", "b"}, {"c"}],
        [{"c"}, {"a", "b", "c"}, {"b", "c"}],
        [{"a", "b", "c"}, {"d"}, {"a", "b"}, {"a"}],
    ], ids=["larger-first", "smaller-first", "three-levels", "chain-and-more"])
    def test_rejects_nested_faces_in_any_order(self, faces):
        verts = sorted(set().union(*faces))
        with pytest.raises(ValueError, match="antichain"):
            SimplicialComplex(verts, faces)

    @pytest.mark.parametrize("faces", [
        [{"a", "b"}, {"b", "c"}, {"a", "c"}],
        [{"a", "b", "c"}, {"b", "c", "d"}, {"a", "d"}, {"e"}],
        [{f"x{i}", f"y{j}"} for i in range(4) for j in range(4)],
    ], ids=["equal-size", "mixed-sizes", "sixteen-edges"])
    def test_accepts_antichains(self, faces):
        verts = sorted(set().union(*faces))
        c = SimplicialComplex(verts, faces)
        assert set(c.maximal_faces) == {frozenset(f) for f in faces}

    def test_rejects_uncovered_vertex(self):
        with pytest.raises(ValueError, match="not covered"):
            SimplicialComplex("abc", [{"a", "b"}])

    def test_rejects_empty_face(self):
        with pytest.raises(ValueError, match="nonempty"):
            SimplicialComplex("ab", [set(), {"a", "b"}])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError, match="duplicate vertex"):
            SimplicialComplex(["a", "a"], [{"a"}])

    def test_equality_ignores_face_order(self):
        c1 = SimplicialComplex("abc", [{"a", "b"}, {"b", "c"}])
        c2 = SimplicialComplex("cba", [{"c", "b"}, {"b", "a"}])
        assert c1 == c2
        assert hash(c1) == hash(c2)


class TestFaces:
    def test_is_face(self):
        c = path_abc()
        assert c.is_face({"a"})
        assert c.is_face({"a", "b"})
        assert not c.is_face({"a", "c"})
        assert not c.is_face({"a", "b", "c"})

    def test_simplices_of_triangle(self):
        c = SimplicialComplex("abc", [{"a", "b", "c"}])
        subsets = [s for r in range(4) for s in itertools.combinations("abc", r)]
        # 3 vertices + 3 edges + 1 triangle; the empty set is no face
        assert sum(c.is_face(s) for s in subsets) == 7

    # full_subcomplex is the test helper the by-definition oracles build on

    def test_full_subcomplex_edge(self):
        sub = full_subcomplex(four_cycle(), {"a", "b"})
        assert sub == SimplicialComplex("ab", [{"a", "b"}])

    def test_full_subcomplex_diagonal(self):
        sub = full_subcomplex(four_cycle(), {"a", "c"})
        assert sub == SimplicialComplex("ac", [{"a"}, {"c"}])

    def test_full_subcomplex_identity(self):
        c = SimplicialComplex("abc", [{"a", "b", "c"}])
        assert full_subcomplex(c, {"a", "b", "c"}) == c

    def test_full_subcomplex_rejects_empty(self):
        with pytest.raises(ValueError):
            full_subcomplex(path_abc(), set())


class TestFlagChordal:
    def test_simplex_is_flag(self):
        assert SimplicialComplex("abc", [{"a", "b", "c"}]).is_flag()

    def test_empty_triangle_not_flag(self):
        assert not empty_triangle().is_flag()

    def test_four_cycle_is_flag_but_not_chordal(self):
        c = four_cycle()
        assert c.is_flag()
        assert not c.is_chordal()

    def test_path_is_chordal(self):
        assert path_abc().is_chordal()

    def test_five_cycle_not_chordal(self):
        c = SimplicialComplex(
            "abcde",
            [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}, {"a", "e"}],
        )
        assert not c.is_chordal()

    def test_chordal_matches_bruteforce_induced_cycles(self, rng):
        # brute force: chordal iff no induced cycle of length >= 4
        for _ in range(60):
            c = random_graph_complex(rng, rng.randint(2, 7))
            edges = {frozenset(e) for e in c.edges()}
            verts = sorted(c.vertices)
            has_hole = False
            for k in range(4, len(verts) + 1):
                for subset in itertools.combinations(verts, k):
                    sub = [frozenset(e) for e in itertools.combinations(subset, 2)
                           if frozenset(e) in edges]
                    if len(sub) != k:
                        continue
                    if all(sum(1 for e in sub if v in e) == 2 for v in subset):
                        # connected 2-regular graph on k vertices = k-cycle
                        comp = {subset[0]}
                        frontier = [subset[0]]
                        while frontier:
                            v = frontier.pop()
                            for e in sub:
                                if v in e:
                                    (w,) = e - {v}
                                    if w not in comp:
                                        comp.add(w)
                                        frontier.append(w)
                        if len(comp) == k:
                            has_hole = True
            assert c.is_chordal() == (not has_hole)


def first_splitting(c):
    """The first splitting of the whole complex, as vertex sets."""
    split = c._first_splitting(c._full_mask())
    return split and tuple(c.vertex_set(m) for m in split)


class TestSplittings:
    def test_path_golden(self):
        assert first_splitting(path_abc()) == (
            frozenset("ab"), frozenset("bc"), frozenset("b"))

    def test_disjoint_vertices_golden(self):
        c = SimplicialComplex("ab", [{"a"}, {"b"}])
        assert first_splitting(c) == (frozenset("a"), frozenset("b"),
                                      frozenset())

    def test_four_cycle_has_no_splitting(self):
        assert not splittings_by_definition(four_cycle())
        assert four_cycle().is_irreducible()

    def test_empty_triangle_irreducible(self):
        assert empty_triangle().is_irreducible()

    def test_simplex_irreducible(self):
        assert SimplicialComplex("ab", [{"a", "b"}]).is_irreducible()
        assert not path_abc().is_irreducible()

    def test_matches_definition_oracle(self, rng):
        for _ in range(40):
            c = random_complex(rng, rng.randint(1, 7))
            by_definition = splittings_by_definition(c)
            assert c.is_irreducible() == (not by_definition)
            first = first_splitting(c)
            assert first is None or frozenset(first[:2]) in by_definition

    def test_splitting_fields_are_consistent(self, rng):
        for _ in range(40):
            c = random_complex(rng, rng.randint(2, 8))
            verts = frozenset(c.vertices)
            first = first_splitting(c)
            if first is None:
                continue
            part1, part2, separator = first
            assert part1 | part2 == verts
            assert part1 & part2 == separator
            assert separator == frozenset() or c.is_face(separator)
            assert part1 - separator and part2 - separator
            assert all(f <= part1 or f <= part2 for f in c.maximal_faces)

    def test_thirteen_petals_split(self):
        # one separator {h} leaves 13 components; the first splitting still
        # serves the irreducibility test and the terminal factors
        c = petals(13)
        assert not c.is_irreducible()
        expected = {frozenset({"h", f"x{i}", f"y{i}", f"z{i}"})
                    for i in range(13)}
        assert c.terminal_factors() == expected


class TestTerminalFactors:
    def test_path_golden(self):
        assert path_abc().terminal_factors() == {frozenset("ab"), frozenset("bc")}

    def test_four_cycle_golden(self):
        assert four_cycle().terminal_factors() == {frozenset("abcd")}

    def test_two_disjoint_four_cycles(self):
        faces = [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"},
                 {"p", "q"}, {"q", "r"}, {"r", "s"}, {"p", "s"}]
        c = SimplicialComplex("abcdpqrs", faces)
        expected = {frozenset("abcd"), frozenset("pqrs")}
        assert c.terminal_factors() == expected
        assert maximal_irreducibles(c) == expected

    def test_suspended_edge(self):
        c = SimplicialComplex("abst", [{"a", "s", "t"}, {"b", "s", "t"}])
        expected = {frozenset("ast"), frozenset("bst")}
        assert maximal_irreducibles(c) == expected
        assert c.terminal_factors() == expected

    def test_single_vertex(self):
        c = SimplicialComplex("v", [{"v"}])
        assert maximal_irreducibles(c) == {frozenset("v")}
        assert c.terminal_factors() == {frozenset("v")}

    def test_first_splitting_is_a_splitting(self, rng):
        for _ in range(30):
            c = random_complex(rng, rng.randint(1, 7))
            for mask in range(1, 1 << len(c.vertices)):
                sub = full_subcomplex(c, c.vertex_set(mask))
                by_definition = splittings_by_definition(sub)
                first = c._first_splitting(mask)
                if first is None:
                    assert not by_definition
                    continue
                p1, p2, sep = first
                assert p1 < p2 and p1 & p2 == sep
                pair = frozenset((c.vertex_set(p1), c.vertex_set(p2)))
                assert pair in by_definition

    def test_random_order_matches_first_splitting(self, rng):
        for _ in range(30):
            c = random_complex(rng, rng.randint(1, 8))
            baseline = c.terminal_factors()
            for seed in range(3):
                assert random_order_factors(c, random.Random(seed)) == baseline

    def test_matches_bruteforce(self, rng):
        for _ in range(30):
            c = random_complex(rng, rng.randint(1, 8))
            assert c.terminal_factors() == maximal_irreducibles(c)

    def test_factors_are_irreducible_full_subcomplexes(self, rng):
        for _ in range(30):
            c = random_complex(rng, rng.randint(1, 7))
            for factor in c.terminal_factors():
                assert full_subcomplex(c, factor).is_irreducible()


class TestPerFaceSplitting:
    """_first_splitting runs one component search per maximal face; the
    exhaustive separator scan over every sub-simplex is its oracle."""

    def test_components_match_breadth_first_search(self, rng):
        for _ in range(60):
            c = random_graph_complex(rng, rng.randint(1, 10))
            within = rng.randrange(1, 1 << len(c.vertices))
            neighbours = {u: set() for u in c.vertices}
            for u, v in c.edges():
                neighbours[u].add(v)
                neighbours[v].add(u)
            unseen = set(c.vertex_set(within))
            expected = set()
            while unseen:
                comp, frontier = set(), [min(unseen, key=c.vertices.index)]
                while frontier:
                    v = frontier.pop()
                    if v in unseen:
                        unseen.discard(v)
                        comp.add(v)
                        frontier.extend(neighbours[v])
                expected.add(frozenset(comp))
            got = components(c._adjacency, within)
            assert {c.vertex_set(m) for m in got} == expected
            assert got == sorted(got, key=lambda m: m & -m)

    def test_every_full_subcomplex_of_random_complexes(self, rng):
        for k in range(60):
            n = rng.randint(1, 10)
            c = (random_complex(rng, n) if k % 2 else
                 random_graph_complex(rng, n, rng.choice((0.3, 0.5, 0.7))))
            for mask in range(1, 1 << n):
                check_first_splitting(c, mask)

    @pytest.mark.parametrize("build", [product_system, block_product])
    def test_masks_visited_on_16_generator_nerves(self, build, rng):
        for _ in range(2):
            l = nerve(build(rng, 16))
            visited, _ = visited_masks(l)
            for mask in visited:
                check_first_splitting(l, mask)

    @pytest.mark.parametrize("k", [10, 11, 12])
    def test_petals(self, k):
        c = petals(k)
        visited, factors = visited_masks(c)
        assert len(factors) == k
        for mask in visited:
            check_first_splitting(c, mask)

    def test_separator_is_the_neighbourhood_not_the_face(self):
        # a triangle abh with the path h-x-y hung on h: the first face
        # {a, b, h} leaves one component {x, y}, so it separates nothing,
        # but that component splits off at its neighbourhood {h}
        c = SimplicialComplex("abhxy", [{"a", "b", "h"}, {"h", "x"}, {"x", "y"}])
        p1, p2, sep = c._first_splitting(c._full_mask())
        assert c.vertex_set(sep) == frozenset("h")
        assert {c.vertex_set(p1), c.vertex_set(p2)} == {frozenset("abh"),
                                                        frozenset("hxy")}


class TestInfinityLarge:
    def test_examples(self):
        assert path_abc().is_infinity_large()
        assert not four_cycle().is_infinity_large()
        assert not empty_triangle().is_infinity_large()

    def test_equals_all_factors_simplices(self, rng):
        for _ in range(50):
            c = random_complex(rng, rng.randint(1, 8))
            all_simplices = all(c.is_face(f) for f in c.terminal_factors())
            assert c.is_infinity_large() == all_simplices


class TestSerialization:
    def test_json_round_trip(self, rng):
        for _ in range(20):
            c = random_complex(rng, rng.randint(1, 6))
            assert SimplicialComplex.from_json(c.to_json()) == c

    @pytest.mark.parametrize("doc", [
        {"vertices": ["a", "b"], "maximal_faces": [[["a"]], ["b"]]},
        {"vertices": ["a", "b"], "maximal_faces": [["a", 1], ["b"]]},
        {"vertices": ["a"], "maximal_faces": ["a"]},
    ], ids=["list-entry", "number-entry", "face-not-list"])
    def test_malformed_faces_are_refused(self, doc):
        with pytest.raises(ValueError, match="list of lists of strings"):
            SimplicialComplex.from_json(json.dumps(doc))

    def test_json_shape(self):
        data = json.loads(path_abc().to_json())
        assert data == {"vertices": ["a", "b", "c"],
                        "maximal_faces": [["a", "b"], ["b", "c"]]}

    @pytest.mark.parametrize("names", [
        ['a"b', 'c\\', "d"],
        ['"', "\\", '\\"', 'x\\"y\\\\'],
    ], ids=["quote-and-trailing-backslash", "escapes-only"])
    def test_dot_ids_read_back(self, names):
        c = SimplicialComplex(names, [set(names)])
        dot = c.to_dot()
        read = [re.sub(r"\\(.)", r"\1", q[1:-1])
                for q in re.findall(r'"(?:[^"\\]|\\.)*"', dot)]
        assert read == names + [v for edge in c.edges() for v in edge]

    def test_plain_names_render_unchanged(self):
        assert path_abc().to_dot() == (
            'graph skeleton {\n  "a";\n  "b";\n  "c";\n'
            '  "a" -- "b";\n  "b" -- "c";\n}\n')

    def test_dot_lists_edges(self):
        dot = path_abc().to_dot()
        assert dot.startswith("graph skeleton {")
        assert '"a" -- "b"' in dot
        assert '"b" -- "c"' in dot
        assert dot.rstrip().endswith("}")
