"""Splittings, terminal decompositions and chordality of finite complexes.

The independent oracle here enumerates splittings straight from the
definition: unordered pairs of proper nonempty vertex subsets whose full
subcomplexes cover every maximal face and intersect in the empty set or in a
single simplex.  The library's component-based enumeration must agree.
"""

import itertools
import json
import random

import pytest

from denseamalgam.simplicial import SimplicialComplex, Splitting
from denseamalgam.coxeter import nerve
from conftest import (block_product, clique_complex, product_system,
                      random_complex, random_graph_complex)


def path_abc():
    return SimplicialComplex("abc", [{"a", "b"}, {"b", "c"}])


def four_cycle():
    return SimplicialComplex("abcd", [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}])


def empty_triangle():
    return SimplicialComplex("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])


def splittings_by_definition(c):
    """Enumerate splittings directly from the covering-pair definition."""
    verts = frozenset(c.vertices)
    faces = set()
    for f in c.maximal_faces:
        members = sorted(f)
        for r in range(1, len(members) + 1):
            for sub in itertools.combinations(members, r):
                faces.add(frozenset(sub))
    found = set()
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
                    found.add(frozenset((v1, v2)))
    return found


def random_order_factors(c, rng):
    """Terminal factors by the splitting recursion, each step drawing its
    splitting at random from enumerate_splittings.  The factors do not
    depend on the draws, so terminal_factors must equal this for any rng."""
    leaves = set()

    def recurse(vs):
        splits = c.full_subcomplex(vs).enumerate_splittings()
        if not splits:
            leaves.add(vs)
            return
        chosen = splits[rng.randrange(len(splits))]
        recurse(chosen.part1)
        recurse(chosen.part2)

    recurse(frozenset(c.vertices))
    return {f for f in leaves if not any(f < g for g in leaves)}


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
    _separations scan finds a separator, and what it returns is one."""
    first = c._first_splitting(within)
    exhaustive = next(c._separations(within), None)
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


def as_pair_set(splittings):
    return {frozenset((s.part1, s.part2)) for s in splittings}


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
        assert len(c.simplices()) == 7  # 3 vertices + 3 edges + 1 triangle

    def test_full_subcomplex_edge(self):
        c = four_cycle()
        sub = c.full_subcomplex({"a", "b"})
        assert sub == SimplicialComplex("ab", [{"a", "b"}])

    def test_full_subcomplex_diagonal(self):
        c = four_cycle()
        sub = c.full_subcomplex({"a", "c"})
        assert sub == SimplicialComplex("ac", [{"a"}, {"c"}])

    def test_full_subcomplex_identity(self):
        c = SimplicialComplex("abc", [{"a", "b", "c"}])
        assert c.full_subcomplex({"a", "b", "c"}) == c

    def test_full_subcomplex_rejects_empty(self):
        with pytest.raises(ValueError):
            path_abc().full_subcomplex(set())


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


class TestSplittings:
    def test_path_golden(self):
        (s,) = path_abc().enumerate_splittings()
        assert s == Splitting(frozenset("ab"), frozenset("bc"), frozenset("b"))

    def test_disjoint_vertices_golden(self):
        c = SimplicialComplex("ab", [{"a"}, {"b"}])
        (s,) = c.enumerate_splittings()
        assert s.separator == frozenset()
        assert {s.part1, s.part2} == {frozenset("a"), frozenset("b")}

    def test_four_cycle_has_no_splitting(self):
        assert four_cycle().enumerate_splittings() == []
        assert four_cycle().is_irreducible()

    def test_empty_triangle_irreducible(self):
        assert empty_triangle().is_irreducible()

    def test_simplex_irreducible(self):
        assert SimplicialComplex("ab", [{"a", "b"}]).is_irreducible()
        assert not path_abc().is_irreducible()

    def test_matches_definition_oracle(self, rng):
        for _ in range(40):
            c = random_complex(rng, rng.randint(1, 7))
            assert as_pair_set(c.enumerate_splittings()) == splittings_by_definition(c)

    def test_splitting_fields_are_consistent(self, rng):
        for _ in range(40):
            c = random_complex(rng, rng.randint(2, 8))
            verts = frozenset(c.vertices)
            for s in c.enumerate_splittings():
                assert s.part1 | s.part2 == verts
                assert s.part1 & s.part2 == s.separator
                assert s.separator == frozenset() or c.is_face(s.separator)
                assert s.part1 - s.separator and s.part2 - s.separator
                assert all(f <= s.part1 or f <= s.part2 for f in c.maximal_faces)
                assert sorted(s.part1) <= sorted(s.part2)

    def test_too_many_components_refused(self):
        c = petals(13)
        with pytest.raises(ValueError, match="leaves 13 components"):
            c.enumerate_splittings()
        # any one splitting still serves the irreducibility test and the
        # terminal factors
        assert not c.is_irreducible()
        expected = {frozenset({"h", f"x{i}", f"y{i}", f"z{i}"})
                    for i in range(13)}
        assert c.terminal_factors() == expected

    def test_output_is_sorted_and_duplicate_free(self, rng):
        for _ in range(20):
            c = random_complex(rng, rng.randint(2, 7))
            ss = c.enumerate_splittings()
            keys = [(sorted(s.separator), sorted(s.part1), sorted(s.part2)) for s in ss]
            assert keys == sorted(keys)
            assert len(set(map(id, ss))) == len(ss)
            assert len(as_pair_set(ss)) == len(ss)


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
        assert c.maximally_full_irreducible() == expected

    def test_suspended_edge(self):
        c = SimplicialComplex("abst", [{"a", "s", "t"}, {"b", "s", "t"}])
        expected = {frozenset("ast"), frozenset("bst")}
        assert c.maximally_full_irreducible() == expected
        assert c.terminal_factors() == expected

    def test_single_vertex(self):
        c = SimplicialComplex("v", [{"v"}])
        assert c.maximally_full_irreducible() == {frozenset("v")}
        assert c.terminal_factors() == {frozenset("v")}

    def test_bruteforce_bound(self):
        c = SimplicialComplex(range(13), [set(range(13))])
        with pytest.raises(ValueError, match="bound"):
            c.maximally_full_irreducible(bound=12)

    def test_first_splitting_is_a_splitting(self, rng):
        for _ in range(30):
            c = random_complex(rng, rng.randint(1, 7))
            for mask in range(1, 1 << len(c.vertices)):
                sub = c.full_subcomplex(c.vertex_set(mask))
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
            assert c.terminal_factors() == c.maximally_full_irreducible()

    def test_factors_are_irreducible_full_subcomplexes(self, rng):
        for _ in range(30):
            c = random_complex(rng, rng.randint(1, 7))
            for factor in c.terminal_factors():
                assert c.full_subcomplex(factor).is_irreducible()


class TestPerFaceSplitting:
    """_first_splitting runs one component search per maximal face; the
    exhaustive _separations scan over every sub-simplex is its oracle."""

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

    def test_dot_lists_edges(self):
        dot = path_abc().to_dot()
        assert dot.startswith("graph skeleton {")
        assert '"a" -- "b"' in dot
        assert '"b" -- "c"' in dot
        assert dot.rstrip().endswith("}")
