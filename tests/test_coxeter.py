"""Finite-type recognition, nerves, endedness, and boundary expressions.

The integer diagram catalogue is cross-checked against the numeric cosine
(Gram) matrix: a special subgroup is finite exactly when its cosine matrix is
positive definite.  The two implementations share no code, so agreement over
exhaustive small systems is strong evidence for both.
"""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from denseamalgam.boundary import Amalgam, Atom, CANTOR, EMPTY, POINT_PAIR, normalize
from denseamalgam import coxeter
from denseamalgam.cli import main
from denseamalgam.coxeter import (
    INF,
    CoxeterParseError,
    CoxeterSystem,
    _component_is_finite,
    boundary_expression,
    classify_endedness,
    is_finite_type,
    nerve,
    parse_coxeter,
    subsystem_boundary_atom,
)
from denseamalgam.simplicial import SimplicialComplex, component, components
from conftest import (
    block_product,
    cosine_matrix,
    from_pairs,
    gram_pd_test,
    product_system,
    random_coxeter_matrix,
)


def system(names, **orders):
    """Build a system from edge orders like ab=3; missing pairs default to 2."""
    names = list(names)
    return CoxeterSystem(names, [
        [1 if s == t else orders.get("".join(sorted((s, t))), 2)
         for t in names] for s in names])


D_INF = system("st", st=INF)
RA_FOUR_CYCLE = system("abcd", ab=2, bc=2, cd=2, ad=2, ac=INF, bd=INF)


def two_disjoint_cycles():
    """Right-angled system on two 4-cycles, all cross orders infinite."""
    orders = {}
    for cyc in ("abcd", "pqrs"):
        for x, y in zip(cyc, cyc[1:] + cyc[0]):
            orders["".join(sorted((x, y)))] = 2
        orders["".join(sorted((cyc[0], cyc[2])))] = INF
        orders["".join(sorted((cyc[1], cyc[3])))] = INF
    for x in "abcd":
        for y in "pqrs":
            orders["".join(sorted((x, y)))] = INF
    return system("abcdpqrs", **orders)


def nerve_oracle(c):
    """The 2^n scan that `nerve` replaced: every generator subset, largest
    first, kept when finite type and inside no face kept before."""
    gens = c.generators
    n = len(gens)
    maximal = []
    for mask in sorted(range(1, 1 << n), key=lambda m: -bin(m).count("1")):
        if any(mask & cover == mask for cover in maximal):
            continue
        if is_finite_type(c, [s for i, s in enumerate(gens) if mask >> i & 1]):
            maximal.append(mask)
    return SimplicialComplex(gens, [
        [s for i, s in enumerate(gens) if m >> i & 1] for m in maximal])


def nerve_by_search(c):
    """The search `nerve` ran before it carried components and branched on
    infinite subsets, as an oracle for sizes the 2^n scan cannot reach:
    Bron–Kerbosch over generator bitmasks on all generators at once (no
    split by factors), with a diagram component search per candidate."""
    diagram = c._diagram
    memo = {}

    def finite(comp):
        if comp not in memo:
            memo[comp] = _component_is_finite(c, comp)
        return memo[comp]

    def joiners(r, candidates):
        out = 0
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            if finite(component(diagram, r | low, low)):
                out |= low
        return out

    def grow(r, p, x, maximal):
        top = r | p
        alone = 0
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            if not diagram[low.bit_length() - 1] & top:
                alone |= low
        if alone & x:
            return
        r |= alone
        p &= ~alone
        if all(finite(comp) for comp in components(diagram, top)):
            if not joiners(top, x):
                maximal.append(top)
            return
        while p:
            low = p & -p
            p ^= low
            grown = r | low
            grow(grown, joiners(grown, p), joiners(grown, x), maximal)
            x |= low

    gens = c.generators
    maximal = []
    grow(0, (1 << len(gens)) - 1, 0, maximal)
    return SimplicialComplex(gens, [
        [s for i, s in enumerate(gens) if m >> i & 1] for m in maximal])


def sparse_threes(n, seed):
    """Order 3 between each pair of generators at rate 1/8, 2 otherwise:
    one large diagram component, no split by factors."""
    draw = random.Random(seed)
    labels = {(i, j): 3 if draw.random() < 1 / 8 else 2
              for i in range(n) for j in range(i + 1, n)}
    return from_pairs(n, lambda i, j: labels[i, j])


def two_ended_by_names(c):
    """The name-based test `_endedness` ran before the masks: some pair
    with an infinite order commutes with every other generator, and the
    other generators span a finite-type subset."""
    gens = c.generators
    for i, s in enumerate(gens):
        for t in gens[i + 1:]:
            if c.order(s, t) != INF:
                continue
            rest = [u for u in gens if u not in (s, t)]
            if all(c.order(u, v) == 2 for u in (s, t) for v in rest) \
                    and is_finite_type(c, rest):
                return True
    return False


def maximal_one_ended_subsets(c):
    """The paper's atoms by their wording: the inclusion-maximal generator
    subsets T whose special subgroup W_T is one-ended, found by classifying
    the subsystem on every subset, largest first."""
    gens = c.generators
    found = []
    for size in range(len(gens), 0, -1):
        for subset in itertools.combinations(gens, size):
            if any(found_set >= set(subset) for found_set in found):
                continue
            sub = CoxeterSystem(subset, [[c.order(s, t) for t in subset]
                                         for s in subset])
            if classify_endedness(sub).tag == "one_ended":
                found.append(frozenset(subset))
    return set(found)


def random_blocks(rng, cap=12):
    """Two or more random systems of 1-4 generators each, on disjoint
    generators, with at most `cap` generators in all."""
    blocks, size = [], 0
    while len(blocks) < 2 or rng.random() < 0.7:
        k = rng.randint(1, 4)
        if size + k > cap:
            break
        tag = f"b{len(blocks)}."
        blocks.append(CoxeterSystem([tag + str(i) for i in range(k)],
                                    random_coxeter_matrix(rng, k)))
        size += k
    return blocks


def combined(rng, factors, between):
    """The direct (between=2) or free (between=INF) product of systems on
    disjoint generators, with the generators shuffled."""
    owner = {s: f for f in factors for s in f.generators}
    names = list(owner)
    rng.shuffle(names)
    return CoxeterSystem(names, [
        [owner[s].order(s, t) if owner[s] is owner[t] else between
         for t in names] for s in names])


# `coxeter nerve` and `coxeter boundary` stdout on benchmark-shaped systems
# (free products of one-ended blocks and direct products of two halves, at
# 16 and 12 generators), recorded from the single-search nerve that preceded
# the split into direct and free factors
GOLDENS = json.loads(
    (Path(__file__).parent / "coxeter_goldens.json").read_text())


class TestParsing:
    def test_d_infinity(self):
        c = parse_coxeter('{"generators":["s","t"],"m":[[1,"inf"],["inf",1]]}')
        assert c.order("s", "t") == INF

    def test_triangle_of_threes(self):
        c = parse_coxeter('{"generators":["a","b","c"],'
                          '"m":[[1,3,3],[3,1,3],[3,3,1]]}')
        assert all(c.order(s, t) == 3 for s, t in itertools.combinations("abc", 2))

    def test_diagonal_must_be_one(self):
        with pytest.raises(CoxeterParseError, match="diagonal") as err:
            parse_coxeter('{"generators":["s","t"],"m":[[2,3],[3,1]]}')
        assert err.value.location == "m[s,s]"

    def test_asymmetric_rejected(self):
        with pytest.raises(CoxeterParseError, match="symmetric") as err:
            parse_coxeter('{"generators":["s","t"],"m":[[1,3],[4,1]]}')
        assert err.value.location == "m[s,t]"

    def test_off_diagonal_below_two_rejected(self):
        with pytest.raises(CoxeterParseError, match=">= 2"):
            parse_coxeter('{"generators":["s","t"],"m":[[1,1],[1,1]]}')

    def test_bool_entry_rejected(self):
        with pytest.raises(CoxeterParseError, match="integers"):
            parse_coxeter('{"generators":["s","t"],"m":[[1,true],[true,1]]}')

    @pytest.mark.parametrize("m, message", [
        ([[True, 2], [2, 1]], "diagonal"),
        ([[1.0, 2], [2, 1]], "diagonal"),
        ([[1, 2], [2.0, 1]], "symmetric"),
        ([[1, "x"], ["x", 1]], ">= 2 or infinity"),
        ([[1, None], [None, 1]], ">= 2 or infinity"),
    ], ids=["bool-diagonal", "float-diagonal", "float-mirror", "text-order",
            "null-order"])
    def test_entries_of_the_wrong_type_rejected(self, m, message):
        with pytest.raises(CoxeterParseError, match=message):
            parse_coxeter(json.dumps({"generators": ["s", "t"], "m": m}))

    def test_shape_errors(self):
        with pytest.raises(CoxeterParseError, match="missing key"):
            parse_coxeter('{"generators":["s"]}')
        with pytest.raises(CoxeterParseError, match="2x2"):
            parse_coxeter('{"generators":["s","t"],"m":[[1,2]]}')
        with pytest.raises(CoxeterParseError, match="invalid JSON"):
            parse_coxeter("{")

    @pytest.mark.parametrize("m", [
        [[1, 2], [2]],
        [[1, 2]],
        {("s", "s"): 1, ("s", "t"): 2, ("t", "s"): 2, ("t", "t"): 1},
    ], ids=["short-row", "missing-row", "keyed-by-pairs"])
    def test_matrix_that_is_not_rows_of_orders_rejected(self, m):
        with pytest.raises(CoxeterParseError) as err:
            CoxeterSystem(["s", "t"], m)
        assert str(err.value) == "matrix must be 2 rows of 2 orders"
        assert err.value.location is None

    def test_duplicate_generators_rejected(self):
        with pytest.raises(CoxeterParseError, match="duplicate"):
            CoxeterSystem(["s", "s"], [[1, 2], [2, 1]])


class TestFiniteType:
    def test_empty_subset_is_finite(self):
        assert is_finite_type(D_INF, [])

    def test_dihedral(self):
        assert is_finite_type(system("st", st=5))
        assert is_finite_type(system("st", st=7))
        assert not is_finite_type(D_INF)

    def test_rank_three_catalogue(self):
        assert is_finite_type(system("abc", ab=3, bc=3))          # A3
        assert is_finite_type(system("abc", ab=4, bc=3))          # B3
        assert is_finite_type(system("abc", ab=5, bc=3))          # H3
        assert not is_finite_type(system("abc", ab=3, bc=3, ac=3))  # affine
        assert not is_finite_type(system("abc", ab=6, bc=3))      # affine G2
        assert not is_finite_type(system("abc", ab=7, bc=3))      # hyperbolic
        assert not is_finite_type(system("abc", ab=4, bc=4))      # affine C2
        assert not is_finite_type(system("abc", ab=5, bc=4))
        assert not is_finite_type(system("abc", ab=5, bc=5))

    def test_rank_four_catalogue(self):
        assert is_finite_type(system("abcd", ab=3, bc=3, cd=3))   # A4
        assert is_finite_type(system("abcd", ab=4, bc=3, cd=3))   # B4
        assert is_finite_type(system("abcd", ab=3, bc=4, cd=3))   # F4
        assert is_finite_type(system("abcd", ab=3, bc=3, bd=3))   # D4 star
        assert is_finite_type(system("abcd", ab=5, bc=3, cd=3))   # H4
        assert not is_finite_type(system("abcd", ab=3, bc=4, cd=4))
        assert not is_finite_type(system("abcd", ab=4, bc=3, cd=4))  # affine
        assert not is_finite_type(system("abcd", ab=3, bc=3, cd=3, ad=3))  # cycle
        assert not is_finite_type(system("abcd", ab=5, bc=3, cd=5))

    def test_larger_families(self):
        # A7 path of 3s
        names = "abcdefg"
        orders = {"".join(sorted(p)): 3 for p in zip(names, names[1:])}
        assert is_finite_type(system(names, **orders))
        # E6/E7/E8: path with one branch vertex, legs (1,2,k)
        def branched(k):
            path = "abcdefgh"[: 3 + k]
            orders = {"".join(sorted(p)): 3 for p in zip(path, path[1:])}
            orders["".join(sorted(("c", "z")))] = 3
            return system(path + "z", **orders)
        assert is_finite_type(branched(2))      # E6: legs (1,2,2) at c
        assert is_finite_type(branched(3))      # E7
        assert is_finite_type(branched(4))      # E8
        assert not is_finite_type(branched(5))  # affine E8
        # D_n: path of 3s forked at one end, legs (1,1,k)
        def forked(k):
            path = "bcdefgh"[: k + 1]
            orders = {"".join(sorted(p)): 3 for p in zip(path, path[1:])}
            orders["cy"] = 3  # second path vertex carries the fork
            return system(path + "y", **orders)
        assert is_finite_type(forked(3))        # D5
        assert is_finite_type(forked(6))        # D8
        # star with four legs (affine D4) and doubly forked path (affine D)
        assert is_finite_type(system("cxyz", cx=3, cy=3, cz=3))  # D4 star
        assert not is_finite_type(system("cwxyz", cw=3, cx=3, cy=3, cz=3))
        assert not is_finite_type(
            system("bcpqrs", bc=3, bp=3, bq=3, cr=3, cs=3))

    def test_disconnected_diagram_componentwise(self):
        # A2 x A2 (orders commute across): finite
        assert is_finite_type(system("abcd", ab=3, cd=3))
        # A2 x D-infinity: infinite
        assert not is_finite_type(system("abcd", ab=3, cd=INF))

    def test_subset_argument(self):
        c = system("abc", ab=3, bc=3, ac=3)
        assert not is_finite_type(c)
        assert is_finite_type(c, ["a", "b"])
        assert is_finite_type(c, {"a"})

    def test_infinite_edge_never_finite(self):
        assert not is_finite_type(system("ab", ab=INF))


class TestGramOracle:
    def test_a3_leading_minors(self):
        b = cosine_matrix(system("abc", ab=3, bc=3))
        minors = [np.linalg.det(b[:k, :k]) for k in (1, 2, 3)]
        assert np.allclose(minors, [1.0, 0.75, 0.5])

    def test_affine_triangle_eigenvalues(self):
        b = cosine_matrix(system("abc", ab=3, bc=3, ac=3))
        assert np.allclose(np.linalg.eigvalsh(b), [0.0, 1.5, 1.5], atol=1e-12)

    def test_d_infinity_eigenvalues(self):
        b = cosine_matrix(D_INF)
        assert np.allclose(np.linalg.eigvalsh(b), [0.0, 2.0], atol=1e-12)

    def test_single_generator(self):
        assert gram_pd_test(system("a"), ["a"])

    def test_agrees_with_catalogue_rank_three(self):
        entries = [2, 3, 4, 5, 6, INF]
        for ab, ac, bc in itertools.product(entries, repeat=3):
            c = CoxeterSystem("abc", [[1, ab, ac],
                                      [ab, 1, bc],
                                      [ac, bc, 1]])
            for r in range(1, 4):
                for subset in itertools.combinations("abc", r):
                    assert is_finite_type(c, subset) == gram_pd_test(c, subset), (
                        f"disagreement at m={ab},{ac},{bc} subset={subset}")

    def test_agrees_with_catalogue_rank_four_sample(self, rng):
        for _ in range(300):
            c = CoxeterSystem("abcd", random_coxeter_matrix(rng, 4))
            subset = rng.sample("abcd", rng.randint(1, 4))
            assert is_finite_type(c, subset) == gram_pd_test(c, subset)

    def test_monotone_under_subsets(self, rng):
        for _ in range(200):
            c = CoxeterSystem("abcd", random_coxeter_matrix(rng, 4))
            for r in range(1, 5):
                for big in itertools.combinations("abcd", r):
                    if not is_finite_type(c, big):
                        continue
                    for small in itertools.combinations(big, max(1, r - 1)):
                        assert is_finite_type(c, small)


class TestNerve:
    def test_right_angled_simplex(self):
        c = system("abc")
        assert nerve(c) == SimplicialComplex("abc", [{"a", "b", "c"}])

    def test_path_nerve(self):
        c = system("abc", ac=INF)
        assert nerve(c) == SimplicialComplex("abc", [{"a", "b"}, {"b", "c"}])

    def test_d_infinity_nerve(self):
        assert nerve(D_INF) == SimplicialComplex("st", [{"s"}, {"t"}])

    def test_non_flag_nerve(self):
        # affine triangle: all pairs finite, triple infinite -> empty triangle
        c = system("abc", ab=3, bc=3, ac=3)
        l = nerve(c)
        assert l == SimplicialComplex(
            "abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
        assert not l.is_flag()

    def test_simplices_match_finite_subsets(self, rng):
        for _ in range(30):
            c = CoxeterSystem("abcd", random_coxeter_matrix(rng, 4))
            l = nerve(c)
            for r in range(1, 5):
                for subset in itertools.combinations("abcd", r):
                    assert l.is_face(subset) == is_finite_type(c, subset)

    def test_matches_oracle_on_random_systems(self, rng):
        for n in range(1, 11):
            for _ in range(12):
                c = CoxeterSystem([f"g{i}" for i in range(n)],
                                  random_coxeter_matrix(rng, n))
                assert nerve(c) == nerve_oracle(c)

    def test_matches_oracle_on_benchmark_shapes(self, rng):
        systems = [block_product(rng, 12) for _ in range(3)]
        systems += [product_system(rng, 12) for _ in range(3)]
        systems += [block_product(rng, 16), product_system(rng, 16)]
        for c in systems:
            assert nerve(c) == nerve_oracle(c)

    def test_matches_oracle_on_commuting_halves(self):
        # all orders 2 but one infinite pair in each half: 4 faces of 14
        c = from_pairs(16, lambda i, j: INF if (i, j) in ((0, 1), (8, 9))
                       else 2)
        l = nerve(c)
        assert l == nerve_oracle(c)
        assert sorted(map(len, l.maximal_faces)) == [14] * 4

    @pytest.mark.parametrize("between", [2, INF], ids=["direct", "free"])
    def test_matches_oracle_on_products_of_blocks(self, rng, between):
        for _ in range(60):
            c = combined(rng, random_blocks(rng), between)
            assert nerve(c) == nerve_oracle(c)

    @pytest.mark.parametrize("outer, inner", [(2, INF), (INF, 2)],
                             ids=["direct-of-free", "free-of-direct"])
    def test_matches_oracle_on_nested_products(self, rng, outer, inner):
        for _ in range(60):
            blocks = random_blocks(rng)
            cut = rng.randint(1, len(blocks) - 1)
            c = combined(rng, [combined(rng, blocks[:cut], inner),
                               combined(rng, blocks[cut:], inner)], outer)
            assert nerve(c) == nerve_oracle(c)

    def test_direct_product_nerve_is_the_join(self, rng):
        for _ in range(40):
            factors = random_blocks(rng)
            join = SimplicialComplex(
                [s for f in factors for s in f.generators],
                [frozenset().union(*faces) for faces in itertools.product(
                    *(nerve(f).maximal_faces for f in factors))])
            assert nerve(combined(rng, factors, 2)) == join

    @pytest.mark.parametrize("golden", GOLDENS, ids=[
        f"{len(g['generators'])}-{k}" for k, g in enumerate(GOLDENS)])
    def test_benchmark_shapes_print_as_recorded(self, tmp_path, capsys,
                                                golden):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"generators": golden["generators"],
                                    "m": golden["m"]}))
        for command in ("nerve", "boundary"):
            assert main(["coxeter", command, str(path)]) == 0
            assert capsys.readouterr().out == golden[command]

    @pytest.mark.parametrize("n, seed", [(16, 1), (16, 2), (18, 1),
                                         (18, 2), (20, 3), (20, 5)])
    def test_matches_the_retired_search_at_scale(self, n, seed):
        c = sparse_threes(n, seed)
        assert nerve(c) == nerve_by_search(c)

    def test_face_masks_build_the_checked_complex(self, rng):
        for _ in range(40):
            c = combined(rng, random_blocks(rng), rng.choice((2, INF)))
            l = nerve(c)
            checked = SimplicialComplex(l.vertices, l.maximal_faces)
            assert (l._masks, l._adjacency) == \
                (checked._masks, checked._adjacency)

    def test_budget_refusal(self):
        # eighteen commuting infinite dihedral pairs: a join of 2^18 faces
        c = from_pairs(36, lambda i, j: INF if i % 2 == 0 and j == i + 1
                       else 2)
        with pytest.raises(ValueError, match=(
                f"budget of {coxeter._NERVE_BUDGET} nodes and faces "
                "exhausted on 36 generators")):
            nerve(c)

    def test_budget_is_spent_by_the_search(self, monkeypatch):
        c = sparse_threes(20, 5)
        monkeypatch.setattr(coxeter, "_NERVE_BUDGET", 50)
        with pytest.raises(ValueError, match="budget of 50 nodes and faces "
                           "exhausted on 20 generators"):
            nerve(c)

    def test_benchmark_shapes_stay_far_below_the_budget(self, rng,
                                                        monkeypatch):
        monkeypatch.setattr(coxeter, "_NERVE_BUDGET",
                            coxeter._NERVE_BUDGET // 100)
        for golden in GOLDENS:
            nerve(CoxeterSystem(golden["generators"], [
                [INF if v == "inf" else v for v in row]
                for row in golden["m"]]))
        nerve(sparse_threes(16, 1))

    def test_budget_refusal_exits_1_with_the_error_object(self, tmp_path,
                                                          capsys):
        n = 36
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({
            "generators": [f"s{i}" for i in range(n)],
            "m": [[1 if i == j else "inf" if i // 2 == j // 2 else 2
                   for j in range(n)] for i in range(n)]}))
        assert main(["coxeter", "boundary", str(path)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert "exhausted on 36 generators" in error["message"]


class TestEndedness:
    def test_finite(self):
        assert classify_endedness(system("ab")).tag == "finite"

    def test_d_infinity_two_ended(self):
        assert classify_endedness(D_INF).tag == "two_ended"

    def test_product_with_finite_is_two_ended(self):
        c = system("stu", st=INF)  # u commutes with both
        assert classify_endedness(c).tag == "two_ended"

    def test_non_commuting_product_not_two_ended(self):
        c = system("stu", st=INF, su=3)
        cls = classify_endedness(c)
        assert cls.tag == "infinitely_many_ends"
        assert cls.virtually_free

    def test_right_angled_four_cycle_one_ended(self):
        assert classify_endedness(RA_FOUR_CYCLE).tag == "one_ended"

    def test_path_of_threes_with_infinity(self):
        c = system("abc", ab=3, bc=3, ac=INF)
        cls = classify_endedness(c)
        assert cls.tag == "infinitely_many_ends"
        assert cls.virtually_free

    def test_affine_triangle_one_ended(self):
        # euclidean triangle group acts on the plane: one end, nerve is the
        # empty triangle (irreducible, not a simplex)
        c = system("abc", ab=3, bc=3, ac=3)
        assert classify_endedness(c).tag == "one_ended"

    def test_two_disjoint_four_cycles(self):
        cls = classify_endedness(two_disjoint_cycles())
        assert cls.tag == "infinitely_many_ends"
        assert not cls.virtually_free

    def test_two_ended_verdict_matches_the_name_based_test(self, rng):
        found = 0
        for _ in range(2000):
            n = rng.randint(2, 8)
            rows = random_coxeter_matrix(rng, n, entries=(2, 2, 2, 3, 4, INF))
            if rng.random() < 0.5:  # a pair commuting with all the others
                i, j = rng.sample(range(n), 2)
                for k in range(n):
                    for a in (i, j):
                        if k != a:
                            rows[a][k] = rows[k][a] = 2
                rows[i][j] = rows[j][i] = INF
            c = CoxeterSystem([f"g{k}" for k in range(n)], rows)
            expected = not is_finite_type(c) and two_ended_by_names(c)
            assert (classify_endedness(c).tag == "two_ended") == expected
            found += expected
        assert found >= 200

    def test_virtually_free_flag_matches_class_shape(self, rng):
        for _ in range(60):
            c = CoxeterSystem("abcd", random_coxeter_matrix(rng, 4))
            cls = classify_endedness(c)
            if cls.tag != "infinitely_many_ends":
                assert not cls.virtually_free
            l = nerve(c)
            is_simplex = len(l.maximal_faces) == 1 and \
                l.maximal_faces[0] == frozenset("abcd")
            one_ended = (not is_finite_type(c)) and l.is_irreducible() \
                and not is_simplex
            # the two-ended product shape never has an irreducible
            # non-simplex nerve, so the decision tree order is immaterial
            assert (cls.tag == "one_ended") == one_ended

    def test_infinitely_many_ends_nerve_decomposes(self, rng):
        found = 0
        for _ in range(80):
            c = CoxeterSystem("abcd", random_coxeter_matrix(rng, 4))
            cls = classify_endedness(c)
            if cls.tag != "infinitely_many_ends":
                continue
            found += 1
            factors = nerve(c).terminal_factors()
            assert len(factors) >= 2
            if not cls.virtually_free:
                l = nerve(c)
                assert any(not l.is_face(f) for f in factors)
        assert found >= 5


class TestBoundaryExpression:
    def test_finite_group_empty(self):
        assert boundary_expression(system("ab")) == EMPTY

    def test_d_infinity_point_pair(self):
        assert boundary_expression(D_INF) == POINT_PAIR

    def test_one_ended_atom(self):
        assert boundary_expression(RA_FOUR_CYCLE) == Atom("bd[a,b,c,d]")

    def test_virtually_free_cantor(self):
        c = system("abc", ab=3, bc=3, ac=INF)
        assert boundary_expression(c) == CANTOR

    def test_two_disjoint_four_cycles_amalgam(self):
        assert boundary_expression(two_disjoint_cycles()) == normalize(
            Amalgam((Atom("bd[a,b,c,d]"), Atom("bd[p,q,r,s]"))))

    def test_atoms_are_the_maximal_one_ended_special_subgroups(self):
        # the abstract: with infinitely many ends, the boundary is the dense
        # amalgam of the boundaries of the maximal 1-ended special subgroups
        rng = random.Random(2014)
        checked = 0
        for _ in range(1000):
            n = rng.randint(2, 8)
            rows = random_coxeter_matrix(rng, n, (2, 2, 2, 3, 4, INF, INF))
            c = CoxeterSystem([f"g{i}" for i in range(n)], rows)
            if classify_endedness(c).tag != "infinitely_many_ends":
                continue
            l = nerve(c)
            assert maximal_one_ended_subsets(c) == {
                frozenset(f) for f in l.terminal_factors() if not l.is_face(f)}
            checked += 1
        assert checked >= 400

    def test_always_normal(self, rng):
        for _ in range(60):
            c = CoxeterSystem("abcd", random_coxeter_matrix(rng, 4))
            e = boundary_expression(c)
            assert normalize(e) == e

    def test_builds_the_nerve_once(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c)
            return nerve(c)
        monkeypatch.setattr("denseamalgam.coxeter.nerve", counted)
        c = two_disjoint_cycles()
        assert classify_endedness(c).tag == "infinitely_many_ends"
        calls.clear()
        boundary_expression(c)
        assert len(calls) == 1

    def test_runs_no_flag_test(self, monkeypatch):
        # virtually_free is classify_endedness's alone; the boundary of a
        # free product never asks whether the nerve is flag
        def refuse(self):
            raise AssertionError("is_flag called")
        monkeypatch.setattr(SimplicialComplex, "is_flag", refuse)
        assert boundary_expression(two_disjoint_cycles()) == normalize(
            Amalgam((Atom("bd[a,b,c,d]"), Atom("bd[p,q,r,s]"))))
        assert boundary_expression(
            system("abc", ab=3, bc=3, ac=INF)) == CANTOR
        with pytest.raises(AssertionError, match="is_flag called"):
            classify_endedness(two_disjoint_cycles())

    def test_atom_name_uses_generator_order(self):
        c = system("cab")  # declaration order c, a, b
        atom = subsystem_boundary_atom(c, {"b", "c"})
        assert atom == Atom("bd[c,b]")
        with pytest.raises(ValueError, match="unknown generators"):
            subsystem_boundary_atom(c, {"z"})
