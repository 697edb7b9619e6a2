"""Laws of the boundary-expression algebra.

The rewriting system must be a decision procedure for the amalgam identities:
merging/commutativity, associativity with idempotence, duplicate absorption,
removal of totally disconnected summands, and the collapse of a fully
disconnected amalgam to the Cantor set, plus the two conventions for empty
argument lists.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from denseamalgam.boundary import (
    Amalgam,
    Atom,
    CANTOR,
    EMPTY,
    POINT_PAIR,
    ExprSyntaxError,
    format_expr,
    is_totally_disconnected,
    normalize,
    parse_expr,
)
from conftest import random_expr, random_order_normalize


def leaves():
    atoms = st.builds(
        Atom,
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from([
            frozenset(),
            frozenset({"totally_disconnected"}),
            frozenset({"two_point"}),
        ]),
    )
    return st.one_of(st.just(EMPTY), st.just(CANTOR), st.just(POINT_PAIR), atoms)


def expressions():
    return st.recursive(
        leaves(),
        lambda children: st.builds(
            lambda args: Amalgam(tuple(args)),
            st.lists(children, min_size=1, max_size=4),
        ),
        max_leaves=8,
    )


class TestConstruction:
    def test_zero_ary_amalgam_rejected(self):
        with pytest.raises(ValueError, match="zero-ary amalgam undefined"):
            Amalgam(())

    def test_two_point_implies_totally_disconnected(self):
        a = Atom("x", frozenset({"two_point"}))
        assert "totally_disconnected" in a.traits

    def test_unknown_trait_rejected(self):
        with pytest.raises(ValueError, match="unknown atom traits"):
            Atom("x", frozenset({"connected"}))

    def test_point_pair_counts_as_totally_disconnected(self):
        assert is_totally_disconnected(POINT_PAIR)
        assert is_totally_disconnected(CANTOR)
        assert not is_totally_disconnected(Atom("a"))
        assert is_totally_disconnected(Atom("a", frozenset({"totally_disconnected"})))


class TestNormalizeExamples:
    def test_drop_cantor_next_to_atom(self):
        assert normalize(parse_expr("Amalgam(Cantor, a)")) == parse_expr("Amalgam(a)")

    def test_amalgam_of_empty_is_cantor(self):
        assert normalize(parse_expr("Amalgam(Empty)")) == CANTOR

    def test_flattening(self):
        assert (normalize(parse_expr("Amalgam(a, Amalgam(b, c))"))
                == normalize(parse_expr("Amalgam(a, b, c)")))

    def test_single_atom_amalgam_does_not_collapse(self):
        assert normalize(parse_expr("Amalgam(a)")) != normalize(parse_expr("a"))
        assert normalize(parse_expr("Amalgam(a)")) == Amalgam((Atom("a"),))

    def test_all_td_amalgam_is_cantor(self):
        assert normalize(parse_expr("Amalgam(q:td, PointPair)")) == CANTOR
        assert normalize(parse_expr("Amalgam(Cantor, Cantor)")) == CANTOR
        assert normalize(parse_expr("Amalgam(x:2pt)")) == CANTOR

    def test_only_marked_atoms_are_dropped(self):
        # an unmarked atom is kept even if some interpretation of it could be
        # totally disconnected
        e = normalize(parse_expr("Amalgam(a, q)"))
        assert e == Amalgam((Atom("a"), Atom("q")))

    def test_sorting_and_dedup(self):
        e = normalize(parse_expr("Amalgam(c, a, b, a)"))
        assert format_expr(e) == "Amalgam(a, b, c)"

    def test_leaves_pass_through(self):
        for leaf in (EMPTY, CANTOR, POINT_PAIR, Atom("z")):
            assert normalize(leaf) == leaf


class TestGrammar:
    def test_round_trip_examples(self):
        for text in [
            "Empty",
            "Cantor",
            "PointPair",
            "a",
            "a:td",
            "x:2pt",
            "bd[a,b,c]",
            "Amalgam(a, Amalgam(b), Cantor)",
        ]:
            assert format_expr(parse_expr(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_expr(" Amalgam( a ,b ) ") == Amalgam((Atom("a"), Atom("b")))

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("Amalgam(a")
        with pytest.raises(ExprSyntaxError):
            parse_expr("Amalgam()")
        with pytest.raises(ExprSyntaxError):
            parse_expr("a:xx")
        with pytest.raises(ExprSyntaxError):
            parse_expr("a b")
        with pytest.raises(ExprSyntaxError):
            parse_expr("Empty:td")

    def test_printer_emits_parseable_normal_forms(self, rng):
        for _ in range(200):
            e = normalize(random_expr(rng))
            assert parse_expr(format_expr(e)) == e


def count_leaves(e):
    if isinstance(e, Amalgam):
        return sum(count_leaves(a) for a in e.args)
    return 1


class TestProperties:
    @settings(max_examples=200)
    @given(expressions())
    def test_idempotent(self, e):
        n = normalize(e)
        assert normalize(n) == n

    @settings(max_examples=200)
    @given(expressions())
    def test_normal_form_shape(self, e):
        n = normalize(e)
        if isinstance(n, Amalgam):
            assert all(isinstance(a, Atom) and not is_totally_disconnected(a)
                       for a in n.args)
            keys = [a.sort_key() for a in n.args]
            assert keys == sorted(keys)
            assert len(set(n.args)) == len(n.args)

    @settings(max_examples=100)
    @given(expressions(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_rule_order_independence(self, e, seed):
        assert random_order_normalize(e, random.Random(seed)) == normalize(e)

    @settings(max_examples=200)
    @given(expressions())
    def test_rewriting_never_increases_leaf_count(self, e):
        assert count_leaves(normalize(e)) <= count_leaves(e)

    @settings(max_examples=100)
    @given(st.lists(expressions(), min_size=2, max_size=4), st.randoms())
    def test_commutativity(self, args, pyrng):
        shuffled = list(args)
        pyrng.shuffle(shuffled)
        assert (normalize(Amalgam(tuple(args)))
                == normalize(Amalgam(tuple(shuffled))))

    @settings(max_examples=100)
    @given(st.lists(expressions(), min_size=2, max_size=4),
           st.integers(min_value=0, max_value=3))
    def test_associativity_idempotence(self, args, i):
        i = i % len(args)
        nested = Amalgam(tuple(args[:i]) + (Amalgam(tuple(args[i:])),))
        assert normalize(nested) == normalize(Amalgam(tuple(args)))

    @settings(max_examples=100)
    @given(st.lists(expressions(), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=3))
    def test_duplicate_absorption(self, args, i):
        i = i % len(args)
        assert (normalize(Amalgam(tuple(args) + (args[i],)))
                == normalize(Amalgam(tuple(args))))

    @settings(max_examples=100)
    @given(st.lists(expressions(), min_size=1, max_size=4),
           st.sampled_from([CANTOR, POINT_PAIR, Atom("q", frozenset({"totally_disconnected"}))]))
    def test_totally_disconnected_summand_dropped(self, args, q):
        assert (normalize(Amalgam(tuple(args) + (q,)))
                == normalize(Amalgam(tuple(args))))

    @settings(max_examples=50)
    @given(st.sampled_from([CANTOR, POINT_PAIR,
                            Atom("q", frozenset({"totally_disconnected"})),
                            Atom("p", frozenset({"two_point"}))]))
    def test_amalgam_of_disconnected_is_cantor(self, q):
        assert normalize(Amalgam((q,))) == CANTOR

    @settings(max_examples=100)
    @given(st.lists(expressions(), min_size=1, max_size=4))
    def test_empty_conventions(self, args):
        assert (normalize(Amalgam((EMPTY,) + tuple(args)))
                == normalize(Amalgam(tuple(args))))
        assert normalize(Amalgam((EMPTY,))) == CANTOR
