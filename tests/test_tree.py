"""The rooted-tree type shared by approximations, labellings and balls."""

import random

import pytest

from denseamalgam.tree import RootedTree


def walk_subtree(tree, v):
    """Descendants of v by an explicit walk over the children lists."""
    out = {v}
    stack = [v]
    while stack:
        for c in tree.children[stack.pop()]:
            out.add(c)
            stack.append(c)
    return out


def random_parent_map(rng, n):
    names = ["r"]
    parent_of = {"r": None}
    for _ in range(n - 1):
        p = rng.choice(names)
        child = f"{p}.{sum(1 for q in parent_of.values() if q == p)}"
        names.append(child)
        parent_of[child] = p
    return parent_of


class TestFromParents:
    def test_breadth_first_ids_and_sibling_order(self):
        tree = RootedTree.from_parents({
            "t.10": "t", "t": None, "t.2": "t", "t.2.0": "t.2", "t.x": "t"})
        # digit parts compare as integers; other parts after them
        assert tree.names == ("t", "t.2", "t.10", "t.x", "t.2.0")
        assert tree.parent == (-1, 0, 0, 0, 1)
        assert tree.depth == (0, 1, 1, 1, 2)
        assert tree.children == ((1, 2, 3), (4,), (), (), ())
        assert tree.levels() == [[0], [1, 2, 3], [4]]
        assert tree.parent_names() == {"t": None, "t.2": "t", "t.10": "t",
                                       "t.x": "t", "t.2.0": "t.2"}

    def test_depth_comes_from_the_parent_chain(self):
        for names in (["r", "r.0", "r.0.0"], ["r", "r.0", "r.1"],
                      ["root", "x", "y"], ["x.y", "a.b.c", "z"]):
            top, mid, low = names
            tree = RootedTree.from_parents({top: None, mid: top, low: mid})
            assert tree.names == (top, mid, low)
            assert tree.depth == (0, 1, 2)

    @pytest.mark.parametrize("parent_of, message", [
        ({}, "exactly one root"),
        ({"a": "b", "b": "a"}, "exactly one root"),
        ({"a": None, "b": None}, "exactly one root"),
        ({"a": None, "b": "c"}, "dangling parent"),
        ({"a": None, "b": 3}, "dangling parent"),
        ({"a": None, "b": "c", "c": "b"}, "cycle"),
        ({"a": None, "b": "b"}, "cycle"),
        ({"a": None, "b": "a", "c": "d", "d": "e", "e": "c", "f": "e"},
         "cycle"),
    ], ids=["empty", "all-cycle", "two-roots", "dangling", "non-name",
            "cycle", "self-parent", "cycle-with-tail"])
    def test_refuses_non_trees(self, parent_of, message):
        with pytest.raises(ValueError, match=message):
            RootedTree.from_parents(parent_of)


class TestQueries:
    @pytest.mark.parametrize("seed", range(5))
    def test_intervals_match_subtree_walks(self, seed):
        rng = random.Random(seed)
        tree = RootedTree.from_parents(random_parent_map(rng, 40))
        assert sorted(tree.pre) == list(range(len(tree)))
        for v in range(len(tree)):
            subtree = tree.subtree(v)
            walked = walk_subtree(tree, v)
            assert subtree[0] == v
            assert set(subtree) == walked and len(subtree) == len(walked)
            for u in range(len(tree)):
                inside = tree.tin[v] <= tree.tin[u] < tree.tout[v]
                assert inside == (u in subtree)
            assert "0" not in subtree and -1 not in subtree
            assert frozenset(range(len(tree))) - set(subtree) == \
                frozenset(range(len(tree))) - walked

    def test_requires_parents_first(self):
        with pytest.raises(ValueError, match="after their parents"):
            RootedTree([-1, 2, 0])
        with pytest.raises(ValueError, match="after their parents"):
            RootedTree([0])
        with pytest.raises(ValueError, match="after their parents"):
            RootedTree([])
