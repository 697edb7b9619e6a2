"""Rooted trees with integer vertices.

The approximation tree, the T-labelling tree and the Bass-Serre ball are
all a RootedTree.  String names such as "t.0.2" serve only input and
output, and `from_parents` is the one place that reads their structure.
"""


class RootedTree:
    """A rooted tree on vertices 0..n-1, the root 0, each after its parent.

    parent[v] is -1 at the root; depth[v] is the length of v's parent
    chain; children[v] lists v's children in id order.  pre is the
    depth-first order, and v's subtree is the slice pre[tin[v]:tout[v]].
    names[v] is v's name (None without names) and index maps names back
    to ids.
    """

    def __init__(self, parent, names=None):
        n = len(parent)
        if not n or parent[0] != -1 or any(not 0 <= parent[v] < v
                                           for v in range(1, n)):
            raise ValueError("tree vertices must come after their parents, "
                             "with the root first")
        self.parent = tuple(parent)
        depth = [0] * n
        children = [[] for _ in range(n)]
        for v in range(1, n):
            depth[v] = depth[parent[v]] + 1
            children[parent[v]].append(v)
        self.depth, self.children = tuple(depth), tuple(map(tuple, children))
        size = [1] * n
        for v in range(n - 1, 0, -1):
            size[parent[v]] += size[v]
        self.tin = [0] * n
        for v in range(n):  # children are placed after v, in order
            at = self.tin[v] + 1
            for c in children[v]:
                self.tin[c], at = at, at + size[c]
        self.tout = [t + s for t, s in zip(self.tin, size)]
        self.pre = [0] * n
        for v, t in enumerate(self.tin):
            self.pre[t] = v
        self.names = None if names is None else tuple(names)
        self.index = {name: v for v, name in enumerate(self.names or ())}

    @classmethod
    def from_parents(cls, parent_of):
        """Build from a name -> parent-name map, the root mapping to None.

        Ids are breadth first.  Siblings are ordered by their dot-separated
        name parts, digit parts compared as integers ("t.2" before "t.10").
        A map without exactly one root, with a parent that is not one of
        its names, or with a cycle is refused with ValueError.
        """
        roots = [v for v, p in parent_of.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"tree needs exactly one root, found "
                             f"{len(roots)}: {sorted(map(str, roots))}")
        kids = {v: [] for v in parent_of}
        for v, p in parent_of.items():
            if p is None:
                continue
            if not isinstance(p, str) or p not in kids:
                raise ValueError(f"tree vertex {v!r} has a dangling parent {p!r}")
            kids[p].append(v)
        order = roots
        for v in order:  # grows while it is read: breadth first
            order.extend(sorted(kids[v], key=_name_key))
        if len(order) != len(parent_of):
            stuck = sorted(set(parent_of) - set(order), key=_name_key)
            raise ValueError(f"tree has a cycle: {stuck} never reach the root")
        index = {v: i for i, v in enumerate(order)}
        return cls([-1] + [index[parent_of[v]] for v in order[1:]], order)

    def __len__(self) -> int:
        return len(self.parent)

    def parent_names(self) -> dict:
        """The name -> parent-name map, the root mapping to None."""
        return {name: None if p < 0 else self.names[p]
                for name, p in zip(self.names, self.parent)}

    def subtree(self, v):
        """v and its descendants, in pre-order: pre[tin[v]:tout[v]]."""
        return self.pre[self.tin[v]:self.tout[v]]

    def levels(self):
        """Vertex ids grouped by depth, each level in id order."""
        out = [[] for _ in range(max(self.depth) + 1)]
        for v, d in enumerate(self.depth):
            out[d].append(v)
        return out


def _name_key(name):
    return tuple((0, int(part), "") if part.isdecimal() else (1, 0, part)
                 for part in str(name).split("."))
