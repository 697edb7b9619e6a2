"""Loads certified by rebuilding the approximation instead of the triangle scan.

Every certified load must give the matrix the full parse and scan give, and
pass the per-k triangle oracle; a recipe or matrix that does not match falls
back to the full check, which still refuses what is not a metric.
"""

import json
import re

import numpy as np
import pytest

from denseamalgam import approx as approx_mod
from denseamalgam import metric as metric_mod
from denseamalgam.approx import (
    build_approx,
    load_bundle,
    rebuild_space,
    recipe_of,
    save_bundle,
)
from denseamalgam.characterize import (
    RegularStructure,
    as_regular_structure,
    load_structure,
    merge_families,
    save_structure,
)
from denseamalgam.metric import (
    TRIANGLE_SLACK,
    FiniteMetricSpace,
    read_matrix_csv,
    write_matrix_csv,
)
from test_metric import triangle_oracle


def circle(names):
    n = len(names)
    return FiniteMetricSpace(
        names, [[min(abs(i - j), n - abs(i - j)) for j in range(n)]
                for i in range(n)])


SOURCES = {
    "two": circle(["a0", "a1"]),
    "two_b": circle(["b0", "b1"]),
    "circle5": circle([f"c{i}" for i in range(5)]),
    "circle9": circle([f"d{i}" for i in range(9)]),
}
# the 72 approximation-chain configurations of the benchmark sweep, the
# two-class ones that `regular check` fails included
SWEEP = [(parts, depth, branching)
         for parts in (("two",), ("circle5",), ("circle9",), ("two", "two_b"),
                       ("circle5", "two"), ("two", "circle5"))
         for depth in range(4) for branching in (1, 2, 3)]


def sweep_id(config):
    parts, depth, branching = config
    return f"{'+'.join(parts)}-d{depth}-b{branching}"


@pytest.fixture
def scan_sizes(monkeypatch):
    """The size of every matrix the triangle scan sees."""
    sizes = []
    scan = metric_mod.max_triangle_violation

    def spy(dist):
        sizes.append(len(dist))
        return scan(dist)
    monkeypatch.setattr(metric_mod, "max_triangle_violation", spy)
    return sizes


def bundle_files(tmp_path, a):
    paths = tmp_path / "m.csv", tmp_path / "m.json"
    save_bundle(a, *paths)
    return paths


def edit_sidecar(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def metric_with_one_entry_moved(x, factor):
    """x's matrix with one distance d(i, j) = d(j, i) moved: to the middle of
    the range the triangle inequality allows when factor is None, else
    to factor times the largest allowed value."""
    d = np.array(x.dist)
    n = len(d)
    for i in range(n):
        for j in range(i + 1, n):
            others = [k for k in range(n) if k not in (i, j)]
            lo = max(abs(d[i, k] - d[j, k]) for k in others)
            hi = min(d[i, k] + d[k, j] for k in others)
            if hi - lo > 1e-3 * hi and (factor is not None
                                        or abs(d[i, j] - (lo + hi) / 2) > 1e-6):
                d[i, j] = d[j, i] = (lo + hi) / 2 if factor is None else factor * hi
                return FiniteMetricSpace(x.points, d, _check=factor is None)
    raise AssertionError("no distance can move")


class TestReadWithExpected:
    def test_matching_text_returns_the_expected_space(self, tmp_path,
                                                      scan_sizes):
        x = circle(["p", "q", "r", "s"])
        write_matrix_csv(x, tmp_path / "m.csv")
        built = FiniteMetricSpace(x.points, x.dist, _check=False)
        scan_sizes.clear()
        seen = []
        got = read_matrix_csv(tmp_path / "m.csv",
                              lambda n: seen.append(n) or built)
        assert got is built and got.validation == "rebuild"
        assert seen == [4] and scan_sizes == []
        assert metric_mod.matrix_csv_text(x).encode() \
            == (tmp_path / "m.csv").read_bytes()

    @pytest.mark.parametrize("other", [
        lambda x: None,
        lambda x: FiniteMetricSpace(x.points, 2 * x.dist, _check=False),
        lambda x: FiniteMetricSpace(["p", "q", "r", "t"], x.dist, _check=False),
    ], ids=["none", "other-distances", "other-names"])
    def test_anything_else_is_scanned(self, tmp_path, other):
        x = circle(["p", "q", "r", "s"])
        write_matrix_csv(x, tmp_path / "m.csv")
        got = read_matrix_csv(tmp_path / "m.csv", lambda n: other(x))
        assert got == x and got.validation == "scan"

    @pytest.mark.parametrize("edit, validation", [
        (lambda b: b, "rebuild"),
        (lambda b: b[:-2], "scan"),  # the last row's line end dropped
        (lambda b: b[:-5] + b"0.00\r\n", "scan"),  # same value, other text
        (lambda b: b + b"\r\n", None),  # an empty row after the table
    ], ids=["same", "short", "other-text", "longer"])
    def test_every_block_is_compared(self, tmp_path, monkeypatch, edit,
                                     validation):
        # one row per block, so the edits fall in the last block
        monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", 4)
        x = circle(["p", "q", "r", "s"])
        write_matrix_csv(x, tmp_path / "m.csv")
        data = (tmp_path / "m.csv").read_bytes()
        assert data.endswith(b",0.0\r\n")
        (tmp_path / "m.csv").write_bytes(edit(data))
        built = FiniteMetricSpace(x.points, x.dist, _check=False)
        if validation is None:
            with pytest.raises(ValueError, match="row count"):
                read_matrix_csv(tmp_path / "m.csv", lambda n: built)
            return
        got = read_matrix_csv(tmp_path / "m.csv", lambda n: built)
        assert got == x and got.validation == validation

    def test_csv_errors_are_unchanged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",a,b\na,0,1\nb,x,0\n")
        with pytest.raises(ValueError, match="could not convert"):
            read_matrix_csv(path, lambda n: None)
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_matrix_csv(path, lambda n: pytest.fail("header is malformed"))


class TestRebuild:
    @pytest.mark.parametrize("config", [
        ([SOURCES["two"]], 0, 1, 1 / 3),
        ([SOURCES["circle5"], SOURCES["two"]], 2, 3, 0.25),
        ([circle(["x", "y", "z"])], 4, 2, 0.5),
    ], ids=["tiny", "two-class", "deep"])
    def test_rebuild_is_the_build(self, config):
        a = build_approx(*config)
        again = rebuild_space(recipe_of(a), len(a.space))
        assert again.points == a.space.points
        assert again.dist.tobytes() == a.space.dist.tobytes()
        assert rebuild_space(recipe_of(a), len(a.space) + 1) is None

    def test_forged_depth_builds_nothing(self, tmp_path, monkeypatch):
        a = build_approx([SOURCES["two"]], 2, 2, 1 / 3)
        matrix, side = bundle_files(tmp_path, a)
        edit_sidecar(side, lambda doc: doc.update(depth=40))

        def refuse(*args):
            raise AssertionError("a forged recipe was built")
        monkeypatch.setattr(approx_mod, "_glued_matrix", refuse)
        b = load_bundle(matrix, side)
        assert b.space.validation == "scan" and b.space == a.space

    def test_header_longer_than_the_file_builds_nothing(self, tmp_path,
                                                         monkeypatch):
        a = build_approx([SOURCES["circle5"]], 2, 3, 1 / 3)
        matrix, side = bundle_files(tmp_path, a)
        matrix.write_text("," + ",".join(a.space.points) + "\n")
        monkeypatch.setattr(approx_mod, "_glued_matrix", lambda *args: pytest.fail(
            "a header without rows was rebuilt"))
        with pytest.raises(ValueError, match="row count"):
            load_bundle(matrix, side)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(scale=0.25),
        lambda doc: doc.update(scale=0.75),
        lambda doc: doc.update(branching=True),
        lambda doc: doc["source_spaces"][0].update(dist=[[0, 2], [2, 0]]),
    ], ids=["other-scale", "scale-out-of-range", "bool-branching",
            "other-source"])
    def test_wrong_recipe_falls_back_to_the_scan(self, tmp_path, edit):
        a = build_approx([SOURCES["two"]], 2, 2, 1 / 3)
        matrix, side = bundle_files(tmp_path, a)
        edit_sidecar(side, edit)
        b = load_bundle(matrix, side)
        assert b.space.validation == "scan" and b.space == a.space

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(depth="2"), "got depth = '2'"),
        (lambda doc: doc.update(branching=[2]), "got branching = [2]"),
        (lambda doc: doc.update(scale="x"), "got scale = 'x'"),
    ], ids=["text-depth", "list-branching", "text-scale"])
    def test_recipe_of_the_wrong_type_is_refused(self, tmp_path, edit,
                                                 message):
        a = build_approx([SOURCES["two"]], 2, 2, 1 / 3)
        matrix, side = bundle_files(tmp_path, a)
        edit_sidecar(side, edit)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_bundle(matrix, side)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["approximation"].update(scale=0.2),
        lambda doc: doc["approximation"]["source_spaces"][0].update(
            points=["a|0", "a1"]),
        lambda doc: doc["approximation"]["source_spaces"][0].update(
            dist=[[0, 1], [1, 1]]),
        lambda doc: doc["approximation"].pop("depth"),
        lambda doc: doc.update(approximation=[1, 2]),
    ], ids=["other-scale", "bar-in-name", "bad-source", "no-depth", "list"])
    def test_wrong_structure_recipe_falls_back(self, tmp_path, edit):
        s = as_regular_structure(build_approx([SOURCES["two"]], 2, 2, 1 / 3))
        matrix, side = tmp_path / "s.csv", tmp_path / "s.json"
        save_structure(s, matrix, side)
        edit_sidecar(side, edit)
        back = load_structure(matrix, side)
        assert back.space.validation == "scan" and back.space == s.space
        assert back.approximation is None

    def test_moved_entry_that_keeps_a_metric_is_scanned(self, tmp_path):
        a = build_approx([SOURCES["circle5"]], 1, 2, 1 / 3)
        moved = metric_with_one_entry_moved(a.space, None)
        matrix, side = bundle_files(tmp_path, a)
        write_matrix_csv(moved, matrix)
        b = load_bundle(matrix, side)
        assert b.space.validation == "scan"
        assert np.array_equal(b.space.dist, moved.dist)
        s = as_regular_structure(a)
        save_structure(s, tmp_path / "s.csv", tmp_path / "s.json")
        write_matrix_csv(moved, tmp_path / "s.csv")
        back = load_structure(tmp_path / "s.csv", tmp_path / "s.json")
        assert back.space.validation == "scan" and back.space == moved

    def test_moved_entry_that_breaks_a_triangle_is_refused(self, tmp_path):
        a = build_approx([SOURCES["circle5"]], 1, 2, 1 / 3)
        broken = metric_with_one_entry_moved(a.space, 1.5)
        matrix, side = bundle_files(tmp_path, a)
        write_matrix_csv(broken, matrix)
        with pytest.raises(ValueError, match="triangle inequality violated by"):
            load_bundle(matrix, side)
        s = as_regular_structure(a)
        save_structure(s, tmp_path / "s.csv", tmp_path / "s.json")
        write_matrix_csv(broken, tmp_path / "s.csv")
        with pytest.raises(ValueError, match="triangle inequality violated by"):
            load_structure(tmp_path / "s.csv", tmp_path / "s.json")

    def test_source_at_the_edge_of_the_slack_is_scanned(self, tmp_path):
        # the source violates a triangle by just under its slack and the
        # build is barely wider than the source, so the rounding budget of
        # the rebuild does not fit under the build's slack
        edge = FiniteMetricSpace(["x", "y", "z"], [[0, 1, 2 + 1.998e-12],
                                                   [1, 0, 1],
                                                   [2 + 1.998e-12, 1, 0]])
        a = build_approx([edge], 0, 60, 1 / 3)
        assert rebuild_space(recipe_of(a), len(a.space)) is None
        b = load_bundle(*bundle_files(tmp_path, a))
        assert b.space.validation == "scan" and b.space == a.space

    def test_matrix_errors_come_before_sidecar_errors(self, tmp_path):
        a = build_approx([SOURCES["two"]], 1, 1, 1 / 3)
        matrix, side = bundle_files(tmp_path, a)
        side.write_text("{")
        with pytest.raises(json.JSONDecodeError):
            load_bundle(matrix, side)
        matrix.write_text(",a\n\n")
        with pytest.raises(ValueError, match="row label"):
            load_bundle(matrix, side)
        with pytest.raises(ValueError, match="row label"):
            load_structure(matrix, side)


@pytest.mark.parametrize("config", SWEEP, ids=map(sweep_id, SWEEP))
def test_certified_loads_match_the_full_check(tmp_path, scan_sizes, config):
    parts, depth, branching = config
    sources = [SOURCES[p] for p in parts]
    a = build_approx(sources, depth, branching, 1 / 3)
    matrix, side = bundle_files(tmp_path, a)
    largest_source = max(len(x) for x in sources)

    scan_sizes.clear()
    b = load_bundle(matrix, side)
    assert b.space.validation == "rebuild"
    assert max(scan_sizes) <= largest_source
    full = read_matrix_csv(matrix)
    assert full.validation == "scan"
    assert b.space.points == full.points
    assert np.array_equal(b.space.dist, full.dist)
    assert triangle_oracle(b.space.dist) <= TRIANGLE_SLACK * max(1.0, b.space.diam())

    s = as_regular_structure(b)
    smatrix, sside = tmp_path / "s.csv", tmp_path / "s.json"
    save_structure(s, smatrix, sside)
    scan_sizes.clear()
    back = load_structure(smatrix, sside)
    assert back.space.validation == "rebuild"
    assert max(scan_sizes) <= largest_source
    assert np.array_equal(back.space.dist, full.dist)
    assert back.subsets == s.subsets and back.approximation == recipe_of(a)
    if len(parts) > 1:
        merged = merge_families(back).structure
        save_structure(merged, smatrix, sside)
        again = load_structure(smatrix, sside)
        assert again.space.validation == "rebuild"
        assert again.subsets == merged.subsets


def test_generic_structure_sidecar_is_unchanged(tmp_path):
    x = circle(["p", "q", "r"])
    s = RegularStructure(x, [(("p",), 1), (("q", "r"), 2)])
    save_structure(s, tmp_path / "s.csv", tmp_path / "s.json")
    assert (tmp_path / "s.json").read_bytes() == (
        b'{\n  "classes": [\n    1,\n    2\n  ],\n  "kind": "regular-structure",'
        b'\n  "subsets": [\n    [\n      "p"\n    ],\n    [\n      "q",\n      "r"'
        b'\n    ]\n  ]\n}\n')
    back = load_structure(tmp_path / "s.csv", tmp_path / "s.json")
    assert back.space.validation == "scan" and back.approximation is None
