"""Exit codes, golden outputs, reports, and byte determinism of the CLI."""

import json
import os
import subprocess
import sys

import pytest

import denseamalgam
from denseamalgam import approx as approx_mod
from denseamalgam import characterize as char_mod
from denseamalgam import cli as cli_mod
from denseamalgam import graphs_of_groups as gog_mod
from denseamalgam.cli import main, render_report
from denseamalgam.graphs_of_groups import from_json as gog_from_json
from denseamalgam.metric import FiniteMetricSpace
from denseamalgam.simplicial import SimplicialComplex

SRC = os.path.dirname(os.path.dirname(denseamalgam.__file__))

D_INFTY = '{"generators": ["s", "t"], "m": [[1, "inf"], ["inf", 1]]}'
KLEIN_FOUR = '{"generators": ["a", "b"], "m": [[1, 2], [2, 1]]}'
SQUARE = ('{"generators": ["a", "b", "c", "d"], "m": '
          '[[1, 2, "inf", 2], [2, 1, 2, "inf"], '
          '["inf", 2, 1, 2], [2, "inf", 2, 1]]}')
GOG_23 = ('{"vertices": {"u": {"order": 2}, "v": {"order": 3}}, '
          '"edges": [{"ends": ["u", "v"], "edge_order": 1}]}')
GOG_D_INFTY = ('{"vertices": {"p": {"order": 2}, "q": {"order": 2}}, '
               '"edges": [{"ends": ["p", "q"], "edge_order": 1}]}')
# a line of u and w with a finite hair w-h1-h2 at every w node
GOG_HAIR = json.dumps({
    "vertices": {v: {"order": 2} for v in ("u", "w", "h1", "h2")},
    "edges": [{"ends": ["u", "w"], "edge_order": 1},
              {"ends": ["w", "h1"], "edge_order": 2},
              {"ends": ["h1", "h2"], "edge_order": 2}]})
TWO_SPACE = '{"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}'
TWO_SPACE_B = '{"points": ["u", "v"], "dist": [[0, 1], [1, 0]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def build_bundle(tmp_path, sources, depth, branching, scale, stem="bundle"):
    paths = [write(tmp_path, f"{stem}_src{i}.json", s)
             for i, s in enumerate(sources)]
    matrix = str(tmp_path / f"{stem}.csv")
    meta = str(tmp_path / f"{stem}.json")
    code = main(["approx", "build", "--spaces", *paths,
                 "--depth", str(depth), "--branching", str(branching),
                 "--scale", str(scale),
                 "--out-matrix", matrix, "--out-meta", meta])
    assert code == 0
    return matrix, meta


def build_structure_files(tmp_path, sources, depth, branching, scale,
                          stem="rs"):
    matrix, meta = build_bundle(tmp_path, sources, depth, branching, scale,
                                stem=stem + "_ax")
    a = approx_mod.load_bundle(matrix, meta)
    s = char_mod.as_regular_structure(a)
    smatrix = str(tmp_path / f"{stem}.csv")
    smeta = str(tmp_path / f"{stem}.json")
    char_mod.save_structure(s, smatrix, smeta)
    return smatrix, smeta


class TestGoldens:
    def test_coxeter_boundary_point_pair(self, tmp_path, capsys):
        path = write(tmp_path, "d_infty.json", D_INFTY)
        code, out = run(capsys, "coxeter", "boundary", path)
        assert code == 0
        assert out == "PointPair\n"

    def test_amalgam_normalize_cantor(self, capsys):
        code, out = run(capsys, "amalgam", "normalize", "Amalgam(Empty)")
        assert code == 0
        assert out == "Cantor\n"

    def test_klein_four_boundary_empty(self, tmp_path, capsys):
        path = write(tmp_path, "k4.json", KLEIN_FOUR)
        code, out = run(capsys, "coxeter", "boundary", path)
        assert code == 0
        assert out == "Empty\n"

    def test_classify_tags(self, tmp_path, capsys):
        for doc, expected in ((D_INFTY, "two_ended\n"),
                              (KLEIN_FOUR, "finite\n"),
                              (SQUARE, "one_ended\n")):
            path = write(tmp_path, "c.json", doc)
            code, out = run(capsys, "coxeter", "classify", path)
            assert code == 0
            assert out == expected

    def test_gog_ball_biregular_sizes(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "ball", path, "--radius", "6",
                        "--base", "u")
        assert code == 0
        assert "ball sizes by radius: 1 3 7 11 19 27 43" in out

    def test_gog_check_z2_z3(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "check", path, "--radius", "6",
                        "--base", "u")
        assert code == 0
        assert out == ("base: u\nball size: 43\nedge separation: pass\n"
                       "three-way split: pass\nnon-elementary: true\n")

    @pytest.mark.parametrize("radius", range(13))
    def test_gog_check_hair_fails_three_way(self, tmp_path, capsys, radius):
        # w has degree 3, but its hair is finite: no vertex splits the
        # tree into three infinite pieces, at any radius
        path = write(tmp_path, "hair.json", GOG_HAIR)
        code, out = run(capsys, "gog", "check", path, "--radius", str(radius),
                        "--base", "u")
        assert code == 1
        assert out.splitlines()[2:] == ["edge separation: fail",
                                        "three-way split: fail",
                                        "non-elementary: false"]

    def test_gog_check_builds_no_ball(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("no ball may be built")
        monkeypatch.setattr(gog_mod, "bass_serre_ball", refuse)
        path = write(tmp_path, "gog.json", GOG_23)
        report_path = tmp_path / "rep.json"
        code, out = run(capsys, "gog", "check", path, "--radius", "12",
                        "--base", "u", "--report", str(report_path))
        assert code == 0
        # 1 + 2 + 4 + 4 + ... + 64 + 64 + 128 nodes
        assert out.splitlines()[1:3] == ["ball size: 379",
                                         "edge separation: pass"]
        assert json.loads(report_path.read_text())["separation"] == {
            "edge_overall": "pass", "edge_witness": None,
            "three_way": "pass", "three_way_vertices": ["v"]}

    def test_gog_check_witness_in_report(self, tmp_path, capsys):
        path = write(tmp_path, "hair.json", GOG_HAIR)
        report_path = tmp_path / "rep.json"
        code, _ = run(capsys, "gog", "check", path, "--radius", "3",
                      "--report", str(report_path))
        assert code == 1
        assert json.loads(report_path.read_text())["separation"] == {
            "edge_overall": "fail",
            "edge_witness": {"edge": 1, "from": "w", "to": "h1",
                             "missing": ["u", "w"]},
            "three_way": "fail", "three_way_vertices": []}

    def test_gog_boundary_cantor(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "boundary", path)
        assert code == 0
        assert out == "Cantor\n"


class TestInputErrors:
    def test_malformed_json_exits_2_with_error_object(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{broken")
        code, out = run(capsys, "coxeter", "boundary", path)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "CoxeterParseError"
        assert "invalid JSON" in payload["error"]["message"]
        assert payload["config"]["subcommand"] == "coxeter boundary"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, out = run(capsys, "coxeter", "boundary",
                        str(tmp_path / "absent.json"))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "FileNotFoundError"

    def test_unknown_subcommand_exits_2(self, capsys):
        code, out = run(capsys, "coxeter", "frobnicate", "x.json")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UsageError"

    def test_missing_action_exits_2(self, capsys):
        code, out = run(capsys, "coxeter")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UsageError"

    def test_no_arguments_exits_2(self, capsys):
        code, out = run(capsys)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UsageError"

    def test_unknown_base_vertex_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "ball", path, "--radius", "2",
                        "--base", "w")
        assert code == 2
        assert "not in the graph" in json.loads(out)["error"]["message"]

    def test_cap_vertices_exceeded_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "ball", path, "--radius", "6",
                        "--cap-vertices", "10")
        assert code == 2
        assert "exceeding" in json.loads(out)["error"]["message"]

    def test_gog_check_cap_counts_without_a_ball(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(gog_mod, "bass_serre_ball", None)
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "check", path, "--radius", "6",
                        "--cap-vertices", "42")
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            "ball has 43 vertices, exceeding --cap-vertices 42")
        code, _ = run(capsys, "gog", "check", path, "--radius", "6",
                      "--cap-vertices", "43")
        assert code == 0

    def test_negative_radius_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "ball", path, "--radius", "-1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("argv, text, error", [
        (["gog", "boundary"], '{"vertices": {"u": {"order": 2}, "v": '
         '{"order": 3}}, "edges": [{"ends": [["u"], "v"], "edge_order": 1}]}',
         "GogParseError"),
        (["gog", "boundary"], '{"vertices": {"u": {"order": 2, "boundary": '
         '5}, "v": {"order": 3}}, "edges": [{"ends": ["u", "v"], '
         '"edge_order": 1}]}', "GogParseError"),
        (["nerve", "decompose"], '{"vertices": ["a", "b"], '
         '"maximal_faces": [[["a"]], ["b"]]}', "ValueError"),
    ], ids=["gog-list-end", "gog-number-boundary", "nerve-list-entry"])
    def test_mistyped_entry_exits_2(self, tmp_path, capsys, argv, text,
                                    error):
        code, out = run(capsys, *argv, write(tmp_path, "doc.json", text))
        assert code == 2
        assert json.loads(out)["error"]["type"] == error

    def test_space_with_an_object_distance_exits_2(self, tmp_path, capsys):
        src = write(tmp_path, "bad.json", '{"points": ["a", "b"], '
                    '"dist": [[0, {"d": 1}], [1, 0]]}')
        code, out = run(capsys, "approx", "build", "--spaces", src,
                        "--depth", "1", "--branching", "2", "--scale", "0.3")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert "entry [0][1] {'d': 1} is not a number" in error["message"]

    def test_matrix_with_a_stray_quote_exits_2(self, tmp_path, capsys):
        # the quote opens a field that runs past csv's field size limit
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 4, 3, 1 / 3)
        capsys.readouterr()
        with open(matrix) as fh:
            header, first, rest = fh.read().split("\n", 2)
        with open(matrix, "w", newline="") as fh:
            fh.write("\n".join([header, first.replace(",", ',"', 1), rest]))
        assert os.path.getsize(matrix) > 131072
        code, out = run(capsys, "approx", "check", matrix, meta)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert "unreadable matrix CSV: field larger than field limit" \
            in error["message"]

    def test_expression_nesting_is_capped(self, capsys):
        limit = denseamalgam.boundary.MAX_NESTING
        deep = "Amalgam(" * limit + "Empty" + ")" * limit
        assert run(capsys, "amalgam", "normalize", deep) == (0, "Cantor\n")
        code, out = run(capsys, "amalgam", "normalize",
                        "Amalgam(" + deep + ")")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ExprSyntaxError"
        assert f"nested deeper than {limit} levels" in error["message"]

    @pytest.mark.parametrize("argv", [["coxeter", "classify"],
                                      ["gog", "boundary"]])
    def test_json_nesting_is_capped(self, tmp_path, capsys, argv):
        depth = 100_000
        path = write(tmp_path, "deep.json", '{"generators": ' + "[" * depth
                     + "]" * depth + "}")
        code, out = run(capsys, *argv, path)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert "JSON nested too deeply" in error["message"]
        assert f"recursion limit of {sys.getrecursionlimit()}" in \
            error["message"]

    @pytest.mark.parametrize("argv", [["approx", "check"],
                                      ["regular", "check"],
                                      ["label", "verify"]])
    def test_sidecar_that_is_not_json_exits_2(self, tmp_path, capsys, argv):
        build = build_bundle if argv[0] == "approx" else build_structure_files
        matrix, _ = build(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
        capsys.readouterr()
        side = write(tmp_path, "bad.json", "{")
        code, out = run(capsys, *argv, matrix, side,
                        *([side] if argv[0] == "label" else []))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith("invalid JSON: ")

    def test_bad_scale_is_input_error(self, tmp_path, capsys):
        src = write(tmp_path, "two.json", TWO_SPACE)
        code, out = run(capsys, "approx", "build", "--spaces", src,
                        "--depth", "1", "--branching", "2", "--scale", "1.0")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"


class TestMalformedTrees:
    """Tree maps that are not trees, and sidecars with missing fields, are
    input errors: exit 2 with the JSON error object, never a traceback or
    a hang."""

    @pytest.mark.parametrize("tamper, message", [
        (lambda tree: tree.update({"t.1": "t.9"}), "dangling parent"),
        (lambda tree: tree.update({"t.0": "t.1", "t.1": "t.0"}), "cycle"),
        (lambda tree: tree.update({"t.0": None}), "exactly one root"),
    ], ids=["dangling", "cycle", "two-roots"])
    def test_approx_check_refuses_bad_tree(self, tmp_path, capsys, tamper,
                                           message):
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
        capsys.readouterr()
        doc = json.loads((tmp_path / "bundle.json").read_text())
        tamper(doc["tree"])
        write(tmp_path, "bundle.json", json.dumps(doc))
        code, out = run(capsys, "approx", "check", matrix, meta)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert message in error["message"]

    @pytest.mark.parametrize("field", ["labels", "tree", "source_spaces",
                                       "ends", "depth", "branching", "scale",
                                       "r0", "mu"])
    def test_approx_check_refuses_missing_field(self, tmp_path, capsys, field):
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
        capsys.readouterr()
        doc = json.loads((tmp_path / "bundle.json").read_text())
        del doc[field]
        write(tmp_path, "bundle.json", json.dumps(doc))
        code, out = run(capsys, "approx", "check", matrix, meta)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert f"lacks field '{field}'" in error["message"]

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: [doc], "not an amalgam-approx bundle"),
        (lambda doc: doc["labels"]["t|0|a"].pop("kind"),
         "has no kind 'copy' or 'end'"),
        (lambda doc: doc["labels"]["t|0|a"].pop("source_point"),
         "lacks field 'source_point'"),
        (lambda doc: doc["source_spaces"].clear(), "no source spaces"),
        (lambda doc: doc["labels"]["t|0|a"].update({"class": 3}),
         "names no point"),
        (lambda doc: doc.update({"tree": 5}), "tree and ends must be objects"),
        (lambda doc: doc.update({"ends": [1]}),
         "tree and ends must be objects"),
        (lambda doc: doc.update({"source_spaces": 5}),
         "source_spaces must list spaces"),
        (lambda doc: doc.update({"r0": "1"}), "r0 and mu must be numbers"),
        (lambda doc: doc.update({"ends": {"t.0": 5}}),
         "ends entry 't.0': 5 is no point labelled as an end"),
        (lambda doc: doc["ends"].update({"t.1": "nope"}),
         "ends entry 't.1': 'nope' is no point labelled as an end"),
        (lambda doc: doc["ends"].update({"t.1": "t|0|a"}),
         "ends entry 't.1': 't|0|a' is no point labelled as an end"),
        (lambda doc: doc["labels"]["t|0|a"].update({"kind": ["copy"]}),
         "has no kind 'copy' or 'end'"),
        (lambda doc: doc["labels"]["end|t.0"].update({"leaf": ["t.0"]}),
         "field 'leaf' must be a name or number"),
        (lambda doc: doc["labels"]["t|0|a"].update({"class": -0.0}),
         "field 'class' must be an integer, got -0.0"),
        (lambda doc: doc["labels"]["t|0|a"].update({"class": 1.0}),
         "field 'class' must be an integer, got 1.0"),
        (lambda doc: doc["labels"]["t|0|a"].update({"class": True}),
         "field 'class' must be an integer, got True"),
    ], ids=["list", "no-kind", "no-source-point", "no-sources", "bad-class",
            "tree-number", "ends-list", "sources-number", "r0-text",
            "end-number", "end-unknown", "end-copy-point", "kind-list",
            "leaf-list", "class-negative-zero", "class-float", "class-bool"])
    def test_approx_check_refuses_malformed_sidecar(self, tmp_path, capsys,
                                                    tamper, message):
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
        capsys.readouterr()
        doc = json.loads((tmp_path / "bundle.json").read_text())
        replaced = tamper(doc)  # edits doc in place, or wraps it in a list
        if isinstance(replaced, list):
            doc = replaced
        write(tmp_path, "bundle.json", json.dumps(doc))
        code, out = run(capsys, "approx", "check", matrix, meta)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert message in error["message"]

    @pytest.mark.parametrize("field, value", [
        ("depth", 0.0), ("depth", 3), ("scale", 0.0), ("scale", 10 ** 30),
        ("mu", 2), ("r0", 10 ** 400), ("branching", 10 ** 400),
    ], ids=["float-depth", "other-depth", "zero-scale", "huge-scale",
            "mu-above-1", "r0-beyond-float", "branching-beyond-float"])
    def test_approx_check_refuses_unusable_recipe_numbers(self, tmp_path,
                                                          capsys, field,
                                                          value):
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
        capsys.readouterr()
        doc = json.loads((tmp_path / "bundle.json").read_text())
        doc[field] = value
        write(tmp_path, "bundle.json", json.dumps(doc))
        code, out = run(capsys, "approx", "check", matrix, meta)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert "do not fit a tree of depth 1" in error["message"]

    @pytest.mark.parametrize("tamper, message", [
        (lambda parent: parent.update({"r.0": "r.1", "r.1": "r.0"}), "cycle"),
        (lambda parent: parent.update({"r.1": "r.7"}), "dangling parent"),
    ], ids=["cycle", "dangling"])
    def test_label_verify_refuses_bad_tree(self, tmp_path, capsys, tamper,
                                           message):
        matrix, meta = build_structure_files(tmp_path, [TWO_SPACE], 1, 2,
                                             1 / 3)
        lab_path = str(tmp_path / "lab.json")
        code, _ = run(capsys, "label", "build", matrix, meta,
                      "--max-depth", "2", "--out", lab_path)
        assert code == 0
        doc = json.loads((tmp_path / "lab.json").read_text())
        tamper(doc["parent"])
        bad_path = write(tmp_path, "bad.json", json.dumps(doc))
        code, out = run(capsys, "label", "verify", matrix, meta, bad_path)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert message in error["message"]

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: [], "not a regular-structure bundle"),
        (lambda doc: doc["subsets"].__setitem__(0, 5),
         "must be a list of point names"),
        (lambda doc: doc["classes"].__setitem__(0, [1]),
         "classes must be integers"),
    ], ids=["list", "int-subset", "list-class"])
    def test_regular_check_refuses_malformed_sidecar(self, tmp_path, capsys,
                                                     tamper, message):
        matrix, meta = build_structure_files(tmp_path, [TWO_SPACE], 1, 2,
                                             1 / 3)
        capsys.readouterr()
        doc = json.loads((tmp_path / "rs.json").read_text())
        replaced = tamper(doc)  # edits doc in place, or returns a list
        write(tmp_path, "rs.json", json.dumps(
            replaced if isinstance(replaced, list) else doc))
        code, out = run(capsys, "regular", "check", matrix, meta)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert message in error["message"]

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: [], "not a t-labelling"),
        (lambda doc: doc.update({"assignment": [0]}),
         "'assignment' must be an object"),
        (lambda doc: doc.pop("radii"), "lacks field 'radii'"),
        (lambda doc: doc["radii"].update({"r": [1.0]}),
         "malformed t-labelling entry"),
        (lambda doc: doc["partitions"].update({"r.0": "t.0|0|a"}),
         "partition of vertex 'r.0' must be a list of point names"),
        (lambda doc: doc["partitions"].update({"r.0": [1]}),
         "partition of vertex 'r.0' must be a list of point names"),
        (lambda doc: doc["assignment"].update({"r.0": 1.7}),
         "malformed t-labelling entry: assignment of 'r.0' must be a JSON "
         "integer, got 1.7"),
        (lambda doc: doc["radii"].update({"r": "0.5"}),
         "malformed t-labelling entry: radius of 'r' must be a JSON number, "
         "got '0.5'"),
    ], ids=["list", "list-assignment", "no-radii", "list-radius",
            "text-partition", "int-in-partition", "float-assignment",
            "text-radius"])
    def test_label_verify_refuses_malformed_labelling(self, tmp_path, capsys,
                                                      tamper, message):
        matrix, meta = build_structure_files(tmp_path, [TWO_SPACE], 1, 2,
                                             1 / 3)
        lab_path = str(tmp_path / "lab.json")
        code, _ = run(capsys, "label", "build", matrix, meta,
                      "--max-depth", "2", "--out", lab_path)
        assert code == 0
        doc = json.loads((tmp_path / "lab.json").read_text())
        replaced = tamper(doc)
        bad_path = write(tmp_path, "bad.json", json.dumps(
            replaced if isinstance(replaced, list) else doc))
        code, out = run(capsys, "label", "verify", matrix, meta, bad_path)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert message in error["message"]


class TestOperationFailures:
    def test_elementary_gog_boundary_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_D_INFTY)
        code, out = run(capsys, "gog", "boundary", path)
        assert code == 1
        payload = json.loads(out)
        assert "elementary" in payload["error"]["message"]
        assert payload["config"]["inputs"] == [path]

    def test_failing_check_exits_1(self, tmp_path, capsys):
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
        code, out = run(capsys, "approx", "check", matrix, meta,
                        "--tol-boundary", "1e-12")
        assert code == 1
        assert out.rstrip().endswith("overall: fail")

    def test_unencodable_point_name_writes_no_file(self, tmp_path, capsys):
        source = json.dumps({"points": ["a", "b\ud800"],
                             "dist": [[0, 1], [1, 0]]})
        matrix, meta = tmp_path / "m.csv", tmp_path / "m.json"
        code, out = run(capsys, "approx", "build", "--spaces",
                        write(tmp_path, "src.json", source), "--depth", "1",
                        "--branching", "2", "--scale", "0.25",
                        "--out-matrix", str(matrix), "--out-meta", str(meta))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "UnicodeEncodeError"
        assert not matrix.exists() and not meta.exists()

    def test_labelling_gate_failure_exits_1(self, tmp_path, capsys):
        # one subset covering the space leaves (a3) with an infinite gap
        space = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])
        s = char_mod.RegularStructure(space, [(("a", "b"), 1)])
        matrix = str(tmp_path / "cover.csv")
        meta = str(tmp_path / "cover.json")
        char_mod.save_structure(s, matrix, meta)
        code, out = run(capsys, "label", "build", matrix, meta,
                        "--max-depth", "2")
        assert code == 1
        assert "a3" in json.loads(out)["error"]["message"]


class TestPipelines:
    def test_approx_build_and_check_pass(self, tmp_path, capsys):
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 2, 2, 1 / 3)
        capsys.readouterr()
        report_path = str(tmp_path / "report.json")
        code, out = run(capsys, "approx", "check", matrix, meta,
                        "--report", report_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "overall: pass"
        assert [ln.split(":")[0] for ln in lines[:-1]] == \
            ["a1", "a2", "a3", "a4", "a5"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_pass"] is True
        assert report["config"]["seed"] == 0
        assert report["config"]["version"]
        assert set(report["conditions"]) == {"a1", "a2", "a3", "a4", "a5"}

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_large_scale_build_checks_back(self, tmp_path, capsys, scale):
        n = 5
        dist = [[scale * min(abs(i - j), n - abs(i - j)) for j in range(n)]
                for i in range(n)]
        source = json.dumps({"points": [f"c{i}" for i in range(n)],
                             "dist": dist})
        matrix, meta = build_bundle(tmp_path, [source], 3, 3, 1 / 3)
        capsys.readouterr()
        code, out = run(capsys, "approx", "check", matrix, meta)
        assert code == 0
        assert out.rstrip().endswith("overall: pass")

    def test_regular_check_names_offending_subsets(self, tmp_path, capsys):
        matrix, meta = build_structure_files(tmp_path, [TWO_SPACE], 1, 2,
                                             1 / 3)
        capsys.readouterr()
        code, out = run(capsys, "regular", "check", matrix, meta)
        assert code == 0
        assert out.strip().splitlines()[-1] == "overall: pass"
        # a tiny null bound turns every subset into an offender by index
        code, out = run(capsys, "regular", "check", matrix, meta,
                        "--tol-null", "1e-9")
        assert code == 1
        a2_line = next(ln for ln in out.splitlines() if ln.startswith("a2"))
        assert "fail" in a2_line
        assert "above_null=[0, 1, 2]" in a2_line

    def test_regular_merge_round_trip(self, tmp_path, capsys):
        matrix, meta = build_structure_files(
            tmp_path, [TWO_SPACE, TWO_SPACE_B], 0, 2, 1 / 3)
        capsys.readouterr()
        out_matrix = str(tmp_path / "merged.csv")
        out_meta = str(tmp_path / "merged.json")
        code, out = run(capsys, "regular", "merge", matrix, meta,
                        "--out-matrix", out_matrix, "--out-meta", out_meta)
        assert code == 0
        assert "diameter ratio: 3.0" in out
        merged = char_mod.load_structure(out_matrix, out_meta)
        assert merged.k == 1
        assert len(merged) == 1

    def test_label_build_verify_round_trip(self, tmp_path, capsys):
        matrix, meta = build_structure_files(tmp_path, [TWO_SPACE], 2, 2,
                                             1 / 3)
        capsys.readouterr()
        lab_path = str(tmp_path / "lab.json")
        code, out = run(capsys, "label", "build", matrix, meta,
                        "--max-depth", "3", "--out", lab_path)
        assert code == 0
        assert "tree vertices: 7" in out
        code, out = run(capsys, "label", "verify", matrix, meta, lab_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "overall: pass"
        assert [ln.split(":")[0] for ln in lines[:-1]] == \
            ["L1", "L2", "L3", "L4", "L5", "L6"]
        # an impossible separation demand flips L4
        code, out = run(capsys, "label", "verify", matrix, meta, lab_path,
                        "--tol-separation", "1e9")
        assert code == 1

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: doc["assignment"].update({"r.0": 3}), "assignment 3"),
        (lambda doc: doc["assignment"].update({"r.0": -1}), "assignment -1"),
        (lambda doc: doc["partitions"]["r.0"].append("nowhere"),
         "outside the space"),
    ], ids=["index-past-family", "negative-index", "foreign-region-point"])
    def test_label_verify_refuses_foreign_labelling(self, tmp_path, capsys,
                                                    tamper, message):
        matrix, meta = build_structure_files(tmp_path, [TWO_SPACE], 1, 2,
                                             1 / 3)
        lab_path = str(tmp_path / "lab.json")
        code, _ = run(capsys, "label", "build", matrix, meta,
                      "--max-depth", "2", "--out", lab_path)
        assert code == 0
        doc = json.loads((tmp_path / "lab.json").read_text())
        tamper(doc)
        bad_path = write(tmp_path, "bad.json", json.dumps(doc))
        code, out = run(capsys, "label", "verify", matrix, meta, bad_path)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert message in error["message"]

    def test_nerve_decompose_factors(self, tmp_path, capsys):
        c = SimplicialComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"),
                                       ("d", "a")])
        path = write(tmp_path, "complex.json", c.to_json())
        code, out = run(capsys, "nerve", "decompose", path, "--seed", "4")
        assert code == 0
        assert "terminal factors: 1" in out
        assert "  a b c d" in out
        code2, out2 = run(capsys, "nerve", "decompose", path, "--seed", "99")
        assert code2 == 0
        assert out2 == out  # factor set does not depend on the seed

    def test_nerve_decompose_thirteen_petals(self, tmp_path):
        # 13 squares on a common vertex: removing it leaves 13 components
        vertices = ["h"] + [f"{v}{i}" for i in range(13) for v in "xyz"]
        faces = [pair for i in range(13) for pair in (
            ["h", f"x{i}"], [f"x{i}", f"y{i}"], [f"y{i}", f"z{i}"],
            [f"z{i}", "h"])]
        path = write(tmp_path, "petals13.json", json.dumps(
            {"vertices": vertices, "maximal_faces": faces}))
        code = ("import contextlib, io, json, sys\n"
                "from denseamalgam import cli\n"
                "out = io.StringIO()\n"
                "with contextlib.redirect_stdout(out):\n"
                f"    code = cli.main(['nerve', 'decompose', {path!r}])\n"
                "print(json.dumps([code, out.getvalue(),\n"
                "                  'numpy' in sys.modules]))\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        exit_code, out, numpy_loaded = json.loads(done.stdout)
        assert exit_code == 0 and not numpy_loaded
        lines = out.splitlines()
        assert lines[0] == "terminal factors: 13"
        assert sorted(lines[1:14]) == sorted(
            f"  h x{i} y{i} z{i}" for i in range(13))

    def test_gog_reduce_emits_loadable_graph(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "reduce", path, "--seed", "3")
        assert code == 0
        g = gog_from_json(out)
        assert sorted(g.vertex_groups) == ["u", "v"]

    def test_gog_check_summary(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        code, out = run(capsys, "gog", "check", path, "--radius", "4")
        assert code == 0
        assert "edge separation:" in out
        assert "three-way split:" in out
        assert "non-elementary: true" in out

    def test_dot_outputs_written(self, tmp_path, capsys):
        cox_path = write(tmp_path, "sq.json", SQUARE)
        dot_path = tmp_path / "nerve.dot"
        code, _ = run(capsys, "coxeter", "nerve", cox_path,
                      "--dot", str(dot_path))
        assert code == 0
        assert dot_path.read_text().startswith("graph ")
        gog_path = write(tmp_path, "gog.json", GOG_23)
        ball_dot = tmp_path / "ball.dot"
        code, _ = run(capsys, "gog", "ball", gog_path, "--radius", "2",
                      "--dot", str(ball_dot))
        assert code == 0
        assert "--" in ball_dot.read_text()

    def test_coxeter_nerve_runs_the_flag_test_once(self, tmp_path, capsys,
                                                   monkeypatch):
        calls = []
        is_flag = SimplicialComplex.is_flag

        def counted(self):
            calls.append(self)
            return is_flag(self)
        monkeypatch.setattr(SimplicialComplex, "is_flag", counted)
        triangle = json.dumps({"generators": ["a", "b", "c"],
                               "m": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]})
        for text, flag, large in ((SQUARE, "true", "false"),
                                  (triangle, "false", "false"),
                                  (D_INFTY, "true", "true")):
            calls.clear()
            code, out = run(capsys, "coxeter", "nerve",
                            write(tmp_path, "cox.json", text))
            assert code == 0 and len(calls) == 1
            assert out.splitlines()[2:] == [f"flag: {flag}",
                                            f"infinity-large: {large}"]


class TestReports:
    def test_seed_recorded(self, tmp_path, capsys):
        c = SimplicialComplex("ab", [("a", "b")])
        path = write(tmp_path, "c.json", c.to_json())
        report_path = tmp_path / "rep.json"
        code, _ = run(capsys, "nerve", "decompose", path, "--seed", "17",
                      "--report", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["seed"] == 17

    def test_report_embeds_full_config(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", D_INFTY)
        report_path = tmp_path / "rep.json"
        code, _ = run(capsys, "coxeter", "boundary", path,
                      "--report", str(report_path))
        assert code == 0
        config = json.loads(report_path.read_text())["config"]
        for key in ("subcommand", "inputs", "outputs", "params",
                    "tolerances", "caps", "seed", "version"):
            assert key in config

    def test_error_report_written_when_requested(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", "not json")
        report_path = tmp_path / "rep.json"
        code, _ = run(capsys, "coxeter", "classify", bad,
                      "--report", str(report_path))
        assert code == 2
        assert "error" in json.loads(report_path.read_text())

    def test_render_report_empty(self):
        json_text, summary = render_report({})
        assert summary == "no checks requested\n"
        assert json.loads(json_text) == {}

    def test_render_report_condition_lines(self):
        report = {"conditions": {"a2": {"verdict": "fail",
                                        "above_null": [0, 2],
                                        "prefix": 2}},
                  "all_pass": False}
        _, summary = render_report(report)
        assert "a2: fail" in summary
        assert "above_null=[0, 2]" in summary
        assert summary.rstrip().endswith("overall: fail")

    def test_render_report_handles_infinities(self):
        report = {"conditions": {"a3": {"verdict": "fail",
                                        "max_gap": float("inf")}}}
        json_text, summary = render_report(report)
        assert json.loads(json_text)["conditions"]["a3"]["max_gap"] == "inf"
        assert "max_gap=inf" in summary


class TestMatrixValidation:
    """The report names the path that proved the loaded matrix a metric;
    the printed summary is the same either way."""

    def test_check_reports_record_the_path(self, tmp_path, capsys):
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 2, 2, 1 / 3)
        smatrix, smeta = build_structure_files(tmp_path, [TWO_SPACE], 2, 2,
                                               1 / 3)
        capsys.readouterr()
        report = tmp_path / "report.json"
        runs = {}
        for tag in ("rebuild", "scan"):
            for argv in (["approx", "check", matrix, meta],
                         ["regular", "check", smatrix, smeta]):
                code, out = run(capsys, *argv, "--report", str(report))
                assert code == 0
                doc = json.loads(report.read_text())
                assert doc.pop("matrix_validation") == tag
                runs.setdefault(argv[0], []).append((out, doc))
            for path in (matrix, smatrix):  # same matrix, other bytes
                text = open(path, newline="").read()
                with open(path, "w", newline="") as fh:
                    fh.write(text.replace("\r\n", "\n"))
        for (out1, doc1), (out2, doc2) in runs.values():
            assert out1 == out2 and doc1 == doc2


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self, tmp_path, capsys):
        src = write(tmp_path, "two.json", TWO_SPACE)
        snapshots = []
        for _ in range(2):
            matrix = str(tmp_path / "det.csv")
            meta = str(tmp_path / "det.json")
            report = tmp_path / "det_report.json"
            code = main(["approx", "build", "--spaces", src, "--depth", "2",
                         "--branching", "2", "--scale", "0.3333333333333333",
                         "--out-matrix", matrix, "--out-meta", meta,
                         "--report", str(report)])
            assert code == 0
            build_out = capsys.readouterr().out
            code = main(["approx", "check", matrix, meta])
            assert code == 0
            check_out = capsys.readouterr().out
            snapshots.append((build_out, check_out,
                              (tmp_path / "det.csv").read_bytes(),
                              (tmp_path / "det.json").read_bytes(),
                              report.read_bytes()))
        assert snapshots[0] == snapshots[1]

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        # the parser is built once per process, so calls that alternate
        # options must each see only their own arguments
        assert cli_mod._build_parser() is cli_mod._build_parser()
        one = write(tmp_path, "one.json", TWO_SPACE)
        two = write(tmp_path, "two.json", TWO_SPACE_B)
        matrix, meta = build_bundle(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
        capsys.readouterr()
        build = ["approx", "build", "--depth", "1", "--branching", "1",
                 "--scale", "0.5", "--spaces"]
        calls = {
            "tol": ["approx", "check", matrix, meta, "--tol-iso", "0.5"],
            "one-space": build + [one],
            "no-tol": ["approx", "check", matrix, meta],
            "two-spaces": build + [one, two],
        }
        runs = {key: [] for key in calls}
        report = tmp_path / "report.json"
        for _ in range(2):
            for key, argv in calls.items():
                code = main(argv + ["--report", str(report)])
                runs[key].append((code, capsys.readouterr().out,
                                  json.loads(report.read_text())))
        for key, (first, second) in runs.items():
            assert first == second, key
        assert runs["tol"][0][2]["config"]["tolerances"]["iso"] == 0.5
        assert runs["no-tol"][0][2]["config"]["tolerances"]["iso"] is None
        assert runs["one-space"][0][2]["config"]["inputs"] == [one]
        assert runs["one-space"][0][1].startswith("points: 5\n")
        assert runs["two-spaces"][0][2]["config"]["inputs"] == [one, two]
        assert runs["two-spaces"][0][1].startswith("points: 9\n")

    def test_seeded_reduce_is_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "gog.json", GOG_23)
        outs = []
        for _ in range(2):
            code, out = run(capsys, "gog", "reduce", path, "--seed", "11")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_expression_goldens_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", D_INFTY)
        first = run(capsys, "coxeter", "boundary", path)
        second = run(capsys, "coxeter", "boundary", path)
        assert first == second
        norm1 = run(capsys, "amalgam", "normalize", "Amalgam(Empty)")
        norm2 = run(capsys, "amalgam", "normalize", "Amalgam(Empty)")
        assert norm1 == norm2


def leaf_inputs(tmp_path):
    """Small valid inputs for every leaf command, under their bare names."""
    write(tmp_path, "cox.json", SQUARE)
    write(tmp_path, "gog.json", GOG_23)
    write(tmp_path, "complex.json",
          SimplicialComplex("ab", [("a", "b")]).to_json())
    write(tmp_path, "two.json", TWO_SPACE)
    build_bundle(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
    build_structure_files(tmp_path, [TWO_SPACE], 1, 2, 1 / 3)
    build_structure_files(tmp_path, [TWO_SPACE, TWO_SPACE_B], 0, 2, 1 / 3,
                          stem="pair")
    assert main(["label", "build", str(tmp_path / "rs.csv"),
                 str(tmp_path / "rs.json"), "--max-depth", "3",
                 "--out", str(tmp_path / "lab.json")]) == 0


def expected_config(subcommand, inputs=(), outputs=(), params=(),
                    tolerances=(), vertices=None, seed=0):
    return {"subcommand": subcommand, "inputs": list(inputs),
            "outputs": {"report": "report.json", **dict(outputs)},
            "params": dict(params),
            "tolerances": {"boundary_gap": None, "density_gap": None,
                           "separation_gap": None, "iso": None, "null": None,
                           **dict(tolerances)},
            "caps": {"vertices": vertices}, "seed": seed,
            "version": denseamalgam.__version__}


# one case per leaf command: (argv, the config its report must record)
LEAF_CASES = [
    (["coxeter", "classify", "cox.json"],
     expected_config("coxeter classify", ["cox.json"])),
    (["coxeter", "nerve", "cox.json", "--dot", "nerve.dot"],
     expected_config("coxeter nerve", ["cox.json"],
                     outputs={"dot": "nerve.dot"})),
    (["coxeter", "boundary", "cox.json", "--seed", "5"],
     expected_config("coxeter boundary", ["cox.json"], seed=5)),
    (["nerve", "decompose", "complex.json"],
     expected_config("nerve decompose", ["complex.json"])),
    (["gog", "reduce", "gog.json", "--seed", "3"],
     expected_config("gog reduce", ["gog.json"], seed=3)),
    (["gog", "check", "gog.json", "--radius", "2", "--base", "u",
      "--cap-vertices", "100"],
     expected_config("gog check", ["gog.json"],
                     params={"radius": 2, "base": "u"}, vertices=100)),
    (["gog", "ball", "gog.json", "--radius", "3", "--dot", "ball.dot"],
     expected_config("gog ball", ["gog.json"],
                     outputs={"dot": "ball.dot"},
                     params={"radius": 3, "base": None})),
    (["gog", "boundary", "gog.json"],
     expected_config("gog boundary", ["gog.json"])),
    (["amalgam", "normalize", "Amalgam(Empty)"],
     expected_config("amalgam normalize",
                     params={"expression": "Amalgam(Empty)"})),
    (["approx", "build", "--spaces", "two.json", "two.json", "--depth", "1",
      "--branching", "2", "--scale", "0.25", "--out-matrix", "out.csv",
      "--out-meta", "out.json"],
     expected_config("approx build", ["two.json", "two.json"],
                     outputs={"out-matrix": "out.csv",
                              "out-meta": "out.json"},
                     params={"depth": 1, "branching": 2, "scale": 0.25})),
    (["approx", "check", "bundle.csv", "bundle.json", "--tol-iso", "1e-6",
      "--tol-boundary", "5", "--tol-density", "6", "--tol-separation",
      "1e-9"],
     expected_config("approx check", ["bundle.csv", "bundle.json"],
                     tolerances={"iso": 1e-6, "boundary_gap": 5.0,
                                 "density_gap": 6.0,
                                 "separation_gap": 1e-9})),
    (["regular", "check", "rs.csv", "rs.json", "--tol-iso", "1e-6",
      "--tol-null", "10", "--tol-boundary", "5", "--tol-density", "6",
      "--tol-separation", "1e-9"],
     expected_config("regular check", ["rs.csv", "rs.json"],
                     tolerances={"iso": 1e-6, "null": 10.0,
                                 "boundary_gap": 5.0, "density_gap": 6.0,
                                 "separation_gap": 1e-9})),
    (["regular", "merge", "pair.csv", "pair.json", "--out-matrix", "m.csv",
      "--out-meta", "m.json"],
     expected_config("regular merge", ["pair.csv", "pair.json"],
                     outputs={"out-matrix": "m.csv", "out-meta": "m.json"})),
    (["label", "build", "rs.csv", "rs.json", "--max-depth", "3",
      "--out", "lab2.json"],
     expected_config("label build", ["rs.csv", "rs.json"],
                     outputs={"out": "lab2.json"}, params={"max-depth": 3})),
    (["label", "verify", "rs.csv", "rs.json", "lab.json",
      "--tol-separation", "0"],
     expected_config("label verify", ["rs.csv", "rs.json", "lab.json"],
                     tolerances={"separation_gap": 0.0})),
]


class TestDeclarations:
    """Each leaf command records exactly its declared arguments, and takes
    only the tolerance flags its checker reads."""

    @pytest.mark.parametrize("argv, config", LEAF_CASES,
                             ids=[" ".join(c[0][:2]) for c in LEAF_CASES])
    def test_report_records_the_declared_config(self, tmp_path, capsys,
                                                monkeypatch, argv, config):
        leaf_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code, out = run(capsys, *argv, "--report", "report.json")
        assert code == 0, out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"] == config

    @pytest.mark.parametrize("leaf", [c[0][:2] for c in LEAF_CASES],
                             ids=[" ".join(c[0][:2]) for c in LEAF_CASES])
    def test_help(self, capsys, leaf):
        code, out = run(capsys, *leaf, "--help")
        assert code == 0
        assert out.startswith(f"usage: denseamalgam {' '.join(leaf)} ")

    @pytest.mark.parametrize("argv, flag", [
        (["approx", "check", "bundle.csv", "bundle.json"], "--tol-null"),
        (["label", "verify", "rs.csv", "rs.json", "lab.json"], "--tol-iso"),
        (["label", "verify", "rs.csv", "rs.json", "lab.json"], "--tol-null"),
        (["label", "verify", "rs.csv", "rs.json", "lab.json"],
         "--tol-boundary"),
        (["label", "verify", "rs.csv", "rs.json", "lab.json"],
         "--tol-density"),
    ], ids=["approx-check-null", "label-verify-iso", "label-verify-null",
            "label-verify-boundary", "label-verify-density"])
    def test_unread_tolerance_is_refused(self, tmp_path, capsys, monkeypatch,
                                        argv, flag):
        leaf_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code, out = run(capsys, *argv, flag, "1", "--report", "report.json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "UsageError"
        assert flag in error["message"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, prefix", [
        (["label", "verify", "rs.csv", "rs.json", "lab.json"], "--tol"),
        (["approx", "build", "--spaces", "two.json", "--branching", "2",
          "--scale", "0.25", "--out-matrix", "out.csv", "--out-meta",
          "out.json"], "--dep"),
    ], ids=["label-verify-tol", "approx-build-dep"])
    def test_option_prefix_is_refused(self, tmp_path, capsys, monkeypatch,
                                      argv, prefix):
        leaf_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code, out = run(capsys, *argv, prefix, "1", "--report", "report.json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "UsageError"
        assert prefix in error["message"]
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "out.csv").exists()
