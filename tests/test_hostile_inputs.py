"""Hostile inputs: every input format mutated at random, and the inputs
that once allocated without bound.

Each case runs in a child process under an address-space limit, so a
reader that asks for unbounded memory fails with MemoryError, and fails
the test, instead of taking the machine's memory.
"""

import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys

import pytest

import denseamalgam
from denseamalgam.cli import main

SRC = os.path.dirname(os.path.dirname(denseamalgam.__file__))
HERE = os.path.dirname(os.path.abspath(__file__))
LIMIT = 1536 << 20  # bytes of address space for a child

# a child runs `main` with its limit set, so its exit code and stdout are
# the CLI's own
LIMITED_MAIN = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))
from denseamalgam.cli import main
sys.exit(main(sys.argv[1:]))
"""

TWO_SPACE = '{"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}'
SQUARE = {"generators": ["a", "b", "c", "d"],
          "m": [[1, 2, "inf", 2], [2, 1, 2, "inf"], ["inf", 2, 1, 2],
                [2, "inf", 2, 1]]}
GOG = {"vertices": {"u": {"order": 2}, "v": {"order": 3},
                    "w": {"order": "inf", "boundary": "Amalgam(a, b:td)"}},
       "edges": [{"ends": ["u", "v"], "edge_order": 1},
                 {"ends": ["v", "w"], "edge_order": 3}]}
COMPLEX = {"vertices": ["a", "b", "c", "d"],
           "maximal_faces": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}
EXPRESSION = "Amalgam(PointPair, Amalgam(Cantor, a:2pt), Empty, b)"


def child_env():
    # one BLAS thread: its buffers would take much of the limit
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def limited_cli(cwd, *argv):
    return subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv],
                          cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=300)


def quiet_main(*argv):
    """`main`'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def write_inputs(work):
    """Every input format, valid, as files in work: the group documents,
    the two-point space, its bundle (depth 1, branching 2), and the
    bundle's structure and labelling."""
    at = functools.partial(os.path.join, work)
    for name, doc in (("space.json", json.loads(TWO_SPACE)),
                      ("coxeter.json", SQUARE), ("gog.json", GOG),
                      ("complex.json", COMPLEX)):
        with open(at(name), "w") as fh:
            json.dump(doc, fh)
    assert quiet_main("approx", "build", "--spaces", at("space.json"),
                      "--depth", "1", "--branching", "2", "--scale",
                      "0.3333333333333333", "--out-matrix", at("bundle.csv"),
                      "--out-meta", at("bundle.json"))[0] == 0
    s = denseamalgam.as_regular_structure(
        denseamalgam.load_bundle(at("bundle.csv"), at("bundle.json")))
    denseamalgam.save_structure(s, at("structure.csv"), at("structure.json"))
    assert quiet_main("label", "build", at("structure.csv"),
                      at("structure.json"), "--max-depth", "2", "--out",
                      at("labelling.json"))[0] == 0


# ---------------------------------------------------------------------------
# The inputs that asked for unbounded memory.

def tamper(work, name, edit):
    path = os.path.join(work, name)
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.fixture
def inputs(tmp_path):
    write_inputs(str(tmp_path))
    return str(tmp_path)


@pytest.mark.parametrize("edit, argv, code, message", [
    (lambda w: tamper(w, "structure.json",
                      lambda doc: doc["classes"].__setitem__(0, 10 ** 30)),
     ["regular", "check", "structure.csv", "structure.json"], 2,
     "class indices must cover 1..k"),
    (lambda w: tamper(w, "structure.json",
                      lambda doc: doc["classes"].__setitem__(0, 10 ** 30)),
     ["label", "build", "structure.csv", "structure.json", "--max-depth",
      "2"], 2, "class indices must cover 1..k"),
    (lambda w: tamper(w, "bundle.json",
                      lambda doc: doc["labels"]["t|0|a"].update(
                          {"class": -0.0})),
     ["approx", "check", "bundle.csv", "bundle.json"], 2,
     "field 'class' must be an integer, got -0.0"),
    (lambda w: tamper(w, "labelling.json",
                      lambda doc: doc["assignment"].update({"r.0": 1.7})),
     ["label", "verify", "structure.csv", "structure.json", "labelling.json"],
     2, "assignment of 'r.0' must be a JSON integer, got 1.7"),
    (lambda w: tamper(w, "gog.json", lambda doc: doc.update(
        vertices={"u": {"order": 2}, "w": {"order": 10 ** 30}},
        edges=[{"ends": ["u", "w"], "edge_order": 2}])),
     ["gog", "ball", "gog.json", "--radius", "3"], 1,
     "ball has 500000000000000000000000000001 nodes, exceeding the cap"),
], ids=["structure-class-1e30", "label-build-class-1e30", "bundle-class-neg0",
        "assignment-1.7", "gog-ball-order-1e30"])
def test_refused_under_a_memory_limit(inputs, edit, argv, code, message):
    work = inputs
    edit(work)
    done = limited_cli(work, *argv)
    assert (done.returncode, done.stderr) == (code, "")
    error = json.loads(done.stdout)["error"]
    assert message in error["message"], error


def test_huge_vertex_group_ball_within_the_limit(inputs):
    # at radii 0 and 1 only the base's children are listed: one node
    work = inputs
    tamper(work, "gog.json", lambda doc: doc.update(
        vertices={"u": {"order": 2}, "w": {"order": 10 ** 30}},
        edges=[{"ends": ["u", "w"], "edge_order": 2}]))
    for radius, counts in (("0", "1"), ("1", "1 1")):
        done = limited_cli(work, "gog", "ball", "gog.json", "--radius", radius)
        assert (done.returncode, done.stderr) == (0, "")
        assert f"counts by depth: {counts}" in done.stdout.splitlines()
    done = limited_cli(work, "gog", "check", "gog.json", "--radius", "3")
    assert done.returncode == 1 and done.stderr == ""
    assert "ball size: 500000000000000000000000000001" in done.stdout


# ---------------------------------------------------------------------------
# Mutated documents of every input format.

# what a value is replaced by: JSON null, bools, signed zeros, NaN, a huge
# integer, strings, lists and objects
REPLACEMENTS = [None, True, False, 0.0, -0.0, math.nan, 10 ** 30, -1, 1.7,
                "x", "inf", "", [], [1], ["a"], {}, {"a": 1}]
DELETE = object()
# text edits for the matrix CSV and the expression
TOKENS = ["", "nan", "inf", "-0.0", "1e400", "x", '"', ",", "\n", "(", ")",
          "Amalgam(", "Empty", ":td", "9" * 40]
EXAMPLES = 40  # per format


def json_paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def path_groups(doc):
    """The paths of doc grouped by their last object key and the number of
    list positions after it, so that a mutation that picks a group first
    is not drawn to the long lists."""
    groups = {}
    for path in json_paths(doc):
        keys = [k for k in path if isinstance(k, str)]
        tail = len(path) - 1 - max((i for i, k in enumerate(path)
                                    if isinstance(k, str)), default=-1)
        groups.setdefault(repr((keys[-1:], tail)), []).append(path)
    return [groups[key] for key in sorted(groups)]


def mutate(doc, path, replacement):
    """doc with the value at path replaced, or deleted for DELETE."""
    if not path:
        return {} if replacement is DELETE else replacement
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if replacement is DELETE:
        del parent[last]
    else:
        parent[last] = replacement
    return doc


# format: (file it is written to, command reading it)
FORMATS = {
    "coxeter": ("coxeter.json", [["coxeter", "boundary", "coxeter.json"],
                                 ["coxeter", "nerve", "coxeter.json"]]),
    "gog": ("gog.json", [["gog", "check", "gog.json", "--radius", "2"],
                         ["gog", "ball", "gog.json", "--radius", "2"],
                         ["gog", "boundary", "gog.json"]]),
    "complex": ("complex.json", [["nerve", "decompose", "complex.json"]]),
    "space": ("space.json", [["approx", "build", "--spaces", "space.json",
                              "--depth", "1", "--branching", "2",
                              "--scale", "0.3"]]),
    "bundle": ("bundle.json", [["approx", "check", "bundle.csv",
                                "bundle.json"]]),
    "structure": ("structure.json", [
        ["regular", "check", "structure.csv", "structure.json"],
        ["regular", "merge", "structure.csv", "structure.json"],
        ["label", "build", "structure.csv", "structure.json",
         "--max-depth", "2"]]),
    "labelling": ("labelling.json", [["label", "verify", "structure.csv",
                                      "structure.json", "labelling.json"]]),
}


def check_outcome(argv, code, out):
    assert code in (0, 1, 2), (argv, code, out)
    if code == 2 or (code == 1 and out.startswith("{")):
        assert set(json.loads(out)["error"]) == {"type", "message"}, out
    elif code == 1:  # a check that ran and failed
        assert ": fail" in out, (argv, out)


def search(work):
    """Run the hypothesis search in work, under the address-space limit:
    any exception out of `main`, MemoryError included, fails it."""
    import resource

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    os.chdir(work)
    originals = {}
    for name in ("bundle.csv", "structure.csv", *(f for f, _ in
                                                  FORMATS.values())):
        with open(name) as fh:
            originals[name] = fh.read()
    runs = settings(max_examples=EXAMPLES, deadline=None, database=None,
                    derandomize=True,
                    suppress_health_check=list(HealthCheck))

    def restore():
        for name, text in originals.items():
            with open(name, "w") as fh:
                fh.write(text)

    for name, commands in FORMATS.values():
        doc = json.loads(originals[name])
        # an edit replaces one path of a group, or every path of it
        groups = st.sampled_from(path_groups(doc))
        targets = st.one_of(groups.flatmap(st.sampled_from).map(
            lambda path: [path]), groups.map(lambda group: group[::-1]))

        @runs
        @given(st.lists(st.tuples(targets,
                                  st.sampled_from(REPLACEMENTS + [DELETE])),
                        min_size=1, max_size=3),
               st.sampled_from(commands))
        def mutated_document(edits, argv):
            restore()
            bad = doc
            for paths, replacement in edits:
                for path in paths:  # deepest list positions first
                    if path in set(json_paths(bad)):
                        bad = mutate(bad, path, replacement)
            with open(name, "w") as fh:
                json.dump(bad, fh)
            check_outcome(argv, *quiet_main(*argv))

        mutated_document()

    for fmt, text, argv in (
            ("matrix", originals["bundle.csv"],
             ["approx", "check", "bundle.csv", "bundle.json"]),
            ("expression", EXPRESSION, ["amalgam", "normalize"])):

        @runs
        @given(st.lists(st.tuples(st.integers(0, len(text)),
                                  st.integers(0, 3),
                                  st.sampled_from(TOKENS)),
                        min_size=1, max_size=3))
        def mutated_text(edits):
            restore()
            bad = text
            for at, cut, token in edits:
                bad = bad[:at] + token + bad[at + cut:]
            if fmt == "matrix":
                with open("bundle.csv", "w") as fh:
                    fh.write(bad)
                check_outcome(argv, *quiet_main(*argv))
            else:
                check_outcome(argv, *quiet_main(*argv, bad))

        mutated_text()
    restore()


def test_mutated_inputs_exit_cleanly(inputs):
    work = inputs
    code = f"import test_hostile_inputs as t; t.search({work!r})"
    done = subprocess.run([sys.executable, "-c", code], cwd=work,
                          env=child_env(), capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
