"""The numpy-backed layers (metric, approx, characterize) load on first use:
the package exports every name as before, the group-theory commands run in
a fresh interpreter without importing numpy, and the metric-space commands
give the same output there as in-process."""

import importlib
import json
import os
import subprocess
import sys

import denseamalgam
from denseamalgam.cli import main

SRC = os.path.dirname(os.path.dirname(denseamalgam.__file__))
SQUARE = ('{"generators": ["a", "b", "c", "d"], "m": '
          '[[1, 2, "inf", 2], [2, 1, 2, "inf"], '
          '["inf", 2, 1, 2], [2, "inf", 2, 1]]}')
GOG_23 = ('{"vertices": {"u": {"order": 2}, "v": {"order": 3}}, '
          '"edges": [{"ends": ["u", "v"], "edge_order": 1}]}')
COMPLEX = '{"vertices": ["a", "b", "c"], "maximal_faces": [["a", "b"], ["c"]]}'
TWO_SPACE = '{"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}'
TWO_SPACE_B = '{"points": ["u", "v"], "dist": [[0, 1], [1, 0]]}'


def fresh_python(code, cwd):
    """Run code in a new interpreter that imports the package from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_export_is_its_module_object():
    for name in denseamalgam.__all__:
        value = getattr(denseamalgam, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, getattr(value, "__name__", name)) is value, name
    assert set(denseamalgam.__all__) <= set(dir(denseamalgam))


def test_a_lazy_name_is_kept_after_its_first_read():
    value = denseamalgam.load_bundle
    assert vars(denseamalgam)["load_bundle"] is value


def test_unknown_name_raises_attribute_error():
    assert not hasattr(denseamalgam, "no_such_name")


def test_group_commands_do_not_import_numpy(tmp_path):
    for name, text in (("cox.json", SQUARE), ("gog.json", GOG_23),
                       ("complex.json", COMPLEX)):
        (tmp_path / name).write_text(text)
    commands = [
        ["coxeter", "boundary", "cox.json"],
        ["coxeter", "classify", "cox.json"],
        ["nerve", "decompose", "complex.json"],
        ["gog", "check", "gog.json", "--radius", "3"],
        ["gog", "ball", "gog.json", "--radius", "3"],
        ["gog", "boundary", "gog.json"],
        ["gog", "reduce", "gog.json", "--seed", "1"],
        ["amalgam", "normalize", "Amalgam(Cantor, Cantor)"],
    ]
    out = fresh_python(
        "import contextlib, io, json, sys\n"
        "from denseamalgam import cli\n"
        f"commands = {commands!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in commands]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules,\n"
        "                  'denseamalgam.metric' in sys.modules]))\n",
        tmp_path)
    assert json.loads(out) == [[0] * len(commands), False, False]


def test_metric_commands_match_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.json").write_text(TWO_SPACE)
    # two classes, so that `regular merge` has something to merge
    structure = denseamalgam.as_regular_structure(denseamalgam.build_approx(
        [denseamalgam.space_from_json(TWO_SPACE),
         denseamalgam.space_from_json(TWO_SPACE_B)], 1, 3, 1 / 3))
    denseamalgam.save_structure(structure, "s.csv", "s.json")
    chain = [
        ["approx", "build", "--spaces", "two.json", "--depth", "2",
         "--branching", "2", "--scale", "0.3", "--out-matrix", "m.csv",
         "--out-meta", "m.json"],
        ["approx", "check", "m.csv", "m.json"],
        ["regular", "check", "s.csv", "s.json"],
        ["regular", "merge", "s.csv", "s.json", "--out-matrix", "mm.csv",
         "--out-meta", "mm.json"],
        ["label", "build", "s.csv", "s.json", "--max-depth", "8",
         "--out", "lab.json"],
        ["label", "verify", "s.csv", "s.json", "lab.json"],
    ]
    expected = []
    for argv in chain:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    got = [fresh_python("from denseamalgam import cli\n"
                        f"raise SystemExit(cli.main({argv!r}))\n", tmp_path)
           for argv in chain]
    assert got == expected
