"""Command line front end.

Each leaf command is declared once, in ``_COMMANDS``, with its handler and
every argument's role (input, output, param, tolerance or cap): the parsers
and each report's ``config`` are both read from there, the one place a
command's arguments live.  A check command declares only the ``--tol-*``
flags its checker reads; any other is a usage error.

Exit codes: 0 when the command succeeds and every requested check passes,
1 when a check fails or an operation refuses its input, 2 when the input
cannot be read or parsed (a machine-readable error object goes to stdout).
All output is a pure function of (inputs, flags, seed), so repeated runs
are byte-identical.

Importing this module imports no other module of the package.  Each
handler reads what it calls from the package at call time: the
group-theory functions through their modules (``_package.coxeter.nerve``),
the numpy-backed ones by their exported names (``_package.load_bundle``).
The package imports a module the first time one of its names is read, so
a command loads only the layers it runs: the group-theory commands never
import numpy, and the approximation, regularity and labelling commands
never import the group-theory layers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import random
import sys

import denseamalgam as _package

from . import __version__


class _InputError(Exception):
    """Unreadable or unparsable input (exit 2), raised from its cause."""


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors emit a JSON object on stdout and
    that takes options only by their full names, never by a prefix."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        payload = {"error": {"type": "UsageError", "message": message}}
        print(json.dumps(payload, indent=2, sort_keys=True))
        raise SystemExit(2)


def _jsonable(value):
    """Recursively coerce report values into strict-JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf", "-inf" or "nan"
    if hasattr(value, "item"):  # a numpy scalar
        return _jsonable(value.item())
    return value


def _summary_lines(data: dict) -> list:
    conditions = data.get("conditions")
    if not conditions:
        return ["no checks requested"]
    lines = []
    for name in sorted(conditions):
        body = conditions[name]
        verdict = body.get("verdict", "?")
        details = []
        for key in sorted(body):
            if key == "verdict":
                continue
            value = body[key]  # already JSON-safe: inf and nan are strings
            if isinstance(value, bool):
                details.append(f"{key}={'true' if value else 'false'}")
            elif isinstance(value, (int, float, str)):
                details.append(f"{key}={value}")
            elif value and verdict != "pass":
                details.append(f"{key}={json.dumps(value, sort_keys=True)}")
        suffix = f" ({', '.join(details)})" if details else ""
        lines.append(f"{name}: {verdict}{suffix}")
    if "all_pass" in data:
        lines.append(f"overall: {'pass' if data['all_pass'] else 'fail'}")
    return lines


def render_report(report, json_text=True) -> tuple:
    """Return (json_text, summary_text) for a report.

    Accepts a plain dict or anything with a to_dict method.  The JSON text
    has sorted keys and a trailing newline, and is None unless json_text
    is true; the summary has one line per condition with its achieved
    gaps, or "no checks requested" when the report carries no conditions.
    It reads only the conditions and the overall verdict.
    """
    if hasattr(report, "to_dict"):
        report = report.to_dict()
    text = (json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
            if json_text else None)
    data = _jsonable({key: report[key] for key in ("conditions", "all_pass")
                      if key in report})
    return text, "\n".join(_summary_lines(data)) + "\n"


# ---------------------------------------------------------------------------
# shared plumbing


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}") from exc


def _parse_with(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OSError) as exc:
        raise _InputError(str(exc)) from exc


def _load(parse, path):
    return _parse_with(parse, _read_text(path))


def _tolerances_from(config):
    return _package.ConditionTolerances(
        **{k: v for k, v in config["tolerances"].items() if v is not None})


def _config_from(args) -> dict:
    """The run configuration, read off the command's declared arguments.
    Every tolerance and cap key is present, None when not given."""
    config = {"subcommand": f"{args.group} {args.action}", "inputs": [],
              "outputs": {}, "params": {},
              "tolerances": dict.fromkeys(_TOL_KEYS.values()),
              "caps": {"vertices": None}, "seed": 0, "version": __version__}
    for role, name, key, _ in args.declared:
        value = getattr(args, name.lstrip("-").replace("-", "_"))
        if role == "inputs":
            config["inputs"] += value if isinstance(value, list) else [value]
        elif role == "seed":
            config["seed"] = value
        else:
            config[role][key] = value
    return config


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror}") from exc


def _condition_result(rep, config, **extra):
    report = {"config": config, **rep.to_dict(), **extra}
    return ((0 if rep.all_pass() else 1), report,
            render_report(report, json_text=False)[1])


# ---------------------------------------------------------------------------
# command handlers: (args, config) -> (exit code, report, stdout text).
# They reach library functions at call time, through the package: the
# group-theory ones through their modules, the numpy-backed ones by name.


def _check_matrix(args, config, load, check):
    """Load a matrix and its sidecar, check them, and record which path
    proved the matrix a metric."""
    x = _parse_with(load, args.matrix, args.meta)
    return _condition_result(check(x, _tolerances_from(config)), config,
                             matrix_validation=x.space.validation)


def _expression_result(config, expr):
    out = _package.boundary.format_expr(expr)
    return 0, {"config": config, "expression": out}, out + "\n"


def _cmd_coxeter_classify(args, config):
    coxeter = _package.coxeter
    e = coxeter.classify_endedness(_load(coxeter.parse_coxeter, args.input))
    report = {"config": config, "tag": e.tag, "virtually_free": e.virtually_free}
    text = e.tag + (" (virtually free)\n" if e.virtually_free else "\n")
    return 0, report, text


def _cmd_coxeter_nerve(args, config):
    coxeter = _package.coxeter
    n = coxeter.nerve(_load(coxeter.parse_coxeter, args.input))
    faces = sorted(sorted(f) for f in n.maximal_faces)
    flag = n.is_flag()
    infinity_large = flag and n.is_chordal()  # is_infinity_large(), reusing flag
    report = {"config": config, "vertices": sorted(n.vertices),
              "maximal_faces": faces, "flag": flag,
              "infinity_large": infinity_large}
    lines = ["vertices: " + " ".join(sorted(n.vertices)),
             "maximal faces: " + "; ".join(" ".join(f) for f in faces),
             f"flag: {'true' if flag else 'false'}",
             f"infinity-large: {'true' if infinity_large else 'false'}"]
    if args.dot:
        _write_text(args.dot, n.to_dot())
        lines.append(f"wrote {args.dot}")
    return 0, report, "\n".join(lines) + "\n"


def _cmd_nerve_decompose(args, config):
    n = _load(_package.simplicial.SimplicialComplex.from_json, args.input)
    listed = sorted(sorted(f) for f in n.terminal_factors())
    infinity_large = n.is_infinity_large()
    report = {"config": config, "factors": listed,
              "infinity_large": infinity_large}
    lines = [f"terminal factors: {len(listed)}"]
    lines.extend("  " + " ".join(f) for f in listed)
    lines.append(f"infinity-large: {'true' if infinity_large else 'false'}")
    return 0, report, "\n".join(lines) + "\n"


def _cmd_gog_reduce(args, config):
    gog = _package.graphs_of_groups
    g = _load(gog.from_json, args.input)
    doc = gog.to_json(gog.reduce(g, rng=random.Random(args.seed)))
    report = {"config": config, "graph": json.loads(doc)}
    return 0, report, doc + ("\n" if not doc.endswith("\n") else "")


def _ball_for(args):
    """The graph, the base vertex and the ball's size from level counts,
    after the ball's refusals: the cap is checked before any ball is built."""
    gog = _package.graphs_of_groups
    g = _load(gog.from_json, args.input)
    if args.base is not None and args.base not in g.vertex_groups:
        raise _InputError(f"base vertex {args.base!r} is not in the graph")
    base = args.base if args.base is not None else sorted(g.vertex_groups)[0]
    size = sum(gog.ball_counts(g, base, args.radius))
    cap = args.cap_vertices
    if cap is not None and size > cap:
        raise _InputError(
            f"ball has {size} vertices, exceeding --cap-vertices {cap}")
    return g, base, size


def _cmd_gog_check(args, config):
    g, base, size = _ball_for(args)
    gog = _package.graphs_of_groups
    sep = gog.check_separation(g)
    non_elementary = gog.is_non_elementary(g)
    report = {"config": config, "base": base, "radius": args.radius,
              "separation": sep, "non_elementary": non_elementary}
    lines = [f"base: {base}", f"ball size: {size}",
             f"edge separation: {sep['edge_overall']}",
             f"three-way split: {sep['three_way']}",
             f"non-elementary: {'true' if non_elementary else 'false'}"]
    failed = sep["edge_overall"] == "fail" or sep["three_way"] == "fail"
    return (1 if failed else 0), report, "\n".join(lines) + "\n"


def _cmd_gog_ball(args, config):
    g, base, _ = _ball_for(args)
    ball = _package.graphs_of_groups.bass_serre_ball(g, base, args.radius)
    counts = ball.counts_by_depth()
    sizes = list(itertools.accumulate(counts))
    report = {"config": config, "base": base, "radius": args.radius,
              "counts_by_depth": counts, "sizes_by_radius": sizes,
              "size": ball.size()}
    lines = [f"base: {base}",
             "counts by depth: " + " ".join(str(c) for c in counts),
             "ball sizes by radius: " + " ".join(str(s) for s in sizes)]
    if args.dot:
        _write_text(args.dot, ball.to_dot())
        lines.append(f"wrote {args.dot}")
    return 0, report, "\n".join(lines) + "\n"


def _cmd_approx_build(args, config):
    spaces = [_load(_package.space_from_json, p) for p in args.spaces]
    # parameter refusals (bad depth, branching, scale) are input errors
    a = _parse_with(_package.build_approx, spaces, args.depth, args.branching,
                    args.scale)
    report = {"config": config, "points": len(a.space),
              "tree_vertices": len(a.vertices), "ends": len(a.ends),
              "sources": [len(x) for x in a.source_spaces]}
    lines = [f"points: {len(a.space)}", f"tree vertices: {len(a.vertices)}",
             f"ends: {len(a.ends)}"]
    if args.out_matrix:
        _package.save_bundle(a, args.out_matrix, args.out_meta)
        lines += [f"wrote {args.out_matrix}", f"wrote {args.out_meta}"]
    return 0, report, "\n".join(lines) + "\n"


def _cmd_regular_merge(args, config):
    s = _parse_with(_package.load_structure, args.matrix, args.meta)
    result = _package.merge_families(s)
    report = {"config": config, **result.to_dict()}
    lines = [f"rounds: {len(result.rounds)}",
             f"diameter ratio: {_jsonable(result.ratio)}"]
    for pos, r in enumerate(result.rounds):
        members = " ".join(str(i) for i in r["members"])
        lines.append(f"  round {pos}: members {members} "
                     f"diam {_jsonable(r['diam'])}")
    if args.out_matrix:
        _package.save_structure(result.structure, args.out_matrix,
                                args.out_meta)
        lines += [f"wrote {args.out_matrix}", f"wrote {args.out_meta}"]
    return 0, report, "\n".join(lines) + "\n"


def _cmd_label_build(args, config):
    s = _parse_with(_package.load_structure, args.matrix, args.meta)
    lab = _package.build_t_labelling(s, args.max_depth)
    doc = _package.labelling_to_json(lab)
    report = {"config": config, "labelling": json.loads(doc)}
    lines = [f"tree vertices: {len(lab.assignment)}",
             f"levels: {len(lab.tree().levels())}"]
    if args.out:
        _write_text(args.out, doc)
        lines.append(f"wrote {args.out}")
    return 0, report, "\n".join(lines) + "\n"


def _cmd_label_verify(args, config):
    s = _parse_with(_package.load_structure, args.matrix, args.meta)
    lab = _load(_package.labelling_from_json, args.labelling)
    rep = _package.verify_labelling(lab, s, _tolerances_from(config))
    return _condition_result(rep, config)


# ---------------------------------------------------------------------------
# command declarations


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _arg(role, name, key=None, **options):
    """One argument of a leaf command: (role, name, key, options).

    The role is the part of the report's config that records the value:
    "inputs", "outputs", "params", "tolerances", "caps" or "seed"; the key
    is its name there.  The options go to ``add_argument``.
    """
    return role, name, key or name.lstrip("-"), options


_SEED_REPORT = (
    _arg("seed", "--seed", type=int, default=0,
         help="random seed recorded in the report (default 0)"),
    _arg("outputs", "--report", metavar="PATH",
         help="write the full JSON report to this file"),
)


def _command(group, action, help_text, handler, *args):
    """One leaf command keyed by (group, action); all take --seed, --report."""
    return (group, action), (help_text, handler, args + _SEED_REPORT)


def _matrix_meta(sidecar):
    return (_arg("inputs", "matrix", help="distance matrix CSV"),
            _arg("inputs", "meta", help=f"{sidecar} JSON sidecar"))


_OUT_PAIR = ("out-matrix", "out-meta")  # given both or neither


def _out_matrix_meta(*what):
    return tuple(_arg("outputs", f"--{key}", metavar="PATH",
                      help=f"write {text} here")
                 for key, text in zip(_OUT_PAIR, what))


_TOL_KEYS = {"iso": "iso", "null": "null", "boundary": "boundary_gap",
             "density": "density_gap", "separation": "separation_gap"}


def _tols(*names):
    return tuple(_arg("tolerances", f"--tol-{name}", _TOL_KEYS[name],
                      type=float, metavar="X",
                      help=f"override the {name} tolerance")
                 for name in names)


_COXETER_INPUT = _arg("inputs", "input", help="Coxeter system JSON file")
_GOG_INPUT = _arg("inputs", "input", help="graph of groups JSON file")
_STRUCTURE = _matrix_meta("regular-structure")
_BALL = (
    _arg("params", "--radius", type=_nonneg_int, required=True,
         help="ball radius in the Bass-Serre tree"),
    _arg("params", "--base",
         help="base vertex (default: first in sorted order)"),
    _arg("caps", "--cap-vertices", "vertices", type=_positive_int,
         help="refuse balls larger than this"),
)

_GROUPS = {
    "coxeter": "Coxeter system pipeline",
    "nerve": "simplicial complex analysis",
    "gog": "graph of groups pipeline",
    "amalgam": "boundary expression algebra",
    "approx": "finite approximations",
    "regular": "regular family checks",
    "label": "tree labellings",
}

_COMMANDS = dict((
    _command("coxeter", "classify", "endedness class of a Coxeter system",
             _cmd_coxeter_classify, _COXETER_INPUT),
    _command("coxeter", "nerve", "finite-type nerve of a Coxeter system",
             _cmd_coxeter_nerve, _COXETER_INPUT,
             _arg("outputs", "--dot", metavar="PATH",
                  help="write the nerve skeleton as DOT")),
    _command("coxeter", "boundary", "normalized boundary expression",
             lambda args, config: _expression_result(
                 config, _package.coxeter.boundary_expression(
                     _load(_package.coxeter.parse_coxeter, args.input))),
             _COXETER_INPUT),
    _command("nerve", "decompose", "terminal join factors of a complex",
             _cmd_nerve_decompose,
             _arg("inputs", "input", help="simplicial complex JSON file")),
    _command("gog", "reduce", "collapse trivial edges",
             _cmd_gog_reduce, _GOG_INPUT),
    _command("gog", "check", "separation properties of the Bass-Serre tree",
             _cmd_gog_check, _GOG_INPUT, *_BALL),
    _command("gog", "ball", "Bass-Serre tree ball sizes",
             _cmd_gog_ball, _GOG_INPUT, *_BALL,
             _arg("outputs", "--dot", metavar="PATH",
                  help="write the ball as DOT")),
    _command("gog", "boundary", "normalized boundary expression",
             lambda args, config: _expression_result(
                 config, _package.graphs_of_groups.boundary_expression(
                     _load(_package.graphs_of_groups.from_json,
                           args.input))),
             _GOG_INPUT),
    _command("amalgam", "normalize", "normalize a boundary expression",
             lambda args, config: _expression_result(
                 config, _package.boundary.normalize(_parse_with(
                     _package.boundary.parse_expr, args.expression))),
             _arg("params", "expression",
                  help="expression text, e.g. 'Amalgam(Empty)'")),
    _command("approx", "build", "build a finite approximation",
             _cmd_approx_build,
             _arg("inputs", "--spaces", nargs="+", required=True,
                  metavar="PATH",
                  help="finite metric space JSON files, one per class"),
             _arg("params", "--depth", type=_nonneg_int, required=True,
                  help="tree depth of the approximation"),
             _arg("params", "--branching", type=_positive_int, required=True,
                  help="children per tree vertex"),
             _arg("params", "--scale", type=float, required=True,
                  help="per-level contraction factor in (0, 1/2]"),
             *_out_matrix_meta("the distance matrix CSV", "the JSON sidecar")),
    _command("approx", "check", "verify the approximation conditions",
             lambda args, config: _check_matrix(
                 args, config, _package.load_bundle,
                 _package.check_conditions),
             *_matrix_meta("approximation"),
             *_tols("iso", "boundary", "density", "separation")),
    _command("regular", "check", "verify family regularity",
             lambda args, config: _check_matrix(
                 args, config, _package.load_structure,
                 _package.check_regularity),
             *_STRUCTURE,
             *_tols("iso", "null", "boundary", "density", "separation")),
    _command("regular", "merge", "merge a multi-class family",
             _cmd_regular_merge, *_STRUCTURE,
             *_out_matrix_meta("the merged structure matrix",
                               "the merged structure sidecar")),
    _command("label", "build", "build a tree labelling",
             _cmd_label_build, *_STRUCTURE,
             _arg("params", "--max-depth", type=_nonneg_int, required=True,
                  help="depth budget for the labelling tree"),
             _arg("outputs", "--out", metavar="PATH",
                  help="write the labelling JSON here")),
    _command("label", "verify", "verify a tree labelling",
             _cmd_label_verify, *_STRUCTURE,
             _arg("inputs", "labelling", help="labelling JSON file"),
             *_tols("separation")),
))


def _add_leaf(parser, group, action) -> _Parser:
    """Give ``parser`` one leaf command's arguments and defaults."""
    _, handler, declared = _COMMANDS[group, action]
    parser.set_defaults(group=group, action=action, handler=handler,
                        declared=declared)
    for _, name, _, options in declared:
        parser.add_argument(name, **options)
    return parser


@functools.cache
def _leaf_parser(group, action) -> _Parser:
    """One leaf command's own parser: the tree's namespace, help and usage
    errors for the same argv, at a fraction of the tree's cost."""
    return _add_leaf(_Parser(prog=f"denseamalgam {group} {action}"),
                     group, action)


@functools.cache
def _build_parser() -> _Parser:
    """The full argument tree, for every argv that does not start with a
    declared (group, action) pair: help, a group alone, a usage error."""
    parser = _Parser(prog="denseamalgam",
                     description="Boundary expressions, finite approximations "
                                 "and regularity checks for dense amalgams.")
    sub = parser.add_subparsers(dest="group", metavar="command",
                                parser_class=_Parser)
    actions = {group: sub.add_parser(group, help=help_text).add_subparsers(
                   dest="action", metavar="action", parser_class=_Parser)
               for group, help_text in _GROUPS.items()}
    for (group, action), (help_text, _, _) in _COMMANDS.items():
        _add_leaf(actions[group].add_parser(action, help=help_text),
                  group, action)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    leaf = tuple(argv[:2]) in _COMMANDS
    parser = _leaf_parser(*argv[:2]) if leaf else _build_parser()
    try:
        args = parser.parse_args(argv[2:] if leaf else argv)
        if not hasattr(args, "handler"):
            parser.error("a subcommand is required")
        config = _config_from(args)
        if len({bool(config["outputs"].get(k)) for k in _OUT_PAIR}) > 1:
            parser.error("--%s and --%s must be given together" % _OUT_PAIR)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, report, text = args.handler(args, config)
        if args.report:  # written first: an unwritable path is an error
            _write_text(args.report, render_report(report)[0])
    except (_InputError, ValueError) as exc:
        cause = exc.__cause__ if isinstance(exc, _InputError) else None
        payload = {"error": {"type": type(cause or exc).__name__,
                             "message": str(exc)}, "config": config}
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
        print(text)
        if args.report:  # the first error already owns the exit code
            with contextlib.suppress(_InputError):
                _write_text(args.report, text + "\n")
        return 2 if isinstance(exc, _InputError) else 1
    print(text, end="")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
