"""Command line front end.

Exit codes: 0 when the command succeeds and every requested check passes,
1 when a check fails or an operation refuses its input, 2 when the input
cannot be read or parsed (a machine-readable error object goes to stdout).
All output is a pure function of (inputs, flags, seed), so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random

from . import __version__
from . import approx as _approx
from . import boundary as _boundary
from . import characterize as _characterize
from . import coxeter as _coxeter
from . import graphs_of_groups as _gog
from . import metric as _metric

_TOL_FIELDS = (
    ("tol_boundary", "boundary_gap"),
    ("tol_density", "density_gap"),
    ("tol_separation", "separation_gap"),
    ("tol_iso", "iso"),
    ("tol_null", "null"),
)


class _InputError(Exception):
    """Unreadable or unparsable input; maps to exit code 2."""

    def __init__(self, message, original=None):
        super().__init__(message)
        self.original = original


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors emit a JSON object on stdout."""

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
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        # numpy scalar
        return _jsonable(value.item())
    return value


def _fmt_num(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


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
            value = body[key]
            if isinstance(value, bool):
                details.append(f"{key}={'true' if value else 'false'}")
            elif isinstance(value, (int, float)):
                details.append(f"{key}={_fmt_num(value)}")
            elif isinstance(value, str):
                details.append(f"{key}={value}")
            elif value and verdict != "pass":
                details.append(f"{key}={json.dumps(_jsonable(value), sort_keys=True)}")
        suffix = f" ({', '.join(details)})" if details else ""
        lines.append(f"{name}: {verdict}{suffix}")
    if "all_pass" in data:
        lines.append(f"overall: {'pass' if data['all_pass'] else 'fail'}")
    return lines


def render_report(report) -> tuple:
    """Return (json_text, summary_text) for a report.

    Accepts a plain dict or anything with a to_dict method.  The JSON text
    has sorted keys and a trailing newline; the summary has one line per
    condition with its achieved gaps, or "no checks requested" when the
    report carries no conditions.
    """
    if hasattr(report, "to_dict"):
        report = report.to_dict()
    data = _jsonable(report)
    json_text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    summary = "\n".join(_summary_lines(data)) + "\n"
    return json_text, summary


# ---------------------------------------------------------------------------
# shared plumbing


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}", exc) from exc


def _parse_with(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OSError) as exc:
        raise _InputError(str(exc), exc) from exc


def _tolerances_from(args):
    kwargs = {}
    for flag, field in _TOL_FIELDS:
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[field] = value
    if not kwargs:
        return None
    return _approx.ConditionTolerances(**kwargs)


def _config_from(args) -> dict:
    inputs = []
    for attr in getattr(args, "inputs_from", ()):
        value = getattr(args, attr)
        if isinstance(value, list):
            inputs.extend(value)
        else:
            inputs.append(value)
    outputs = {}
    for attr in ("report", "dot", "out_matrix", "out_meta", "out"):
        if hasattr(args, attr):
            outputs[attr.replace("_", "-")] = getattr(args, attr)
    params = {}
    for attr in ("expression", "depth", "branching", "scale", "radius",
                 "base", "max_depth"):
        if hasattr(args, attr):
            params[attr.replace("_", "-")] = getattr(args, attr)
    return {
        "subcommand": args.subcommand,
        "inputs": inputs,
        "outputs": outputs,
        "params": params,
        "tolerances": {field: getattr(args, flag, None)
                       for flag, field in _TOL_FIELDS},
        "caps": {"vertices": getattr(args, "cap_vertices", None)},
        "seed": getattr(args, "seed", 0),
        "version": __version__,
    }


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror}", exc) from exc


def _condition_result(rep, config, extra=None):
    report = {"config": config}
    report.update(rep.to_dict())
    if extra:
        report.update(extra)
    _, summary = render_report(report)
    return (0 if rep.all_pass() else 1), report, summary


# ---------------------------------------------------------------------------
# command handlers


def _cmd_coxeter_classify(args, config):
    c = _parse_with(_coxeter.parse_coxeter, _read_text(args.input))
    e = _coxeter.classify_endedness(c)
    report = {"config": config, "tag": e.tag, "virtually_free": e.virtually_free}
    text = e.tag + (" (virtually free)\n" if e.virtually_free else "\n")
    return 0, report, text


def _cmd_coxeter_nerve(args, config):
    c = _parse_with(_coxeter.parse_coxeter, _read_text(args.input))
    n = _coxeter.nerve(c)
    faces = sorted(sorted(f) for f in n.maximal_faces)
    flag, infinity_large = n.is_flag(), n.is_infinity_large()
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


def _cmd_coxeter_boundary(args, config):
    c = _parse_with(_coxeter.parse_coxeter, _read_text(args.input))
    expr = _boundary.normalize(_coxeter.boundary_expression(c))
    out = _boundary.format_expr(expr)
    return 0, {"config": config, "expression": out}, out + "\n"


def _cmd_nerve_decompose(args, config):
    n = _parse_with(_coxeter.SimplicialComplex.from_json, _read_text(args.input))
    listed = sorted(sorted(f) for f in n.terminal_factors())
    infinity_large = n.is_infinity_large()
    report = {"config": config, "factors": listed,
              "infinity_large": infinity_large}
    lines = [f"terminal factors: {len(listed)}"]
    lines.extend("  " + " ".join(f) for f in listed)
    lines.append(f"infinity-large: {'true' if infinity_large else 'false'}")
    return 0, report, "\n".join(lines) + "\n"


def _cmd_gog_reduce(args, config):
    g = _parse_with(_gog.from_json, _read_text(args.input))
    reduced = _gog.reduce(g, rng=random.Random(args.seed))
    doc = _gog.to_json(reduced)
    report = {"config": config, "graph": json.loads(doc)}
    return 0, report, doc + ("\n" if not doc.endswith("\n") else "")


def _ball_for(args, g):
    if args.base is not None and args.base not in g.vertex_groups:
        raise _InputError(f"base vertex {args.base!r} is not in the graph")
    base = args.base if args.base is not None else sorted(g.vertex_groups)[0]
    ball = _gog.bass_serre_ball(g, base, args.radius)
    cap = getattr(args, "cap_vertices", None)
    if cap is not None and ball.size() > cap:
        raise _InputError(
            f"ball has {ball.size()} vertices, exceeding --cap-vertices {cap}")
    return base, ball


def _cmd_gog_check(args, config):
    g = _parse_with(_gog.from_json, _read_text(args.input))
    base, ball = _ball_for(args, g)
    sep = _gog.check_separation(ball, g)
    non_elementary = _gog.is_non_elementary(g)
    report = {"config": config, "base": base, "radius": args.radius,
              "separation": sep, "non_elementary": non_elementary}
    lines = [f"base: {base}", f"ball size: {ball.size()}",
             f"edge separation: {sep['edge_overall']}",
             f"three-way split: {sep['three_way']}",
             f"non-elementary: {'true' if non_elementary else 'false'}"]
    failed = sep["edge_overall"] == "fail" or sep["three_way"] == "fail"
    return (1 if failed else 0), report, "\n".join(lines) + "\n"


def _cmd_gog_ball(args, config):
    g = _parse_with(_gog.from_json, _read_text(args.input))
    base, ball = _ball_for(args, g)
    counts = ball.counts_by_depth()
    sizes = []
    total = 0
    for c in counts:
        total += c
        sizes.append(total)
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


def _cmd_gog_boundary(args, config):
    g = _parse_with(_gog.from_json, _read_text(args.input))
    expr = _boundary.normalize(_gog.boundary_expression(g))
    out = _boundary.format_expr(expr)
    return 0, {"config": config, "expression": out}, out + "\n"


def _cmd_amalgam_normalize(args, config):
    expr = _parse_with(_boundary.parse_expr, args.expression)
    out = _boundary.format_expr(_boundary.normalize(expr))
    return 0, {"config": config, "expression": out}, out + "\n"


def _cmd_approx_build(args, config):
    spaces = [_parse_with(_metric.space_from_json, _read_text(p))
              for p in args.spaces]
    # parameter refusals (bad depth, branching, scale) are input errors
    a = _parse_with(_approx.build_approx, spaces, args.depth, args.branching,
                    args.scale)
    report = {"config": config, "points": len(a.space),
              "tree_vertices": len(a.vertices), "ends": len(a.ends),
              "sources": [len(x) for x in a.source_spaces]}
    lines = [f"points: {len(a.space)}", f"tree vertices: {len(a.vertices)}",
             f"ends: {len(a.ends)}"]
    if args.out_matrix:
        _approx.save_bundle(a, args.out_matrix, args.out_meta)
        lines.append(f"wrote {args.out_matrix}")
        lines.append(f"wrote {args.out_meta}")
    return 0, report, "\n".join(lines) + "\n"


def _cmd_approx_check(args, config):
    a = _parse_with(_approx.load_bundle, args.matrix, args.meta)
    rep = _approx.check_conditions(a, _tolerances_from(args))
    return _condition_result(rep, config,
                             {"matrix_validation": a.space.validation})


def _cmd_regular_check(args, config):
    s = _parse_with(_characterize.load_structure, args.matrix, args.meta)
    rep = _characterize.check_regularity(s, _tolerances_from(args))
    return _condition_result(rep, config,
                             {"matrix_validation": s.space.validation})


def _cmd_regular_merge(args, config):
    s = _parse_with(_characterize.load_structure, args.matrix, args.meta)
    result = _characterize.merge_families(s)
    report = {"config": config}
    report.update(result.to_dict())
    lines = [f"rounds: {len(result.rounds)}",
             f"diameter ratio: {_fmt_num(result.ratio)}"]
    for pos, r in enumerate(result.rounds):
        members = " ".join(str(i) for i in r["members"])
        lines.append(f"  round {pos}: members {members} "
                     f"diam {_fmt_num(r['diam'])}")
    if args.out_matrix:
        _characterize.save_structure(result.structure, args.out_matrix,
                                     args.out_meta)
        lines.append(f"wrote {args.out_matrix}")
        lines.append(f"wrote {args.out_meta}")
    return 0, report, "\n".join(lines) + "\n"


def _cmd_label_build(args, config):
    s = _parse_with(_characterize.load_structure, args.matrix, args.meta)
    lab = _characterize.build_t_labelling(s, args.max_depth)
    doc = _characterize.labelling_to_json(lab)
    report = {"config": config, "labelling": json.loads(doc)}
    lines = [f"tree vertices: {len(lab.assignment)}",
             f"levels: {len(lab.tree().levels())}"]
    if args.out:
        _write_text(args.out, doc)
        lines.append(f"wrote {args.out}")
    return 0, report, "\n".join(lines) + "\n"


def _cmd_label_verify(args, config):
    s = _parse_with(_characterize.load_structure, args.matrix, args.meta)
    lab = _parse_with(_characterize.labelling_from_json,
                      _read_text(args.labelling))
    rep = _characterize.verify_labelling(lab, s, _tolerances_from(args))
    return _condition_result(rep, config)


# ---------------------------------------------------------------------------
# parser construction


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


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0,
                    help="random seed recorded in the report (default 0)")
    sp.add_argument("--report", metavar="PATH",
                    help="write the full JSON report to this file")


def _add_tols(sp):
    for name in ("iso", "null", "boundary", "density", "separation"):
        sp.add_argument(f"--tol-{name}", type=float, default=None,
                        metavar="X", help=f"override the {name} tolerance")


def _leaf(sub, name, handler, subcommand, inputs_from, help_text):
    sp = sub.add_parser(name, help=help_text)
    sp.set_defaults(handler=handler, subcommand=subcommand,
                    inputs_from=inputs_from)
    return sp


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than most commands."""
    parser = _Parser(prog="denseamalgam",
                     description="Boundary expressions, finite approximations "
                                 "and regularity checks for dense amalgams.")
    sub = parser.add_subparsers(dest="group", metavar="command",
                                parser_class=_Parser)

    cox = sub.add_parser("coxeter", help="Coxeter system pipeline")
    cox_sub = cox.add_subparsers(dest="action", metavar="action",
                                 parser_class=_Parser)
    sp = _leaf(cox_sub, "classify", _cmd_coxeter_classify, "coxeter classify",
               ("input",), "endedness class of a Coxeter system")
    sp.add_argument("input", help="Coxeter system JSON file")
    _add_common(sp)
    sp = _leaf(cox_sub, "nerve", _cmd_coxeter_nerve, "coxeter nerve",
               ("input",), "finite-type nerve of a Coxeter system")
    sp.add_argument("input", help="Coxeter system JSON file")
    sp.add_argument("--dot", metavar="PATH",
                    help="write the nerve skeleton as DOT")
    _add_common(sp)
    sp = _leaf(cox_sub, "boundary", _cmd_coxeter_boundary, "coxeter boundary",
               ("input",), "normalized boundary expression")
    sp.add_argument("input", help="Coxeter system JSON file")
    _add_common(sp)

    nerve = sub.add_parser("nerve", help="simplicial complex analysis")
    nerve_sub = nerve.add_subparsers(dest="action", metavar="action",
                                     parser_class=_Parser)
    sp = _leaf(nerve_sub, "decompose", _cmd_nerve_decompose, "nerve decompose",
               ("input",), "terminal join factors of a complex")
    sp.add_argument("input", help="simplicial complex JSON file")
    _add_common(sp)

    gog = sub.add_parser("gog", help="graph of groups pipeline")
    gog_sub = gog.add_subparsers(dest="action", metavar="action",
                                 parser_class=_Parser)
    sp = _leaf(gog_sub, "reduce", _cmd_gog_reduce, "gog reduce",
               ("input",), "collapse trivial edges")
    sp.add_argument("input", help="graph of groups JSON file")
    _add_common(sp)
    sp = _leaf(gog_sub, "check", _cmd_gog_check, "gog check",
               ("input",), "separation checks on a Bass-Serre ball")
    sp.add_argument("input", help="graph of groups JSON file")
    sp.add_argument("--radius", type=_nonneg_int, required=True,
                    help="ball radius in the Bass-Serre tree")
    sp.add_argument("--base", default=None,
                    help="base vertex (default: first in sorted order)")
    sp.add_argument("--cap-vertices", type=_positive_int, default=None,
                    help="refuse balls larger than this")
    _add_common(sp)
    sp = _leaf(gog_sub, "ball", _cmd_gog_ball, "gog ball",
               ("input",), "Bass-Serre tree ball sizes")
    sp.add_argument("input", help="graph of groups JSON file")
    sp.add_argument("--radius", type=_nonneg_int, required=True,
                    help="ball radius in the Bass-Serre tree")
    sp.add_argument("--base", default=None,
                    help="base vertex (default: first in sorted order)")
    sp.add_argument("--cap-vertices", type=_positive_int, default=None,
                    help="refuse balls larger than this")
    sp.add_argument("--dot", metavar="PATH", help="write the ball as DOT")
    _add_common(sp)
    sp = _leaf(gog_sub, "boundary", _cmd_gog_boundary, "gog boundary",
               ("input",), "normalized boundary expression")
    sp.add_argument("input", help="graph of groups JSON file")
    _add_common(sp)

    am = sub.add_parser("amalgam", help="boundary expression algebra")
    am_sub = am.add_subparsers(dest="action", metavar="action",
                               parser_class=_Parser)
    sp = _leaf(am_sub, "normalize", _cmd_amalgam_normalize,
               "amalgam normalize", (), "normalize a boundary expression")
    sp.add_argument("expression", help="expression text, e.g. 'Amalgam(Empty)'")
    _add_common(sp)

    ap = sub.add_parser("approx", help="finite approximations")
    ap_sub = ap.add_subparsers(dest="action", metavar="action",
                               parser_class=_Parser)
    sp = _leaf(ap_sub, "build", _cmd_approx_build, "approx build",
               ("spaces",), "build a finite approximation")
    sp.add_argument("--spaces", nargs="+", required=True, metavar="PATH",
                    help="finite metric space JSON files, one per class")
    sp.add_argument("--depth", type=_nonneg_int, required=True,
                    help="tree depth of the approximation")
    sp.add_argument("--branching", type=_positive_int, required=True,
                    help="children per tree vertex")
    sp.add_argument("--scale", type=float, required=True,
                    help="per-level contraction factor in (0, 1/2]")
    sp.add_argument("--out-matrix", metavar="PATH",
                    help="write the distance matrix CSV here")
    sp.add_argument("--out-meta", metavar="PATH",
                    help="write the JSON sidecar here")
    _add_common(sp)
    sp = _leaf(ap_sub, "check", _cmd_approx_check, "approx check",
               ("matrix", "meta"), "verify the approximation conditions")
    sp.add_argument("matrix", help="distance matrix CSV")
    sp.add_argument("meta", help="approximation JSON sidecar")
    _add_tols(sp)
    _add_common(sp)

    reg = sub.add_parser("regular", help="regular family checks")
    reg_sub = reg.add_subparsers(dest="action", metavar="action",
                                 parser_class=_Parser)
    sp = _leaf(reg_sub, "check", _cmd_regular_check, "regular check",
               ("matrix", "meta"), "verify family regularity")
    sp.add_argument("matrix", help="distance matrix CSV")
    sp.add_argument("meta", help="regular-structure JSON sidecar")
    _add_tols(sp)
    _add_common(sp)
    sp = _leaf(reg_sub, "merge", _cmd_regular_merge, "regular merge",
               ("matrix", "meta"), "merge a multi-class family")
    sp.add_argument("matrix", help="distance matrix CSV")
    sp.add_argument("meta", help="regular-structure JSON sidecar")
    sp.add_argument("--out-matrix", metavar="PATH",
                    help="write the merged structure matrix here")
    sp.add_argument("--out-meta", metavar="PATH",
                    help="write the merged structure sidecar here")
    _add_common(sp)

    lab = sub.add_parser("label", help="tree labellings")
    lab_sub = lab.add_subparsers(dest="action", metavar="action",
                                 parser_class=_Parser)
    sp = _leaf(lab_sub, "build", _cmd_label_build, "label build",
               ("matrix", "meta"), "build a tree labelling")
    sp.add_argument("matrix", help="distance matrix CSV")
    sp.add_argument("meta", help="regular-structure JSON sidecar")
    sp.add_argument("--max-depth", type=_nonneg_int, required=True,
                    help="depth budget for the labelling tree")
    sp.add_argument("--out", metavar="PATH",
                    help="write the labelling JSON here")
    _add_common(sp)
    sp = _leaf(lab_sub, "verify", _cmd_label_verify, "label verify",
               ("matrix", "meta", "labelling"), "verify a tree labelling")
    sp.add_argument("matrix", help="distance matrix CSV")
    sp.add_argument("meta", help="regular-structure JSON sidecar")
    sp.add_argument("labelling", help="labelling JSON file")
    _add_tols(sp)
    _add_common(sp)

    return parser


def _emit_error(exc, config, args, code: int) -> int:
    name = type(exc.original).__name__ if isinstance(exc, _InputError) \
        and exc.original is not None else type(exc).__name__
    payload = {"error": {"type": name, "message": str(exc)}}
    if config is not None:
        payload["config"] = config
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    print(text)
    report_path = getattr(args, "report", None)
    if report_path:
        try:
            _write_text(report_path, text + "\n")
        except _InputError:
            pass  # the primary error already owns the exit code
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = getattr(args, "handler", None)
    if handler is None:
        payload = {"error": {"type": "UsageError",
                             "message": "a subcommand is required"}}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 2
    config = _config_from(args)
    try:
        code, report, text = handler(args, config)
    except _InputError as exc:
        return _emit_error(exc, config, args, 2)
    except ValueError as exc:
        return _emit_error(exc, config, args, 1)
    print(text, end="")
    if args.report:
        json_text, _ = render_report(report)
        _write_text(args.report, json_text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
