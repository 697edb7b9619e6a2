"""Per-layer tracing, installed from outside the package.

``Tracer.install()`` replaces the listed public functions of each
denseamalgam module with timing wrappers, everywhere the package refers to
them (``from .metric import read_matrix_csv`` makes ``approx`` and
``characterize`` hold their own references, which are wrapped too).
``uninstall()`` puts the originals back.  The untraced run never calls
``install``, so it runs the package exactly as a user does.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it calls, so the self times of one pass add up,
with the time outside every span, to the pass's wall time.
"""

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

import denseamalgam
from denseamalgam import (_kernels, approx, boundary, characterize, cli,
                          coxeter, graphs_of_groups, metric, simplicial)

MODULES = (denseamalgam, _kernels, approx, boundary, characterize, cli,
           coxeter, graphs_of_groups, metric, simplicial)
LAYERS = ("kernels", "metric", "approx", "characterize", "coxeter",
          "simplicial", "graphs_of_groups", "boundary", "cli")


def _cubic(counts, name, args, kwargs, result):
    n = np.shape(args[0])[0]
    counts[name + ".ops"] += n ** 3
    # each of the n k-steps reads an n x n float64 matrix
    counts[name + ".computed_bytes"] += n * n * n * 8


def _read_bytes(counts, name, args, kwargs, result):
    counts[name + ".bytes"] += os.path.getsize(args[0])


def _written_bytes(counts, name, args, kwargs, result):
    counts[name + ".bytes"] += os.path.getsize(args[1])


def _points(counts, name, args, kwargs, result):
    counts["approx.points"] += len(result.space)


def _location_pairs(counts, name, args, kwargs, result):
    counts[name + ".location_pairs"] += result.conditions["a5"]["location_pairs"]


def _proxy_pairs(counts, name, args, kwargs, result):
    counts[name + ".proxy_pairs"] += len(result.conditions["a1"]["proxy_pairs"])


def _ball_nodes(counts, name, args, kwargs, result):
    counts["graphs_of_groups.ball_nodes"] += result.size()


# (owner, attribute, span name, counter); the span name's first part is the
# layer its self time is charged to
SPANS = (
    (_kernels, "floyd_warshall", "kernels.floyd_warshall", _cubic),
    (_kernels, "max_triangle_violation", "kernels.triangle_scan", _cubic),
    (metric, "read_matrix_csv", "metric.read_matrix_csv", _read_bytes),
    (metric, "write_matrix_csv", "metric.write_matrix_csv", _written_bytes),
    (metric, "space_from_json", "metric.space_from_json", None),
    (approx, "build_approx", "approx.build_approx", _points),
    (approx, "check_conditions", "approx.check_conditions", _location_pairs),
    (approx, "load_bundle", "approx.load_bundle", None),
    (approx, "save_bundle", "approx.save_bundle", None),
    (characterize, "as_regular_structure", "characterize.as_regular_structure", None),
    (characterize, "load_structure", "characterize.load_structure", None),
    (characterize, "save_structure", "characterize.save_structure", None),
    (characterize, "check_regularity", "characterize.check_regularity", _proxy_pairs),
    (characterize, "merge_families", "characterize.merge_families", None),
    (characterize, "quotient_profile", "characterize.quotient_profile", None),
    (characterize, "build_t_labelling", "characterize.build_t_labelling", None),
    (characterize, "verify_labelling", "characterize.verify_labelling", None),
    (characterize, "labelling_to_json", "characterize.labelling_to_json", None),
    (characterize, "labelling_from_json", "characterize.labelling_from_json", None),
    (coxeter, "parse_coxeter", "coxeter.parse_coxeter", None),
    (coxeter, "nerve", "coxeter.nerve", None),
    (coxeter, "classify_endedness", "coxeter.classify_endedness", None),
    (coxeter, "boundary_expression", "coxeter.boundary_expression", None),
    (simplicial.SimplicialComplex, "terminal_factors", "simplicial.terminal_factors", None),
    (graphs_of_groups, "from_json", "graphs_of_groups.from_json", None),
    (graphs_of_groups, "to_json", "graphs_of_groups.to_json", None),
    (graphs_of_groups, "reduce", "graphs_of_groups.reduce", None),
    (graphs_of_groups, "is_non_elementary", "graphs_of_groups.is_non_elementary", None),
    (graphs_of_groups, "bass_serre_ball", "graphs_of_groups.bass_serre_ball", _ball_nodes),
    (graphs_of_groups, "check_separation", "graphs_of_groups.check_separation", None),
    (graphs_of_groups, "boundary_expression", "graphs_of_groups.boundary_expression", None),
    (boundary, "normalize", "boundary.normalize", None),
    (boundary, "parse_expr", "boundary.parse_expr", None),
    (boundary, "format_expr", "boundary.format_expr", None),
    (cli, "main", "cli.main", None),
    (cli, "render_report", "cli.render_report", None),
)

# called too often to time without drowning the caller: counted only
COUNTED = (
    (coxeter, "is_finite_type", "coxeter.is_finite_type"),
    (graphs_of_groups.BassSerreBall, "subtree_ids", "graphs_of_groups.subtree_ids"),
)


class Tracer:
    """Spans and counters, collected while installed."""

    def __init__(self):
        self._installed = []
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _span(self, name, fn, counter):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self.counts, name, args, kwargs, result)
                return result
            finally:
                duration = time.perf_counter() - t0
                self.self_s[name] += duration - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += duration
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            owners = [owner]
        else:
            # every module reference to the same function object
            owners = [m for m in MODULES if getattr(m, attr, None) is original]
        for o in owners:
            self._installed.append((o, attr, original))
            setattr(o, attr, wrapper)

    def install(self):
        for owner, attr, name, counter in SPANS:
            self._replace(owner, attr,
                          self._span(name, getattr(owner, attr), counter))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, self._counted(name, getattr(owner, attr)))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def layer_self_s(self):
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

