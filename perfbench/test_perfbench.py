"""Tests of the benchmark itself: gates, failure accounting, tracing.

Run from the checkout root: python3 -m pytest perfbench/test_perfbench.py
They use small configurations, not the benchmark's workloads.
"""

import filecmp
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from denseamalgam import cli, coxeter, metric  # noqa: E402


def small_ops(work):
    """One single-class and one two-class chain, plus the cheaper group
    pipeline commands: every traced layer is called at least once."""
    files = workloads._write_sources(workloads.random.Random(3), work)
    ops = workloads.approx_chain("c5", [files["circle5"]], [5], 2, 2, work)
    ops += workloads.approx_chain("c9", [files["circle9"]], [9], 1, 1, work)
    ops += workloads.approx_chain(
        "c5+two", [files["circle5"], files["two"]], [5, 2], 1, 2, work,
        merge=True, quotient=(0.5, None))
    ops[-1].expect = lambda code, text: None  # no recorded profile here
    group = workloads.group_pipelines(3, work)
    heavy = ("coxeter-16", "r8:", "r9:")
    ops += [op for op in group if not any(h in op.label for h in heavy)]
    return ops


def traced_pass(ops):
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run.run_pass(ops)
    finally:
        tracer.uninstall()
    return result, tracer


def test_small_workload_passes_its_gates(tmp_path):
    result = run.run_pass(small_ops(str(tmp_path)))
    assert result.failures == []


def test_counts_repeat_exactly_and_self_times_add_up(tmp_path):
    ops = small_ops(str(tmp_path))
    first, t1 = traced_pass(ops)
    second, t2 = traced_pass(ops)
    assert t1.calls == t2.calls and t1.counts == t2.counts
    assert t1.calls["coxeter.nerve"] > 0 and t1.counts["approx.points"] > 0
    detail = run.per_layer([(second, first, t1)])
    total = sum(t1.layer_self_s().values()) + detail["trace.untimed_s"][0]
    assert total == pytest.approx(first.seconds, abs=1e-9)
    assert 0 <= detail["trace.untimed_s"][0] < first.seconds


def test_every_declared_per_layer_metric_is_measured(tmp_path):
    result, tracer = traced_pass(small_ops(str(tmp_path)))
    detail = run.per_layer([(result, result, tracer)])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared <= set(detail)


def test_untraced_run_installs_nothing():
    originals = (cli.main, metric.read_matrix_csv, coxeter.is_finite_type)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.main is not originals[0]
    tracer.uninstall()
    assert (cli.main, metric.read_matrix_csv, coxeter.is_finite_type) == originals


def test_failure_is_counted_and_the_pass_goes_on(tmp_path):
    out = str(tmp_path / "out.txt")

    def crash():
        with open(out, "w") as fh:
            fh.write("partial")
        raise IndexError("list index out of range")

    ok = workloads.Op("ok", lambda: (0, "fine"), lambda c, t: None)
    ops = [workloads.Op("crash", crash, lambda c, t: None, outputs=(out,)),
           workloads.Op("after", lambda: (0, ""), lambda c, t: None,
                        inputs=(out,)),
           ok]
    result = run.run_pass(ops)
    assert result.attempted == 3
    assert result.failures == [
        ("crash", "raised IndexError: list index out of range"),
        ("after", "not run: an input operation failed")]
    assert not os.path.exists(out)  # no partial output is fed forward


def test_known_defects_are_kept_out_of_the_sweep(tmp_path):
    tags = {c[0] for c in workloads.sweep_configs()}
    assert workloads.KNOWN_DEFECTS <= tags and len(workloads.KNOWN_DEFECTS) == 15
    labels = {op.label.split(":")[0]
              for op in workloads.approx_sweep(3, str(tmp_path))}
    assert labels == tags - workloads.KNOWN_DEFECTS


def test_known_defects_fail_only_at_regularity_and_after(tmp_path):
    """ROADMAP 3b: the program fails these configurations from `regular
    check` on.  A fix shows as fewer failures; any failure earlier in the
    chain is a new defect."""
    ops = workloads.known_defects(3, str(tmp_path))
    result = run.run_pass(ops)
    assert result.attempted == len(ops)
    downstream = ("regular check", "label build", "label verify")
    for label, reason in result.failures:
        tag, stage = label.split(": ", 1)
        assert tag in workloads.KNOWN_DEFECTS and stage in downstream, \
            (label, reason)


def test_gates_reject_wrong_outputs():
    lines = workloads._expect_lines(0, ["points: 7"])
    assert lines(0, "points: 7\n") is None
    assert lines(0, "points: 8\n") is not None
    assert lines(1, "points: 7\n") is not None
    amalgam = workloads._expect_amalgam_of({"bd[a,b]", "bd[c,d]"})
    assert amalgam(0, "Amalgam(bd[c,d], bd[a,b])\n") is None
    assert amalgam(0, "Amalgam(bd[a,b])\n") is not None
    assert amalgam(0, "Amalgam(bd[a,b], bd[a,b], bd[c,d])\n") is not None
    assert workloads._expect_amalgam_of(set())(0, "Cantor\n") is None
    passing = workloads._expect_all_pass()
    assert passing(0, "a1: pass\na2: pass (x=1)\noverall: pass\n") is None
    assert passing(1, "a1: pass\na2: fail (x=1)\noverall: fail\n") is not None


def test_closed_forms():
    assert workloads.biregular_ball_sizes(3, 4, 9)[1][-1] == 6997
    assert workloads.biregular_ball_sizes(2, 3, 6)[1] == [1, 3, 7, 11, 19, 27, 43]
    assert workloads._tree_counts(4, 3) == (121, 81)


def test_same_seed_same_inputs(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        workloads.group_pipelines(seed, str(d))
    names = sorted(os.listdir(dirs[0]))
    assert filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)[0] == names
    assert filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)[0] != names


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    value, label = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and label == "p66.7 of 30"


def test_times_are_scaled_by_the_reference():
    """A pass on a machine running at half speed, with the reference task
    taking twice its nominal time, scales to the same times."""
    nominal = run.REFERENCE_NOMINAL_S
    passes = []
    for slowdown in (1, 2):
        p = run.Pass()
        p.seconds = 3.0 * slowdown
        p.latencies = {0: 1.0 * slowdown, 1: 2.0 * slowdown}
        p.reference = [nominal * slowdown] * 3
        p.attempted = 2
        passes.append(p)
    setups = [{"setup_s": 0.4, "reference_s": 2 * nominal}]
    detail = run.end_to_end(passes, setups)
    assert detail["pass_s"][0] == pytest.approx(3.0)
    assert detail["pass_wall_s"][0] == pytest.approx(4.5)
    assert detail["op_p50_ms"][0] == pytest.approx(1500.0)
    assert detail["op_tail_ms"][0] == pytest.approx(2000.0)
    assert detail["setup_s"][0] == pytest.approx(0.2)


def test_reference_time_is_left_out_of_the_pass():
    ops = [workloads.Op(str(i), lambda: (0, ""), lambda c, t: None)
           for i in range(3)]
    result = run.run_pass(ops, reference=True)
    assert len(result.reference) == 1 and result.reference[0] > 0
    assert result.seconds < result.reference[0]


def test_different_kernel_paths_are_not_comparable():
    base = {"workload": "approx_sweep", "trace": 0,
            "environment": {"kernel_path": "numpy"}}
    assert compare.comparable(base, dict(base))[0]
    numba = dict(base, environment={"kernel_path": "numba"})
    ok, reason = compare.comparable(base, numba)
    assert not ok and "kernel paths differ" in reason
