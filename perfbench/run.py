"""End-to-end and per-layer benchmark of the denseamalgam command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from its src/.
One process runs one workload, closed loop: one client, one operation at a
time, single thread.  Set-up (import of denseamalgam plus generation of the
input files) is timed in fresh child processes, several times, and reported
as the median.  Passes over the workload's fixed operation list then repeat
while the next pass still fits in --seconds (at least one pass; the default
is BENCHMARK.json's run_seconds).

The end-to-end times are scaled to a nominal machine speed.  A shared host's
speed drifts by a quarter over minutes, in CPU time as much as in wall
time, so a fixed reference task that does not use the package is timed
between operations (and after each set-up), and each time is multiplied by
REFERENCE_NOMINAL_S over the median reference time measured alongside it.
The unscaled times are printed too.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the median traced pass.
Lines before the last describe the run (environment, failures, metrics with
units and sample counts); the last line is the result as one JSON object.
--workload all runs every workload that BENCHMARK.json declares, each in
its own process, and prints a table.  It then runs one untimed pass over the
configurations that no workload holds because the program fails them
(workloads.KNOWN_DEFECTS) and lists their failures.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
WORKLOAD_TIMEOUT_S = 900  # guards a hang only; a run ends on its own
TAIL_BEYOND = 10
REFERENCE_EVERY_S = 0.25  # operation time between two reference samples
REFERENCE_NOMINAL_S = 0.020  # the reference task's time at nominal speed
SETUP_REFERENCE_SAMPLES = 5


def _use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "denseamalgam", "__init__.py")):
        sys.exit("perfbench: src/denseamalgam not found; run from the root "
                 "of a denseamalgam checkout")
    sys.path.insert(0, SRC)


def _setup_child(workload, seed, directory):
    """Time import plus input generation in this fresh process."""
    t0 = time.perf_counter()
    _use_checkout_source()
    import workloads
    workloads.WORKLOADS[workload](seed, directory)
    seconds = time.perf_counter() - t0
    reference_s()  # warm-up
    reference = statistics.median(
        reference_s() for _ in range(SETUP_REFERENCE_SAMPLES))
    print(json.dumps({"setup_s": seconds, "reference_s": reference}))


def _time_setups(workload, seed, work):
    samples = []
    for i in range(SETUP_SAMPLES):
        directory = os.path.join(work, f"setup-{i}")
        os.makedirs(directory)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-into",
             directory, "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up of {workload} failed")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
        shutil.rmtree(directory)
    return samples


def reference_s():
    """Wall time of one fixed task of the kinds of work the workloads do,
    without the package: interpreted dict and string work, then 25 in-place
    numpy shortest-path steps on a 450 x 450 matrix.  With its temporaries
    the matrix outgrows a 2 MiB L2 cache, as the workloads' largest
    matrices do.  About 20 ms."""
    import numpy as np
    dist = np.random.default_rng(0).random((450, 450))
    t0 = time.perf_counter()
    table = {}
    for i in range(30000):
        table[i % 97] = table.get(i % 97, 0) + i
    ",".join(str(i) for i in range(3000))
    for k in range(25):
        np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Passes

class Pass:
    def __init__(self):
        self.seconds = 0.0  # the operations' wall time, references excluded
        self.latencies = {}  # operation index -> seconds, for those that ran
        self.failures = []  # (label, reason)
        self.attempted = 0
        self.reference = []  # reference task samples, seconds

    @property
    def scale(self):
        """Factor from this pass's wall times to nominal-speed times."""
        return REFERENCE_NOMINAL_S / statistics.median(self.reference)


def run_pass(ops, reference=False):
    """Run every operation once, in order, and check each output.

    With reference, the reference task is also timed before the first
    operation and then whenever REFERENCE_EVERY_S have passed since the last
    sample; that time is left out of the pass's seconds.
    """
    for op in ops:
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
    result = Pass()
    t0 = time.perf_counter()
    sampling = 0.0
    next_sample = t0
    for index, op in enumerate(ops):
        if reference and time.perf_counter() >= next_sample:
            s0 = time.perf_counter()
            result.reference.append(reference_s())
            s1 = time.perf_counter()
            sampling += s1 - s0
            next_sample = s1 + REFERENCE_EVERY_S
        result.attempted += 1
        if not all(os.path.exists(p) for p in op.inputs):
            result.failures.append((op.label, "not run: an input operation failed"))
            continue
        start = time.perf_counter()
        try:
            code, text = op.call()
        except Exception as exc:  # a crash is a failed operation, not a stop
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            reason = op.expect(code, text)
        result.latencies[index] = time.perf_counter() - start
        if reason is not None:
            result.failures.append((op.label, reason))
            for path in op.outputs:  # never feed a failed output forward
                if os.path.exists(path):
                    os.remove(path)
    result.seconds = time.perf_counter() - t0 - sampling
    return result


def _repeat(seconds, one_round):
    """Call one_round while the next round still fits; at least once."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return rounds


def tail(samples):
    """(value, label): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples for one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n}"


def end_to_end(passes, setups):
    """Times are scaled to nominal speed, pass by pass and set-up by set-up.
    An operation's latency is its median over the passes; the percentiles
    are taken over those per-operation latencies, so that they do not
    depend on how many passes fit in the run."""
    per_op = {}
    for p in passes:
        for index, seconds in p.latencies.items():
            per_op.setdefault(index, []).append(seconds * p.scale)
    op_ms = [1000 * statistics.median(v) for v in per_op.values()]
    tail_ms, tail_label = tail(op_ms)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    references = [r for p in passes for r in p.reference]
    return {
        "pass_s": (statistics.median(p.seconds * p.scale for p in passes),
                   "s", f"median of {len(passes)} passes, scaled"),
        "op_p50_ms": (statistics.median(op_ms), "ms",
                      f"median of {len(op_ms)} operations' latencies, each "
                      f"the median over {len(passes)} passes, scaled"),
        "op_tail_ms": (tail_ms, "ms",
                       f"{tail_label} operations' latencies, each the "
                       f"median over {len(passes)} passes, scaled"),
        "ops_failed_frac": (failed / attempted, "1",
                            f"{failed} failed of {attempted} attempted"),
        "setup_s": (statistics.median(
            s["setup_s"] * REFERENCE_NOMINAL_S / s["reference_s"]
            for s in setups), "s", f"median of {len(setups)} set-ups, scaled"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", "whole process"),
        "pass_wall_s": (statistics.median(p.seconds for p in passes), "s",
                        f"median of {len(passes)} passes, unscaled"),
        "setup_wall_s": (statistics.median(s["setup_s"] for s in setups),
                         "s", f"median of {len(setups)} set-ups, unscaled"),
        "reference_ms": (1000 * statistics.median(references), "ms",
                         f"median of {len(references)} reference samples; "
                         f"nominal {1000 * REFERENCE_NOMINAL_S:g} ms"),
    }


def per_layer(rounds):
    """Metrics of the traced pass with the median wall time.

    rounds are (untraced pass, traced pass, tracer) triples.  The layer self
    times and trace.untimed_s add up to trace.pass_s; the overhead ratio is
    the median traced pass over the median untraced pass.
    """
    _, chosen, tracer = sorted(rounds, key=lambda r: r[1].seconds)[
        (len(rounds) - 1) // 2]
    out = {}
    for span, seconds in tracer.self_s.items():
        out[span + ".self_s"] = (seconds, "s")
    for span, calls in tracer.calls.items():
        out[span + ".calls"] = (calls, "count")
    for key, value in tracer.counts.items():
        unit = "B" if key.endswith("bytes") else "count"
        out[key] = (value, unit)
    layers = tracer.layer_self_s()
    for layer, seconds in layers.items():
        out[layer + ".self_s"] = (seconds, "s")
    out["trace.pass_s"] = (chosen.seconds, "s")
    out["trace.untimed_s"] = (chosen.seconds - sum(layers.values()), "s")
    out["trace.overhead_ratio"] = (
        statistics.median(r[1].seconds for r in rounds)
        / statistics.median(r[0].seconds for r in rounds), "1")
    return out


# ---------------------------------------------------------------------------
# Environment and reporting

def environment(seed):
    from denseamalgam import _kernels
    import numpy
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "denseamalgam")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or None
    return {
        "kernel_path": "numba" if _kernels.numba_enabled() else "numpy",
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _declared(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"]
            for m in _spec()["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    _use_checkout_source()
    sys.path.insert(0, HERE)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setups = None if args.trace else _time_setups(args.workload,
                                                      args.seed, work)
        import workloads
        ops = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            from spans import Tracer

            def one_round():
                plain = run_pass(ops)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_pass(ops)
                finally:
                    tracer.uninstall()
                return plain, traced, tracer

            rounds = _repeat(args.seconds, one_round)
            passes = [p for r in rounds for p in r[:2]]
            detail = per_layer(rounds)
        else:
            passes = _repeat(args.seconds,
                             lambda: run_pass(ops, reference=True))
            detail = end_to_end(passes, setups)
        env = environment(args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"workload: {args.workload}  trace: {args.trace}  "
          f"operations per pass: {len(ops)}  pass seconds: "
          + " ".join(f"{p.seconds:.3f}" for p in passes))
    print("environment: " + json.dumps(env, sort_keys=True))
    failures = passes[0].failures
    print(f"failed operations per pass: {len(failures)}")
    if any(p.failures != failures for p in passes):
        print("  the failures differ between passes")
    for label, reason in failures:
        print(f"  FAILED {label}: {reason}")
    for name, entry in sorted(detail.items()):
        note = f"  ({entry[2]})" if len(entry) > 2 else ""
        print(f"  {name} = {entry[0]!r} {entry[1]}{note}")
    # a layer the workload never calls has zero calls and zero time; only
    # per-layer metrics can be missing, the end-to-end ones are never 0
    metrics = {name: {"value": detail[name][0] if name in detail else 0,
                      "unit": unit}
               for name, unit in _declared(args.trace).items()}
    record = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dict(record, workload=args.workload, trace=args.trace,
                           environment=env,
                           failures=[list(f) for f in failures],
                           detail={k: list(v) for k, v in detail.items()}),
                      fh, indent=1, sort_keys=True)
    print(json.dumps(record))


def run_all(args):
    """Every declared workload in a fresh process; one table of end-to-end
    metrics, then one untimed pass over the known defects."""
    names = [w["name"] for w in _spec()["workloads"]]
    os.makedirs(WORK, exist_ok=True)
    rows = {}
    for name in names:
        out = os.path.join(WORK, f"all-{name}-{os.getpid()}.json")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--out", out],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} failed to run")
        with open(out) as fh:
            rows[name] = json.load(fh)
        os.remove(out)
    print()
    for metric in ("pass_s", "op_p50_ms", "op_tail_ms", "ops_failed_frac",
                   "setup_s", "peak_rss_mb"):
        for name, rec in rows.items():
            value, unit, samples = rec["detail"][metric]
            print(f"{metric:<16}{name:<17}{value:>12.6g} {unit:<3} {samples}")
    known_defects(args.seed)
    print(json.dumps({n: {k: r[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}
                      for n, r in rows.items()}))


def known_defects(seed):
    """Print the failures of the configurations that no workload runs
    because the program fails them (workloads.KNOWN_DEFECTS)."""
    _use_checkout_source()
    sys.path.insert(0, HERE)
    import workloads
    work = os.path.join(WORK, f"known_defects-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run_pass(workloads.known_defects(seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"\nknown defects (ROADMAP 3b), in no workload: "
          f"{len(result.failures)} failed of {result.attempted} attempted")
    for label, reason in result.failures:
        print(f"  FAILED {label}: {reason}")


def main(argv=None):
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[
        w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON")
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into:
        _setup_child(args.workload, args.seed, args.setup_into)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
