"""Benchmark the hot metric kernels: closure and triangle scan.

Two inputs per size: a random premetric, and the leading n x n block of a
tree-composed `build_approx` matrix, the shape the CLI chain loads.

Usage: python benchmarks/bench_kernels.py [--sizes 64 128 256] [--repeats 5]
"""

import argparse
import statistics
import time

import numpy as np

from denseamalgam import _kernels
from denseamalgam.approx import build_approx
from denseamalgam.metric import FiniteMetricSpace


def random_premetric(rng, n):
    # symmetric, zero diagonal, not necessarily triangle-tight
    raw = rng.random((n, n))
    dist = raw + raw.T
    np.fill_diagonal(dist, 0.0)
    return dist


def tree_composed(n):
    # 9-point circle nets glued along a 3-ary tree; a block of a metric is
    # a metric
    circle = FiniteMetricSpace(
        [f"c{i}" for i in range(9)],
        [[min(abs(i - j), 9 - abs(i - j)) for j in range(9)] for i in range(9)])
    depth = 0
    while True:
        dist = build_approx([circle], depth, 3, 1 / 3).space.dist
        if len(dist) >= n:
            return np.array(dist[:n, :n])
        depth += 1


def time_call(fn, arg, repeats):
    samples = []
    for _ in range(repeats):
        work = arg.copy()
        t0 = time.perf_counter()
        fn(work)
        samples.append(time.perf_counter() - t0)
    return min(samples), statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[64, 128, 256, 512])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    kernels = [("floyd_warshall", _kernels.floyd_warshall),
               ("max_triangle_violation", _kernels.max_triangle_violation)]

    header = f"{'kernel':<24} {'input':<6} {'n':>5} {'best':>12} {'median':>12}"
    print(header)
    print("-" * len(header))
    for name, fn in kernels:
        for n in args.sizes:
            for kind, dist in (("random", random_premetric(rng, n)),
                               ("tree", tree_composed(n))):
                best, median = time_call(fn, dist, args.repeats)
                print(f"{name:<24} {kind:<6} {n:>5} {best * 1e3:>10.2f}ms "
                      f"{median * 1e3:>10.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
