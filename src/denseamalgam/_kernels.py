"""Hot numeric kernels: numba-jitted with a pure-numpy fallback path.

Set DENSEAMALGAM_DISABLE_NUMBA=1 to force the numpy path; it is also taken
automatically when numba is not importable.  Both implementations are
exported so benchmarks and parity tests can call them directly.
"""

import os

import numpy as np

try:
    from numba import njit
except ImportError:  # pragma: no cover - covered via the env flag path
    njit = None


def numba_available() -> bool:
    return njit is not None


def numba_enabled() -> bool:
    return njit is not None and os.environ.get("DENSEAMALGAM_DISABLE_NUMBA") != "1"


def floyd_warshall_numpy(dist):
    """All-pairs shortest-path closure, in place; returns its argument."""
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
    return dist


def max_triangle_violation_numpy(dist):
    """Largest d(i,j) - (d(i,k) + d(k,j)) over all triples.

    Assumes a zero diagonal, so the result is always >= 0; at most 0 (up to
    slack) means the matrix is a metric.

    Keeps the running min-plus square best = min_k (d[:, k] + d[k, :]) in
    one buffer, updated in place through a second, and subtracts once at
    the end.  Rounding is monotone, so fl(a - b) never grows with b and
    max_k fl(a - b_k) = fl(a - min_k b_k): the result is bit-identical to
    taking the maximum per k, with no n x n temporaries allocated per k.
    """
    n = dist.shape[0]
    if n == 0:
        return 0.0
    best = dist[:, 0:1] + dist[0:1, :]
    scratch = np.empty_like(best)
    for k in range(1, n):
        np.add(dist[:, k:k + 1], dist[k:k + 1, :], out=scratch)
        np.minimum(best, scratch, out=best)
    np.subtract(dist, best, out=scratch)
    return float(scratch.max())


if njit is not None:

    @njit(cache=True)
    def _floyd_warshall_jit(dist):  # pragma: no cover - compiled
        n = dist.shape[0]
        for k in range(n):
            for i in range(n):
                dik = dist[i, k]
                for j in range(n):
                    alt = dik + dist[k, j]
                    if alt < dist[i, j]:
                        dist[i, j] = alt

    @njit(cache=True)
    def _max_triangle_violation_jit(dist):  # pragma: no cover - compiled
        n = dist.shape[0]
        worst = 0.0
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    v = dist[i, j] - (dist[i, k] + dist[k, j])
                    if v > worst:
                        worst = v
        return worst


def floyd_warshall(dist):
    """Shortest-path closure of a square float matrix; returns a new array."""
    out = np.array(dist, dtype=np.float64)
    if numba_enabled():
        _floyd_warshall_jit(out)
    else:
        floyd_warshall_numpy(out)
    return out


def max_triangle_violation(dist):
    mat = np.ascontiguousarray(dist, dtype=np.float64)
    if mat.shape[0] == 0:
        return 0.0
    if numba_enabled():
        return float(_max_triangle_violation_jit(mat))
    return float(max_triangle_violation_numpy(mat))
