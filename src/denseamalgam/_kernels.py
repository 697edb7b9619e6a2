"""Hot numeric kernels, in numpy: the shortest-path closure and the
triangle-inequality scan.

Each kernel loops over the pivot index k in Python and does the n x n work
per k in one vectorised numpy call.
"""

import numpy as np


def numba_enabled() -> bool:
    """Always False: the kernels have a numpy implementation only."""
    return False


def floyd_warshall(dist):
    """Shortest-path closure of a square float matrix; returns a new array."""
    out = np.array(dist, dtype=np.float64)
    n = out.shape[0]
    for k in range(n):
        np.minimum(out, out[:, k:k + 1] + out[k:k + 1, :], out=out)
    return out


def max_triangle_violation(dist):
    """Largest d(i,j) - (d(i,k) + d(k,j)) over all triples.

    Assumes a zero diagonal, so the result is always >= 0; at most 0 (up to
    slack) means the matrix is a metric.

    Keeps the running min-plus square best = min_k (d[:, k] + d[k, :]) in
    one buffer, updated in place through a second, and subtracts once at
    the end.  Rounding is monotone, so fl(a - b) never grows with b and
    max_k fl(a - b_k) = fl(a - min_k b_k): the result is bit-identical to
    taking the maximum per k, with no n x n temporaries allocated per k.
    """
    mat = np.ascontiguousarray(dist, dtype=np.float64)
    n = mat.shape[0]
    if n == 0:
        return 0.0
    best = mat[:, 0:1] + mat[0:1, :]
    scratch = np.empty_like(best)
    for k in range(1, n):
        np.add(mat[:, k:k + 1], mat[k:k + 1, :], out=scratch)
        np.minimum(best, scratch, out=best)
    np.subtract(mat, best, out=scratch)
    return float(scratch.max())
