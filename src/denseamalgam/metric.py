"""Finite metric spaces: validated construction, unions, and file formats."""

import csv
import io
import itertools
import locale
import os

import numpy as np

from ._json import document, loads, require
from ._kernels import max_triangle_violation

TRIANGLE_SLACK = 1e-12

# Cells per block: a block of rows of the matrix CSV render, and a block of
# rows or columns of the glued matrix's in-place reorder
# (`approx._breadth_first`).  A block's largest temporaries take 8 bytes a
# cell, so at 2^14 cells each stays within 128 KiB, glibc's initial mmap
# threshold: it reuses the heap pages the previous block freed, where a
# larger one is a fresh mapping that faults in on first touch.  approx_sweep
# passes take about 3,900 minor faults at 2^12 to 2^14 cells, 25,600 at
# 2^15 and 48,600 at 2^16.
_BLOCK_CELLS = 2 ** 14
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd: 2^64 / golden ratio
_SLOT_BITS_CAP = 20  # the value hash table has at most 2^20 slots


class FiniteMetricSpace:
    """Ordered point set with a symmetric positive distance matrix.

    Construction checks zero diagonal, exact symmetry, positivity off the
    diagonal, and the triangle inequality within a slack of 1e-12 times
    max(1, diameter): rounding in d(i,k) + d(k,j) grows with the size of the
    distances.  The checked constructor copies dist, so the caller's array
    stays its own.  Internal constructors that guarantee the axioms pass
    _check=False with an array of their own making: the space takes that
    array over, without a copy, and makes it read-only.

    validation says how the axioms were established: "scan" when this
    constructor checked them, "rebuild" when `read_matrix_csv` matched the
    file against a space rebuilt by a construction that guarantees them,
    None for internal constructions.  triangle_violation is the worst
    d(i,j) - (d(i,k) + d(k,j)) the scan measured, None without a scan.
    """

    def __init__(self, points, dist, _check=True):
        self.points = tuple(points)
        if not self.points:
            raise ValueError("a metric space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point names")
        self.index = {p: i for i, p in enumerate(self.points)}
        try:
            mat = (np.array if _check else np.asarray)(dist, dtype=np.float64)
        except (TypeError, OverflowError):
            raise ValueError(f"distance {_non_number(dist)} is not a "
                             "number") from None
        n = len(self.points)
        if mat.shape != (n, n):
            raise ValueError(f"distance matrix must be {n}x{n}")
        self.validation = self.triangle_violation = None
        if _check:
            if not np.all(np.isfinite(mat)):
                raise ValueError("distances must be finite")
            if np.any(mat.diagonal() != 0.0):
                raise ValueError("self-distances must be zero")
            if not np.array_equal(mat, mat.T):
                raise ValueError("distance matrix must be symmetric")
            # the diagonal is zero, so no other entry may be
            if not (mat.min() >= 0.0 and np.count_nonzero(mat) == n * n - n):
                raise ValueError("distinct points need positive distance")
            worst = max_triangle_violation(mat)
            if worst > TRIANGLE_SLACK * max(1.0, float(mat.max())):
                raise ValueError(f"triangle inequality violated by {worst:.3e}")
            self.validation, self.triangle_violation = "scan", worst
        mat.setflags(write=False)
        self.dist = mat

    def __len__(self) -> int:
        return len(self.points)

    def distance(self, p, q) -> float:
        return float(self.dist[self.index[p], self.index[q]])

    def diam(self) -> float:
        return float(self.dist.max())

    def __eq__(self, other):
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.points == other.points and np.array_equal(self.dist, other.dist)

    def __repr__(self):
        return f"FiniteMetricSpace({len(self.points)} points, diam={self.diam():g})"


def _non_number(dist) -> str:
    """Where the nested lists `dist` first hold something not a float."""
    if not isinstance(dist, list):
        return f"matrix {dist!r}"
    for i, row in enumerate(dist):
        if not isinstance(row, list):
            return f"row [{i}] {row!r}"
        for j, value in enumerate(row):
            try:
                float(value)
            except (TypeError, ValueError, OverflowError):
                return f"entry [{i}][{j}] {value!r}"
    return "matrix"


def disjoint_union(spaces) -> FiniteMetricSpace:
    """Disjoint union; points become (part index, original point) pairs.

    Cross-part distance is diam_i + diam_j + 1: any constant at least the
    larger diameter keeps the triangle inequality, this one is fixed for
    reproducibility.
    """
    spaces = list(spaces)
    if not spaces:
        raise ValueError("need at least one space")
    points = [(i, p) for i, x in enumerate(spaces) for p in x.points]
    offsets = np.cumsum([0] + [len(x) for x in spaces])
    n = offsets[-1]
    mat = np.zeros((n, n))
    for i, x in enumerate(spaces):
        mat[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]] = x.dist
        for j in range(i):
            c = x.diam() + spaces[j].diam() + 1.0
            mat[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = c
            mat[offsets[j]:offsets[j + 1], offsets[i]:offsets[i + 1]] = c
    return FiniteMetricSpace(points, mat, _check=False)


# ---------------------------------------------------------------------------
# File formats: JSON for single spaces, CSV for distance matrices.

def _require_str_points(x: FiniteMetricSpace):
    if not all(isinstance(p, str) for p in x.points):
        raise ValueError("point names must be strings for serialization")


def space_from_json(text: str) -> FiniteMetricSpace:
    doc = document(loads(text, ValueError), ValueError, ("points", "dist"))
    # an empty list fails the shape too: the message names both
    points = require(doc["points"] or None, "strings", ValueError,
                     "'points' must be a nonempty list of strings")
    return FiniteMetricSpace(points, doc["dist"])


class _Rows(list):
    """A csv.writer target that keeps each written row as its own string."""

    write = list.append


def _value_index(bits):
    """The sorted distinct bit patterns of bits, with their hash table:
    (codes, slots, shift).

    A pattern c hashes to slot (c * _HASH_MULTIPLIER mod 2^64) >> shift
    (multiply-shift; Dietzfelbinger et al., J. Algorithms 25, 1997).  The
    table has at least 16 slots per pattern, up to _SLOT_BITS_CAP bits of
    slot number.  A slot that patterns hash to holds the index in codes of
    the only one that does, or -1 when two or more do.  Slots no pattern
    hashes to are never read.

    Writing each pattern's index to its slot leaves one of them in every
    slot hashed to; a pattern whose slot then holds another index shares
    it, and the slots of those patterns are set to -1.  A shared slot
    always has such a pattern, since only one of its patterns can hold it.
    """
    ordered = np.sort(bits, axis=None)
    codes = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    slot_bits = min(_SLOT_BITS_CAP, (16 * len(codes) - 1).bit_length())
    shift = np.uint64(64 - slot_bits)
    hashed = ((codes * _HASH_MULTIPLIER) >> shift).view(np.int64)
    order = np.arange(len(codes))
    slots = np.zeros(1 << slot_bits, dtype=np.intp)
    slots[hashed] = order
    slots[hashed[slots[hashed] != order]] = -1
    return codes, slots, shift


def _cell_values(block, codes, slots, shift):
    """The index in codes of each bit pattern in block (see
    `_matrix_csv_blocks`).  Its block-sized temporaries end with the call,
    before the block's text is joined."""
    hashed = block * _HASH_MULTIPLIER
    hashed >>= shift
    index = slots.take(hashed.view(np.int64))
    if index.min() < 0:
        shared = index < 0
        index[shared] = np.searchsorted(codes, block[shared])
    return index


def _matrix_csv_blocks(x: FiniteMetricSpace):
    """`matrix_csv_text` of x in pieces: the header row, then blocks of
    rows of about _BLOCK_CELLS cells each.  A block's temporaries (value
    indices, the index grid, the pieces it names, its text) hold about
    _BLOCK_CELLS entries each, few enough to come from warm heap memory
    (see _BLOCK_CELLS), and `write_matrix_csv` and the certified
    `read_matrix_csv` never hold the whole text.

    Every piece of text a row is made of is built once: for each of the k
    distinct values its repr followed by "," and followed by "\r\n", and
    for each point its label cell and the comma after it, cut from the row
    [point, ""] as ``csv.writer`` writes it (a float's repr never needs
    quoting).  A block of rows is an index grid into those pieces, the
    label column then the cells, and its text is one join of the pieces
    the grid names.

    A cell's value index comes from `_value_index`.  It is exact whatever
    the hash does: the cell's bit pattern c is one of the k codes, and c
    hashes to its own slot, so a slot holding an index is hashed to by c
    alone and holds c's index.  A cell whose slot holds -1 shares it with
    another pattern, and takes the binary search among the sorted codes.
    The hash only decides how many cells take the search; at the 2^20-slot
    cap, with many distinct values, that tends to every cell.
    """
    _require_str_points(x)
    n = len(x)
    bits = x.dist.view(np.uint64)
    codes, slots, shift = _value_index(bits)
    k = len(codes)
    text = [repr(v) for v in codes.view(np.float64).tolist()]
    rows = _Rows()
    writer = csv.writer(rows)
    writer.writerow([""] + list(x.points))
    yield rows.pop()
    # each label row keeps its line end until cut, so that csv quotes a
    # name holding "\r" or "\n" as it does in the header
    writer.writerows([p, ""] for p in x.points)
    pieces = np.array([t + "," for t in text] + [t + "\r\n" for t in text]
                      + [row[:-2] for row in rows], dtype=object)
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, n, step):
        block = bits[start:start + step]
        grid = np.empty((len(block), n + 1), dtype=np.intp)
        grid[:, 0] = np.arange(2 * k + start, 2 * k + start + len(block))
        grid[:, 1:] = _cell_values(block, codes, slots, shift)
        grid[:, n] += k  # the row's last cell ends the line
        yield "".join(pieces[grid].ravel().tolist())


def matrix_csv_text(x: FiniteMetricSpace) -> str:
    """The text of a labelled square table: header row and leading column
    hold point names.

    Cells hold ``repr(float(v))``, the shortest text that reads back to the
    same float.  Each distinct value is formatted once, keyed on its
    float64 bit pattern so that -0.0 and 0.0 keep their own text; a
    tree-composed matrix repeats a few hundred values over its n^2 cells.
    Each cell finds its value through a hash table of the distinct
    patterns, exact by construction, and each block of rows is one join
    (`_matrix_csv_blocks`).  The text is that of ``csv.writer`` writing
    every cell.
    """
    return "".join(_matrix_csv_blocks(x))


def write_matrix_csv(x: FiniteMetricSpace, path):
    """Write `matrix_csv_text` of x to path, a block of rows at a time."""
    blocks = _matrix_csv_blocks(x)
    header = next(blocks)  # point names are checked before the file opens
    encoding = locale.getpreferredencoding(False)
    header.encode(encoding)  # and so is their encoding: a failure leaves no file
    with open(path, "w", encoding=encoding, newline="") as fh:
        fh.write(header)
        fh.writelines(blocks)


def _certified(raw, expected):
    """expected's space for the header's point count, when the binary file
    raw holds exactly its CSV bytes; None otherwise."""
    encoding = locale.getpreferredencoding(False)
    lines = (line.decode(encoding) for line in iter(raw.readline, b""))
    try:
        header = next(csv.reader(lines), None)
    except (UnicodeDecodeError, csv.Error):
        return None  # the full read reports it
    n = len(header or ()) - 1
    if not (header and header[0] == ""
            and os.fstat(raw.fileno()).st_size >= 4 * n * n):
        return None
    x = expected(n)
    if x is None:
        return None
    raw.seek(0)
    for block in _matrix_csv_blocks(x):
        data = block.encode(encoding)
        if raw.read(len(data)) != data:
            return None
    return x if raw.read(1) == b"" else None


class _Floats(dict):
    """Cell text -> float, parsing each distinct text once."""

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def read_matrix_csv(path, expected=None) -> FiniteMetricSpace:
    """Read a `write_matrix_csv` table back as a fully checked space.

    Every row's label and length is checked first.  Then each distinct cell
    text is parsed once with `float` and the matrix is filled in one pass.
    The matrix goes through the complete `FiniteMetricSpace` check, the
    O(n^3) triangle scan included.

    expected, when given, is a function of the header's point count n that
    returns the space the file should hold, or None.  It must return only
    spaces whose axioms hold by construction.  It is asked only when the
    file is long enough for n^2 cells of at least three characters and a
    separator each, so a short file with a long header builds nothing.
    When the file's bytes are exactly `matrix_csv_text` of that space,
    encoded as `write_matrix_csv` encodes it, the file parses to that space
    bit for bit, and the space is returned as it is, with validation
    "rebuild": neither the parse nor the scan runs.  The file is opened
    once, in binary, and compared a block of rows at a time, so neither
    its whole text nor the whole rendered text is held.  Any other file is
    read and checked in full as above.
    """
    with open(path, "rb") as raw:
        if expected is not None:
            x = _certified(raw, expected)
            if x is not None:
                x.validation = "rebuild"
                return x
            raw.seek(0)
        with io.TextIOWrapper(raw, newline="") as fh:
            try:
                rows = list(csv.reader(fh))
            except csv.Error as exc:  # a stray quote opens a huge field
                raise ValueError(f"unreadable matrix CSV: {exc}") from None
    if not rows or rows[0][:1] != [""]:
        raise ValueError("matrix CSV needs a header row starting with an empty cell")
    points = rows[0][1:]
    body = rows[1:]
    if len(body) != len(points):
        raise ValueError("matrix CSV row count does not match header")
    for p, row in zip(points, body):
        if row[:1] != [p]:
            raise ValueError(f"row label {row[0] if row else ''!r} "
                             f"does not match header {p!r}")
        if len(row) != len(points) + 1:
            raise ValueError(f"row {p!r} has wrong length")
    n = len(points)
    cells = itertools.chain.from_iterable(row[1:] for row in body)
    mat = np.fromiter(map(_Floats().__getitem__, cells), dtype=np.float64,
                      count=n * n)
    return FiniteMetricSpace(points, mat.reshape(n, n))
