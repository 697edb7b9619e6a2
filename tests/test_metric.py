"""Metric space container, disjoint unions, file formats, and kernels."""

import csv
import json
import locale
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import submatrix
from denseamalgam import _kernels
from denseamalgam import metric as metric_mod
from denseamalgam.approx import build_approx, load_bundle, save_bundle
from denseamalgam.metric import (
    FiniteMetricSpace,
    disjoint_union,
    read_matrix_csv,
    space_from_json,
    write_matrix_csv,
)

TWO = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])


def subspace(x, points):
    """The subspace of x on points: any subset of a metric space is one."""
    return FiniteMetricSpace(points, submatrix(x, points), _check=False)


def space_to_json(x):
    """The document `space_from_json` reads."""
    return json.dumps({"points": list(x.points), "dist": x.dist.tolist()},
                      indent=2)


def circle_net(n=5):
    return FiniteMetricSpace(
        [f"c{i}" for i in range(n)],
        [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)])


# tree-composed matrices: the criterion-7 builds and a two-class build
BUILDS = {
    "two-point": ([TWO], 3, 3, 1 / 3),
    "circle5": ([circle_net()], 3, 3, 1 / 3),
    "circle5+two": ([circle_net(), TWO], 2, 3, 1 / 3),
}


def triangle_oracle(dist):
    """The per-k triangle scan: worst slack over each k, maximised."""
    worst = -np.inf
    for k in range(dist.shape[0]):
        slack = dist - (dist[:, k:k + 1] + dist[k:k + 1, :])
        worst = max(worst, float(slack.max()))
    return worst


def write_oracle(x, path):
    """The cell-by-cell writer: repr of every cell through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(x.points))
        for p, row in zip(x.points, x.dist):
            writer.writerow([p] + [repr(float(v)) for v in row])


# distances at the edges of repr's formats: zeros, subnormals, the largest
# floats, and both sides of the switches to exponent notation
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-5,
               9.999999999999999e-06, 1.0000000000000002e-05, 0.0001, 1.0,
               1 / 3, 9999999999999998.0, 1e16, 1.0000000000000002e16, 1e22,
               1e300, 1.7976931348623157e308]
# quoting: delimiter, quote, line ends, spaces, the empty name; non-ASCII
NAME_CHARS = ',"\r\n ab\u00e9\u03b1\u4e2d\U0001f600'


def encodable(name):
    try:
        name.encode(locale.getpreferredencoding(False))
    except UnicodeEncodeError:
        return False
    return True


@st.composite
def csv_spaces(draw):
    """A symmetric matrix over drawn names; -0.0 may sit on the diagonal.
    The renderer needs no metric axioms, so none are checked."""
    n = draw(st.integers(1, 7))
    names = draw(st.lists(st.text(NAME_CHARS, max_size=3).filter(encodable),
                          min_size=n, max_size=n, unique=True))
    value = st.one_of(st.sampled_from(EDGE_VALUES),
                      st.floats(min_value=0.0, allow_infinity=False))
    mat = np.zeros((n, n))
    mat[np.diag_indices(n)] = draw(st.lists(st.sampled_from([0.0, -0.0]),
                                            min_size=n, max_size=n))
    upper = np.triu_indices(n, 1)
    mat[upper] = draw(st.lists(value, min_size=len(upper[0]),
                               max_size=len(upper[0])))
    mat.T[upper] = mat[upper]
    return FiniteMetricSpace(names, mat, _check=False)


def euclidean_space(coords):
    names = [f"q{i}" for i in range(len(coords))]
    mat = [[math.dist(p, q) for q in coords] for p in coords]
    return FiniteMetricSpace(names, mat)


point_sets = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    min_size=1, max_size=10, unique=True)


class TestConstruction:
    def test_needs_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            FiniteMetricSpace([], [])

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="must be 2x2"):
            FiniteMetricSpace(["a", "b"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="self-distances"):
            FiniteMetricSpace(["a", "b"], [[0.5, 1], [1, 0]])

    def test_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])

    def test_zero_off_diagonal(self):
        with pytest.raises(ValueError, match="positive distance"):
            FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_one_non_positive_off_diagonal_pair(self, value):
        # one pair among positive ones, so neither the minimum alone nor
        # the zero count alone would catch every case
        rows = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        rows[0][2] = rows[2][0] = value
        with pytest.raises(ValueError, match="positive distance"):
            FiniteMetricSpace(["a", "b", "c"], rows)

    def test_triangle_violation(self):
        with pytest.raises(ValueError, match="triangle inequality"):
            FiniteMetricSpace(["a", "b", "c"],
                              [[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    def test_triangle_slack_boundary(self):
        d = 2 + 1e-13  # violates by 1e-13, inside the 1e-12 slack
        FiniteMetricSpace(["a", "b", "c"],
                          [[0, 1, d], [1, 0, 1], [d, 1, 0]])
        bad = 2 + 1e-9
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace(["a", "b", "c"],
                              [[0, 1, bad], [1, 0, 1], [bad, 1, 0]])

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_triangle_slack_scales_with_diameter(self, scale):
        # rounding of 1e-13 relative passes at any scale, 1e-9 never does
        d = scale * (2 + 1e-13)
        FiniteMetricSpace(["a", "b", "c"],
                          [[0, scale, d], [scale, 0, scale], [d, scale, 0]])
        bad = scale * (2 + 1e-9)
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace(["a", "b", "c"], [[0, scale, bad],
                                                [scale, 0, scale],
                                                [bad, scale, 0]])

    def test_infinite_entry(self):
        with pytest.raises(ValueError, match="finite"):
            FiniteMetricSpace(["a", "b"], [[0, math.inf], [math.inf, 0]])

    def test_accessors(self):
        x = FiniteMetricSpace(["a", "b", "c"],
                              [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
        assert len(x) == 3
        assert x.distance("a", "c") == 2
        assert x.diam() == 2
        sub = subspace(x, ["c", "a"])
        assert sub.points == ("c", "a")
        assert sub.distance("c", "a") == 2

    def test_matrix_read_only(self):
        with pytest.raises(ValueError):
            TWO.dist[0, 1] = 5.0

    def test_checked_space_copies_the_callers_array(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = FiniteMetricSpace(["a", "b"], mat)
        assert mat.flags.writeable and not np.shares_memory(mat, x.dist)
        mat[0, 1] = mat[1, 0] = 5.0
        assert x.distance("a", "b") == 1.0

    def test_unchecked_space_takes_the_array_over(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = FiniteMetricSpace(["a", "b"], mat, _check=False)
        assert x.dist is mat and not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 1] = 5.0

    @given(point_sets)
    @settings(max_examples=40, deadline=None)
    def test_euclidean_sets_are_metrics(self, coords):
        x = euclidean_space(coords)
        assert x.diam() >= 0


class TestDisjointUnion:
    def test_cross_distance(self):
        far = FiniteMetricSpace(["u", "v"], [[0, 2], [2, 0]])
        un = disjoint_union([TWO, far])
        assert un.points == ((0, "a"), (0, "b"), (1, "u"), (1, "v"))
        assert un.distance((0, "a"), (1, "u")) == 1 + 2 + 1
        assert un.distance((0, "a"), (0, "b")) == 1
        assert un.diam() == 4

    def test_result_is_a_metric(self):
        far = FiniteMetricSpace(["u", "v"], [[0, 2], [2, 0]])
        un = disjoint_union([TWO, far, TWO])
        FiniteMetricSpace(un.points, un.dist)  # re-validate all axioms

    def test_single_space(self):
        un = disjoint_union([TWO])
        assert np.array_equal(un.dist, TWO.dist)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one space"):
            disjoint_union([])


class TestKernels:
    def test_floyd_warshall_golden(self):
        inf = np.inf
        mat = np.array([
            [0.0, 1.0, inf, inf],
            [1.0, 0.0, 2.0, inf],
            [inf, 2.0, 0.0, 1.0],
            [inf, inf, 1.0, 0.0],
        ])
        out = _kernels.floyd_warshall(mat)
        assert out[0, 3] == 4.0
        assert out[0, 2] == 3.0
        assert mat[0, 3] == inf  # input untouched

    def test_closure_is_idempotent(self):
        mat = np.random.default_rng(0).uniform(0.5, 10, (12, 12))
        mat = (mat + mat.T) / 2
        np.fill_diagonal(mat, 0.0)
        once = _kernels.floyd_warshall(mat)
        assert np.array_equal(_kernels.floyd_warshall(once), once)

    def test_closure_satisfies_triangle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(2, 15)
            mat = rng.uniform(0.5, 10, (n, n))
            mat = (mat + mat.T) / 2
            np.fill_diagonal(mat, 0.0)
            closed = _kernels.floyd_warshall(mat)
            assert _kernels.max_triangle_violation(closed) <= 1e-12

    def test_triangle_violation_golden(self):
        mat = np.array([[0.0, 1, 3], [1, 0.0, 1], [3, 1, 0.0]])
        assert _kernels.max_triangle_violation(mat) == pytest.approx(1.0)
        metric = np.array([[0.0, 1, 2], [1, 0.0, 1], [2, 1, 0.0]])
        assert _kernels.max_triangle_violation(metric) <= 0.0 + 1e-15

    def test_triangle_scan_matches_oracle_on_premetrics(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 7, 30, 64):
            raw = rng.random((n, n))
            mat = raw + raw.T
            np.fill_diagonal(mat, 0.0)
            assert _kernels.max_triangle_violation(mat) == triangle_oracle(mat)
        # the only shortcut runs through hub k, whichever point that is
        for k in range(6):
            mat = np.full((6, 6), 2.0)
            mat[k, :] = mat[:, k] = 0.5
            np.fill_diagonal(mat, 0.0)
            assert _kernels.max_triangle_violation(mat) == 1.0

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_triangle_scan_matches_oracle_on_builds(self, name):
        mat = np.array(build_approx(*BUILDS[name]).space.dist)
        assert _kernels.max_triangle_violation(mat) == triangle_oracle(mat)
        rng = np.random.default_rng(3)
        for _ in range(3):
            i, j = rng.integers(0, len(mat), 2)
            bumped = mat.copy()
            bumped[i, j] *= 1.0 + rng.choice([-1e-3, 1e-3, 1e-14])
            assert _kernels.max_triangle_violation(bumped) \
                == triangle_oracle(bumped)

    def test_metric_matrix_is_fixed_point(self):
        closed = _kernels.floyd_warshall(TWO.dist)
        assert np.array_equal(closed, TWO.dist)


@pytest.fixture(scope="module")
def tree_bundle(tmp_path_factory):
    """The bytes of a certified 387-point bundle: circle9, depth 3,
    branching 3."""
    a = build_approx([circle_net(9)], 3, 3, 1 / 3)
    d = tmp_path_factory.mktemp("bundle")
    save_bundle(a, d / "m.csv", d / "m.json")
    assert load_bundle(d / "m.csv", d / "m.json").space.validation \
        == "rebuild"
    return (d / "m.csv").read_bytes(), (d / "m.json").read_bytes()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """A directory for tests that draw many examples; each example
    overwrites the files it uses."""
    return tmp_path_factory.mktemp("csv")


class TestSerialization:
    def test_json_round_trip(self):
        x = FiniteMetricSpace(["a", "b", "c"],
                              [[0, 1, 2], [1, 0, 1.25], [2, 1.25, 0]])
        again = space_from_json(space_to_json(x))
        assert again == x

    def test_json_errors(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            space_from_json("{")
        with pytest.raises(ValueError, match="JSON object"):
            space_from_json("[1]")
        with pytest.raises(ValueError, match="missing key 'dist'"):
            space_from_json('{"points": ["a"]}')
        with pytest.raises(ValueError, match="nonempty list of strings"):
            space_from_json('{"points": [], "dist": []}')
        with pytest.raises(ValueError, match="triangle"):
            space_from_json(
                '{"points": ["a","b","c"],'
                ' "dist": [[0,1,3],[1,0,1],[3,1,0]]}')

    def test_integer_beyond_float_range_is_refused(self):
        with pytest.raises(ValueError, match=r"entry \[0\]\[1\] 1000"):
            space_from_json('{"points": ["a", "b"], "dist": [[0, 1%s], '
                            '[1%s, 0]]}' % ("0" * 400, "0" * 400))

    def test_csv_round_trip_is_exact(self, tmp_path):
        mat = [[0, 1 / 3, 2 / 7], [1 / 3, 0, 0.1], [2 / 7, 0.1, 0]]
        x = FiniteMetricSpace(["a", "b", "c"], mat)
        path = tmp_path / "m.csv"
        write_matrix_csv(x, path)
        again = read_matrix_csv(path)
        assert again.points == x.points
        assert np.array_equal(again.dist, x.dist)

    def test_csv_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_matrix_csv(path)
        path.write_text(",a,b\na,0,1\n")
        with pytest.raises(ValueError, match="row count"):
            read_matrix_csv(path)
        path.write_text(",a,b\nz,0,1\nb,1,0\n")
        with pytest.raises(ValueError, match="row label"):
            read_matrix_csv(path)
        path.write_text(",a,b\na,0,1\nb,x,0\n")
        with pytest.raises(ValueError, match="could not convert"):
            read_matrix_csv(path)
        path.write_text(",a,b\na,0,1\nb,1\n")
        with pytest.raises(ValueError, match="'b' has wrong length"):
            read_matrix_csv(path)
        path.write_text(",a\n\n")
        with pytest.raises(ValueError, match="row label"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_csv_bytes_match_oracle_on_builds(self, tmp_path, name):
        x = build_approx(*BUILDS[name]).space
        write_matrix_csv(x, tmp_path / "new.csv")
        write_oracle(x, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "old.csv").read_bytes()
        again = read_matrix_csv(tmp_path / "new.csv")
        assert again.points == x.points
        assert np.array_equal(again.dist, x.dist)

    @pytest.mark.parametrize("cells", [1, 7, 40])
    def test_csv_bytes_match_oracle_in_row_blocks(self, tmp_path, monkeypatch,
                                                  cells):
        monkeypatch.setattr(metric_mod, "_BLOCK_CELLS", cells)
        x = build_approx(*BUILDS[sorted(BUILDS)[0]]).space
        write_matrix_csv(x, tmp_path / "new.csv")
        write_oracle(x, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "old.csv").read_bytes()

    def test_csv_keeps_negative_zero_and_quoted_labels(self, tmp_path):
        x = FiniteMetricSpace(["", "a,b", 'q"x'], [[-0.0, 1.0, 0.5],
                                                 [1.0, 0.0, 0.5],
                                                 [0.5, 0.5, 0.0]])
        write_matrix_csv(x, tmp_path / "new.csv")
        write_oracle(x, tmp_path / "old.csv")
        text = (tmp_path / "new.csv").read_bytes()
        assert text == (tmp_path / "old.csv").read_bytes()
        assert b",-0.0," in text and b'"a,b",' in text
        again = read_matrix_csv(tmp_path / "new.csv")
        assert again.points == x.points
        assert np.signbit(again.dist[0, 0]) and not np.signbit(again.dist[1, 1])

    @settings(max_examples=60, deadline=None)
    @given(x=csv_spaces(),
           cells=st.sampled_from([1, 7, metric_mod._BLOCK_CELLS, 2 ** 16]))
    def test_csv_bytes_match_oracle_on_drawn_spaces(self, csv_dir, x, cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric_mod, "_BLOCK_CELLS", cells)
            write_matrix_csv(x, csv_dir / "new.csv")
        write_oracle(x, csv_dir / "old.csv")
        assert (csv_dir / "new.csv").read_bytes() \
            == (csv_dir / "old.csv").read_bytes()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(50, 64),
           cells=st.sampled_from([7, 2 ** 16]))
    def test_csv_bytes_match_oracle_when_values_share_slots(self, csv_dir,
                                                            seed, n, cells):
        # n(n-1)/2 random distances in [1, 2), all distinct, so some share a
        # hash slot and their cells take the binary search
        rng = np.random.default_rng(seed)
        mat = np.zeros((n, n))
        upper = np.triu_indices(n, 1)
        mat[upper] = 1.0 + rng.random(len(upper[0]))
        assert len(np.unique(mat[upper])) == len(upper[0])
        mat.T[upper] = mat[upper]
        x = FiniteMetricSpace([f"p{i}" for i in range(n)], mat)
        searched = []
        search = np.searchsorted

        def counted(codes, values):
            searched.append(values.size)
            return search(codes, values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric_mod, "_BLOCK_CELLS", cells)
            mp.setattr(np, "searchsorted", counted)
            write_matrix_csv(x, csv_dir / "new.csv")
        write_oracle(x, csv_dir / "old.csv")
        assert (csv_dir / "new.csv").read_bytes() \
            == (csv_dir / "old.csv").read_bytes()
        assert 0 < sum(searched) < n * n

    @settings(max_examples=40, deadline=None)
    @given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                             max_size=300))
    def test_value_index_slots_name_only_their_own_pattern(self, patterns):
        bits = np.array(patterns, dtype=np.uint64)
        codes, slots, shift = metric_mod._value_index(bits)
        assert codes.tolist() == sorted(set(patterns))
        hashed = ((codes * metric_mod._HASH_MULTIPLIER) >> shift).astype(int)
        assert len(slots) >= min(16 * len(codes), 2 ** 20)
        for i, h in enumerate(hashed):
            sharing = np.count_nonzero(hashed == h)
            assert slots[h] == (i if sharing == 1 else -1)
        index = metric_mod._cell_values(bits, codes, slots, shift)
        assert np.array_equal(codes[index], bits)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_flipped_byte_is_never_certified(self, tree_bundle, csv_dir,
                                             data):
        matrix, sidecar = tree_bundle
        raw = bytearray(matrix)
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw[at] ^= data.draw(st.integers(1, 255), label="mask")
        (csv_dir / "m.csv").write_bytes(bytes(raw))
        (csv_dir / "m.json").write_bytes(sidecar)
        try:
            b = load_bundle(csv_dir / "m.csv", csv_dir / "m.json")
        except ValueError:
            return
        assert b.space.validation == "scan"

    def test_stray_quote_is_a_value_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(',a,b\na,0,"' + "1" * 200_000 + "\nb,1,0\n")
        with pytest.raises(ValueError, match="unreadable matrix CSV"):
            read_matrix_csv(path)

    def test_non_string_points_rejected(self, tmp_path):
        un = disjoint_union([TWO])
        with pytest.raises(ValueError, match="strings"):
            write_matrix_csv(un, tmp_path / "m.csv")
        assert not (tmp_path / "m.csv").exists()
