import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krylov.storage import (DiagCompressed, RowCompressed,
                            Triplets, build, operator, read_matrix_market, to_dense,
                            to_triplets, write_matrix_market)
from krylov.storage import read_vector_market, write_vector_market
from krylov.problems import poisson_test


def random_triplets(n, density, rng):
    mask = rng.random((n, n)) < density
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
    r, c = np.nonzero(dense)
    return Triplets(n, r, c, dense[r, c]), dense


def test_row_identity():
    a = build(Triplets(3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0]), "row")
    assert a.k == 1
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(a.matvec(x), x)


def test_row_poisson_matches_dense():
    inst = poisson_test(3)
    t = to_triplets(inst.a)
    a_row = build(t, "row")
    dense = to_dense(inst.a)
    x = np.ones(9)
    np.testing.assert_allclose(a_row.matvec(x), dense @ x, rtol=1e-14, atol=1e-14)


def test_row_random_matches_dense(rng):
    t, dense = random_triplets(8, 0.3, rng)
    a = build(t, "row")
    x = rng.standard_normal(8)
    y = dense @ x
    np.testing.assert_allclose(a.matvec(x), y, rtol=1e-14, atol=1e-14 * np.abs(y).max())


def test_col_identity_and_zero_column():
    a = build(Triplets(3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0]), "col")
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(a.matvec(x), x)
    # a column with no entries contributes nothing
    t = Triplets(3, [0, 1], [0, 0], [2.0, 3.0])
    a = build(t, "col")
    np.testing.assert_allclose(a.matvec(np.array([1.0, 5.0, 7.0])), [2.0, 3.0, 0.0])


def test_col_matches_row_on_poisson():
    inst = poisson_test(3)
    t = to_triplets(inst.a)
    x = np.linspace(-1, 1, 9)
    y_row = build(t, "row").matvec(x)
    y_col = build(t, "col").matvec(x)
    np.testing.assert_allclose(y_col, y_row, rtol=1e-15, atol=1e-15)


def test_diag_single_diagonal():
    d = np.array([2.0, 3.0, 4.0])
    a = DiagCompressed(3, 1, d.reshape(3, 1), np.array([0]))
    x = np.array([1.0, 1.0, 2.0])
    np.testing.assert_allclose(a.matvec(x), d * x)


def test_diag_tridiagonal_row_sums():
    # T_4 = tridiag(-1, 2, -1): row sums are (1, 0, 0, 1)
    t = Triplets(4,
                 [0, 0, 1, 1, 1, 2, 2, 2, 3, 3],
                 [0, 1, 0, 1, 2, 1, 2, 3, 2, 3],
                 [2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0])
    a = build(t, "diag")
    np.testing.assert_allclose(a.matvec(np.ones(4)), [1.0, 0.0, 0.0, 1.0])


def test_diag_poisson_matches_dense(rng):
    inst = poisson_test(5)
    dense = to_dense(inst.a)
    x = rng.standard_normal(25)
    y = dense @ x
    np.testing.assert_allclose(inst.a.matvec(x), y,
                               rtol=1e-14, atol=1e-14 * np.abs(dense).max())


def test_build_empty_triplets_degenerate_rows():
    a = build(Triplets(3, [], [], []), "row")
    assert a.k == 1
    assert np.all(a.vals == 0.0)
    np.testing.assert_array_equal(a.cols[:, 0], [0, 1, 2])


def test_build_sums_duplicates():
    a = build(Triplets(2, [0, 0], [0, 0], [1.0, 2.0]), "row")
    assert a.vals[0, 0] == 3.0
    assert a.to_triplets().vals.tolist() == [3.0]


def test_build_poisson_diag_structure():
    inst = poisson_test(3)
    assert inst.a.k == 5
    np.testing.assert_array_equal(inst.a.offsets, [-3, -1, 0, 1, 3])


def test_padding_repeats_last_used_index():
    t = Triplets(4, [0, 0, 2], [1, 3, 2], [5.0, -2.0, 7.0])
    a = build(t, "row")
    np.testing.assert_array_equal(a.cols[0], [1, 3])
    np.testing.assert_array_equal(a.cols[1], [1, 1])  # empty row: own index
    np.testing.assert_array_equal(a.cols[2], [2, 2])


def test_padded_slots_are_inert(rng):
    # padded value slots are exactly zero, so rewriting the padded column
    # indices to arbitrary valid positions cannot change the product
    t, dense = random_triplets(10, 0.15, rng)
    a = build(t, "row")
    x = rng.standard_normal(10)
    y_ref = a.matvec(x)
    used = np.array([[v != 0.0 for v in row] for row in a.vals])
    cols = a.cols.copy()
    cols[~used] = rng.integers(0, 10, size=int((~used).sum()))
    hacked = RowCompressed(a.n, a.k, a.vals, cols)
    np.testing.assert_array_equal(hacked.matvec(x), y_ref)


@pytest.mark.parametrize("fmt", ["row", "col", "diag"])
def test_cross_format_equivalence(fmt, rng):
    for _ in range(50):
        n = int(rng.integers(1, 33))
        t, dense = random_triplets(n, float(rng.uniform(0.05, 0.5)), rng)
        x = rng.standard_normal(n)
        y_ref = dense @ x
        scale = max(np.abs(dense).max() * np.abs(x).max(), 1e-30)
        y = build(t, fmt).matvec(x)
        assert np.abs(y - y_ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("fmt", ["row", "col", "diag"])
def test_build_extract_round_trip(fmt, rng):
    t, dense = random_triplets(12, 0.25, rng)
    a = build(t, fmt)
    rebuilt = build(a.to_triplets(), fmt)
    for _ in range(50):
        x = rng.standard_normal(12)
        np.testing.assert_array_equal(a.matvec(x), rebuilt.matvec(x))


def test_rmatvec_matches_dense_transpose(rng):
    t, dense = random_triplets(9, 0.3, rng)
    x = rng.standard_normal(9)
    for fmt in ("row", "col", "diag"):
        a = build(t, fmt)
        np.testing.assert_allclose(a.rmatvec(x), dense.T @ x, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("fmt", ["row", "col"])
def test_scatter_products_match_add_at_bitwise(fmt, rng):
    # rmatvec (row) and matvec (col) scatter-add in the index grid's C order
    t, _ = random_triplets(40, 0.2, rng)
    a = build(t, fmt)
    x = rng.standard_normal(40)
    y = np.zeros(40)
    if fmt == "row":
        np.add.at(y, a.cols, a.vals * x[:, None])
        assert np.array_equal(a.rmatvec(x), y)
    else:
        np.add.at(y, a.rows, a.vals * x[None, :])
        assert np.array_equal(a.matvec(x), y)


def test_matrix_market_single_entry():
    t = read_matrix_market("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n")
    assert t.n == 1
    assert (t.rows.tolist(), t.cols.tolist(), t.vals.tolist()) == ([0], [0], [5.0])


def test_matrix_market_symmetric_expansion():
    text = ("%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 2.0\n2 2 3.0\n2 1 -1.0\n")
    t = read_matrix_market(text)
    np.testing.assert_allclose(to_dense(t), [[2.0, -1.0], [-1.0, 3.0]])


def test_matrix_market_round_trip(rng):
    t, _ = random_triplets(20, 0.2, rng)
    t = t.coalesced()
    t2 = read_matrix_market(write_matrix_market(t)).coalesced()
    np.testing.assert_array_equal(t.rows, t2.rows)
    np.testing.assert_array_equal(t.cols, t2.cols)
    np.testing.assert_array_equal(t.vals, t2.vals)


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 5.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
    "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n",
])
def test_matrix_market_rejects_malformed(text):
    with pytest.raises(ValueError):
        read_matrix_market(text)


def test_triplets_validation():
    with pytest.raises(ValueError):
        Triplets(2, [0], [2], [1.0])
    with pytest.raises(ValueError):
        Triplets(2, [0], [0], [np.inf])


def test_vector_market_round_trip(rng):
    b = rng.standard_normal(7)
    text = write_vector_market(b)
    assert text.splitlines()[:2] == ["%%MatrixMarket matrix coordinate real general", "7 1 7"]
    np.testing.assert_array_equal(read_vector_market(text, 7), b)


def test_vector_market_sparse_entries_and_duplicates():
    text = "%%MatrixMarket matrix coordinate real general\n3 1 3\n1 1 2.0\n3 1 1.0\n3 1 0.5\n"
    np.testing.assert_array_equal(read_vector_market(text, 3), [2.0, 0.0, 1.5])


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix coordinate real general\n3 1 1\n0 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n3 1 1\n4 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n3 1 2\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n3 1 1\n1 1 inf\n",
    "%%MatrixMarket matrix coordinate real general\n4 1 1\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real symmetric\n3 1 1\n1 1 1.0\n",
], ids=["index-zero", "index-past-n", "missing-entries", "non-finite", "wrong-length",
        "symmetric-kind"])
def test_vector_market_rejects_malformed(text):
    with pytest.raises(ValueError):
        read_vector_market(text, 3)


def test_matrix_market_symmetric_writer_keeps_lower_triangle():
    a = poisson_test(3).a
    text = write_matrix_market(to_triplets(a), symmetric=True)
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    assert lines[1] == "9 9 21"  # 9 diagonal + 12 strictly lower entries
    assert all(int(i) >= int(j) for i, j, _ in (ln.split() for ln in lines[2:]))
    np.testing.assert_array_equal(to_dense(read_matrix_market(text)), to_dense(a))


class _MatvecOnly:
    """An operand with an action but no transpose action and no size."""

    def __init__(self, a):
        self.a = a

    def matvec(self, x):
        return self.a @ x


def _operands(t, dense):
    """name -> (operand, has a transpose action, size operator() reports)."""
    bare = lambda x: dense @ x
    sized = lambda x: dense @ x
    sized.n = t.n
    return {
        "ndarray": (dense, True, t.n), "list": (dense.tolist(), True, t.n),
        "triplets": (t, True, t.n), "row": (build(t, "row"), True, t.n),
        "col": (build(t, "col"), True, t.n), "diag": (build(t, "diag"), True, t.n),
        "callable": (bare, False, None), "callable-n": (sized, False, t.n),
        "matvec-only": (_MatvecOnly(dense), False, None),
    }


@pytest.mark.parametrize("name", ["ndarray", "list", "triplets", "row", "col", "diag",
                                  "callable", "callable-n", "matvec-only"])
def test_operator_contract(name, rng):
    t, dense = random_triplets(9, 0.3, rng)
    op, has_transpose, size = _operands(t, dense)[name]
    matvec, rmatvec, n = operator(op)
    x = rng.standard_normal(9)
    np.testing.assert_allclose(matvec(x), dense @ x, rtol=1e-14, atol=1e-14)
    if has_transpose:
        np.testing.assert_allclose(rmatvec(x), dense.T @ x, rtol=1e-14, atol=1e-14)
    else:
        assert rmatvec is None
    assert n == size


def _diag_triplets_by_diagonal(a):
    """Reference: the entries of each stored diagonal inside the grid, in turn."""
    rows, cols, vals = [], [], []
    for r, nu in enumerate(a.offsets.tolist()):
        i = np.arange(max(0, -nu), min(a.n, a.n - nu))
        keep = a.vals[i, r] != 0.0
        rows += i[keep].tolist()
        cols += (i[keep] + nu).tolist()
        vals += a.vals[i, r][keep].tolist()
    return Triplets(a.n, rows, cols, vals).coalesced()


@pytest.mark.parametrize("N", [1, 2, 7])
def test_diag_to_triplets_skips_slots_off_the_grid(N):
    a = poisson_test(N).a
    filled = DiagCompressed(a.n, a.k, np.where(a.vals == 0.0, 7.0, a.vals), a.offsets)
    for d in (a, filled):
        got, want = d.to_triplets().coalesced(), _diag_triplets_by_diagonal(d)
        for field in ("rows", "cols", "vals"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        np.testing.assert_array_equal(d.to_dense() @ np.arange(a.n), d.matvec(np.arange(a.n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
@example(n=4, density=0.0, seed=0)  # no entries: the one-slot empty build
def test_diag_build_is_column_major(n, density, seed):
    t, _ = random_triplets(n, density, np.random.default_rng(seed))
    a = build(t, "diag")
    assert a.vals.flags.f_contiguous and a.vals.shape == (n, a.k)


def _diag_outputs(a, x):
    """Everything the diag format computes from ``a``, as bytes."""
    t = a.to_triplets()
    return (a.matvec(x).view(np.int64).tobytes(), a.rmatvec(x).view(np.int64).tobytes(),
            t.rows.tobytes(), t.cols.tobytes(), t.vals.tobytes(), a.to_dense().tobytes(),
            write_matrix_market(t))


@st.composite
def diag_shapes(draw):
    """(n, sorted distinct offsets) of a diag-format matrix, k from 1 to 5."""
    n = draw(st.integers(1, 12))
    offsets = draw(st.lists(st.integers(1 - n, n - 1), min_size=1,
                            max_size=min(5, 2 * n - 1), unique=True))
    return n, sorted(offsets)


@settings(max_examples=80, deadline=None)
@given(diag_shapes(), st.integers(0, 2**32 - 1), st.booleans())
@example(shape=(1, [0]), seed=0, fill_off_grid=False)
@example(shape=(5, [-2]), seed=1, fill_off_grid=True)
def test_diag_results_do_not_depend_on_layout(shape, seed, fill_off_grid):
    n, offsets = shape[0], np.array(shape[1])
    k = offsets.size
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, k)) * (rng.random((n, k)) < 0.8)
    col = np.arange(n)[:, None] + offsets
    # slots whose column leaves the grid are never read
    vals = np.where((col >= 0) & (col < n), vals, 7.5 if fill_off_grid else 0.0)
    x = rng.standard_normal(n)
    x[rng.random(n) < 0.2] = -0.0
    a = DiagCompressed(n, k, vals, offsets)  # a C-order array is stored column-major
    assert a.vals.flags.f_contiguous and np.array_equal(a.vals, vals)
    c_order = DiagCompressed(n, k, vals, offsets)
    c_order.vals = vals  # bypass the conversion: results must not depend on layout
    assert c_order.vals.flags.c_contiguous
    assert _diag_outputs(a, x) == _diag_outputs(c_order, x)


def _coalesced_by_unique(t):
    """Duplicate sums by ``np.unique`` and ``np.bincount``, for any entry order."""
    key = t.rows * t.n + t.cols
    uniq, inverse = np.unique(key, return_inverse=True)
    return Triplets(t.n, uniq // t.n, uniq % t.n,
                    np.bincount(inverse, weights=t.vals, minlength=uniq.size))


@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.booleans())
@example(n=3, density=1.0, seed=0, signed_zeros=True)
def test_coalesced_sorted_entries_match_the_unique_path(n, density, seed, signed_zeros):
    rng = np.random.default_rng(seed)
    t, _ = random_triplets(n, density, rng)  # row-major, so keys strictly increase
    if signed_zeros:  # stored zeros of both signs: the unique path sums 0.0 + -0.0 to 0.0
        t.vals[rng.random(t.vals.size) < 0.4] = -0.0
        t.vals[rng.random(t.vals.size) < 0.2] = 0.0
    got, want = t.coalesced(), _coalesced_by_unique(t)
    for field in ("rows", "cols", "vals"):
        have, expect = getattr(got, field), getattr(want, field)
        assert have.dtype == expect.dtype and have.tobytes() == expect.tobytes(), field
