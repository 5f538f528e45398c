import io
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


_MM = "%%MatrixMarket matrix coordinate real general\n"


def test_matrix_market_files_without_entries_read_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = read_matrix_market(_MM + "3 3 0\n")
        b = read_vector_market(_MM + "% none\n\n3 1 0\n", 3)
    assert t.n == 3 and t.rows.size == t.cols.size == t.vals.size == 0
    assert (t.rows.dtype, t.cols.dtype, t.vals.dtype) == (np.int64, np.int64, np.float64)
    assert b.dtype == np.float64 and b.tobytes() == np.zeros(3).tobytes()


def test_matrix_market_takes_tabs_and_blank_and_comment_lines_between_entries():
    text = _MM + "% size next\n3 3 3\n1\t1\t2.5\n\n   \n% a comment\n 3  2 -1e-3 \n\t2 2\t4\n"
    t = read_matrix_market(text)
    assert (t.rows.tolist(), t.cols.tolist(), t.vals.tolist()) == ([0, 2, 1], [0, 1, 1],
                                                                   [2.5, -1e-3, 4.0])


@pytest.mark.parametrize("line,token", [
    ("1.0 1 2.0", "1.0"),                    # an index written as a float
    ("1 1 2.0 % c", None),                   # no comment after an entry
    ("1 1 2.0 # c", None),
    ("9223372036854775808 1 2.0", "9223372036854775808"),  # past int64
    ("1 1", None),
    ("1 1 abc", "abc"),
], ids=["float-index", "percent-comment", "hash-comment", "index-past-int64", "two-tokens",
        "bad-value"])
def test_matrix_market_rejects_a_malformed_entry_line(line, token):
    with pytest.raises(ValueError, match="^malformed entry line: ") as exc:
        read_matrix_market(_MM + "2 2 2\n2 2 1.0\n" + line + "\n")
    assert token is None or f"'{token}'" in str(exc.value)


@pytest.mark.parametrize("bad,reason", [
    ("2 1 abc", "could not convert string 'abc' to float64"),
    ("2 1", "the dtype passed requires 3 columns but 2 were found"),
], ids=["bad-token", "two-columns"])
def test_a_malformed_entry_line_is_named_by_its_line_in_the_file(bad, reason):
    # blank and comment lines before the bad one count, as in an editor
    text = _MM + "% size next\n\n3 3 3\n1 1 2.0\n\n% a comment\n   \n" + bad + "\n3 3 1.0\n"
    with pytest.raises(ValueError) as exc:
        read_matrix_market(text)
    assert str(exc.value).startswith(f"malformed entry line: line 9: '{bad}': {reason}")


@pytest.mark.parametrize("index", ["1.0", "1.5"])
def test_an_index_written_as_a_float_is_rejected_whatever_the_warning_filters(index):
    # numpy < 2 only warns (DeprecationWarning) when it reads "1.0" as an int
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="^malformed entry line: "):
            read_matrix_market(_MM + f"2 2 1\n{index} 1 2.0\n")


@pytest.mark.parametrize("lines,message", [
    # a parse fault is found before a range fault on an earlier line
    (["3 1 1.0", "1 1 x"], "malformed entry line: "),
    # range and non-finite faults are found in file order, named by file line
    (["1 1 nan", "3 1 1.0"], "non-finite value: line 3: '1 1 nan'"),
    (["3 1 nan", "1 1 inf"], "index out of range: line 3: '3 1 nan'"),
    # blank and comment lines before the bad entry count, as in an editor
    (["1 1 1.0", "", "% a comment", "1 0 1.0"], "index out of range: line 6: '1 0 1.0'"),
], ids=["parse-before-range", "non-finite-first", "range-first", "range-after-blank-and-comment"])
def test_matrix_market_fault_order(lines, message):
    with pytest.raises(ValueError, match="^" + message):
        read_matrix_market(_MM + "2 2 2\n" + "\n".join(lines) + "\n")


@st.composite
def coordinate_entries(draw):
    """(n, rows, cols, vals, symmetric): distinct coordinates, in the lower
    triangle when symmetric, and finite values of every magnitude and sign."""
    n, symmetric = draw(st.integers(1, 8)), draw(st.booleans())
    cells = [(i, j) for i in range(n) for j in range(i + 1 if symmetric else n)]
    picked = draw(st.lists(st.sampled_from(cells), unique=True))
    vals = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=len(picked), max_size=len(picked)))
    rows, cols = (np.array([cell[k] for cell in picked], dtype=np.int64) for k in (0, 1))
    return n, rows, cols, np.array(vals, dtype=float), symmetric


def _by_entry(rows, cols, vals):
    return list(zip(rows.tolist(), cols.tolist(), vals.view(np.int64).tolist()))


@settings(max_examples=100, deadline=None)
@given(coordinate_entries())
def test_files_written_by_scipy_read_back_bitwise(case):
    n, rows, cols, vals, symmetric = case
    buf = io.BytesIO()
    scipy.io.mmwrite(buf, scipy.sparse.coo_array((vals, (rows, cols)), shape=(n, n)),
                     precision=17, symmetry="symmetric" if symmetric else "general")
    text = buf.getvalue().decode()
    assert text.splitlines()[1] == "%"
    want = []  # each entry, then its mirror when the file is symmetric
    for i, j, v in _by_entry(rows, cols, vals):
        want += [(i, j, v)] + ([(j, i, v)] if symmetric and i != j else [])
    t = read_matrix_market(text)
    assert _by_entry(t.rows, t.cols, t.vals) == want


@settings(max_examples=100, deadline=None)
@given(coordinate_entries())
def test_scipy_reads_our_files_exactly(case):
    n, rows, cols, vals, symmetric = case
    t = Triplets(n, rows, cols, vals)
    m = scipy.io.mmread(io.StringIO(write_matrix_market(t, symmetric=symmetric)))
    c = t.coalesced()  # what the writer lists: each value as 0.0 + v, so -0.0 as 0.0
    want = _by_entry(c.rows, c.cols, c.vals)
    want += [(j, i, v) for i, j, v in want if symmetric and i != j]
    assert m.shape == (n, n)
    assert sorted(_by_entry(m.row, m.col, m.data)) == sorted(want)
    b = vals[:n] if vals.size >= n else np.resize(vals, n) if vals.size else np.zeros(n)
    v = scipy.io.mmread(io.StringIO(write_vector_market(b)))
    assert v.shape == (n, 1) and _by_entry(v.row, v.col, v.data) == _by_entry(
        np.arange(n), np.zeros(n, dtype=np.int64), b)


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
        np.testing.assert_array_equal(to_dense(d) @ np.arange(a.n), d.matvec(np.arange(a.n)))


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
            t.rows.tobytes(), t.cols.tobytes(), t.vals.tobytes(), to_dense(a).tobytes(),
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


def _by_diagonal(a, x, transpose=False):
    """Reference for the DIA kernels, the numpy loop they replaced: y = 0,
    then the products of each stored diagonal added in turn, in offset
    order; A x (x an (n,) vector or an (n, m) block), or A' x."""
    y, vals = np.zeros(x.shape), a.vals if x.ndim == 1 else a.vals[..., None]
    for r, nu in enumerate(a.offsets.tolist()):
        rows = slice(max(0, -nu), min(a.n, a.n - nu))  # the rows on the grid
        cols = slice(rows.start + nu, rows.stop + nu)
        if transpose:
            y[cols] += vals[rows, r] * x[rows]
        else:
            y[rows] += vals[rows, r] * x[cols]
    return y


def _bits(y):
    """dtype, shape and bytes of y, every NaN written as one quiet NaN: IEEE
    754 leaves open which operand's NaN a sum of two NaNs carries, and numpy's
    loops and scipy's pick differently (a NaN of x against 0 * inf's)."""
    return y.dtype, y.shape, np.where(np.isnan(y), np.nan, y).tobytes()


def _kernel_and_reference(kernel, reference):
    """Bits of the kernel's result, run with every floating-point fault
    raising, and of the reference's, run with them silenced."""
    with np.errstate(all="raise"):
        got = kernel()
    with np.errstate(all="ignore"):
        return _bits(got), _bits(reference())


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def diag_operands(draw):
    """(a, x, block): a diag-format matrix holding finite values of every
    magnitude and sign, its off-grid slots 0 or 7.5; x an (n,) vector and
    block an (n, m) block, m from 0 to 3, holding any floats."""
    n, offsets = draw(diag_shapes())
    vals = draw(hnp.arrays(float, (n, len(offsets)), elements=_FINITE))
    col = np.arange(n)[:, None] + offsets
    vals = np.where((col >= 0) & (col < n), vals, draw(st.sampled_from([0.0, 7.5])))
    x = draw(hnp.arrays(float, n, elements=st.floats()))
    block = draw(hnp.arrays(float, (n, draw(st.integers(0, 3))), elements=st.floats()))
    return DiagCompressed(n, len(offsets), vals, np.array(offsets)), x, block


_SPECIALS = np.array([1.0, -0.0, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(diag_operands(), st.booleans())
@example(case=(DiagCompressed(1, 1, [[-0.0]], np.array([0])), _SPECIALS[1:2],
               _SPECIALS[None, :]), c_order=False)
@example(case=(build(Triplets(4, [], [], []), "diag"), _SPECIALS, np.ones((4, 2))),
         c_order=True)  # no entries: the one-slot empty build
@example(case=(poisson_test(3).a, np.resize(_SPECIALS, 9), np.resize(_SPECIALS, (9, 2))),
         c_order=True)
def test_diag_kernels_are_the_diagonal_loops_bit_for_bit(case, c_order):
    a, x, block = case
    for _ in range(2):  # the second round runs on vals reassigned after the first
        for kernel, ref in [(lambda: a.matvec(x), lambda: _by_diagonal(a, x)),
                            (lambda: a.matvec(block), lambda: _by_diagonal(a, block)),
                            (lambda: a.rmatvec(x), lambda: _by_diagonal(a, x, True))]:
            got, want = _kernel_and_reference(kernel, ref)
            assert got == want
        # new values, in C order when c_order: the kernels must follow the new array
        a.vals = (np.ascontiguousarray if c_order else np.asfortranarray)(a.vals[::-1] * -0.5)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
       hnp.arrays(float, 12, elements=st.floats()))
@example(n=1, density=0.0, seed=0, x=np.resize(_SPECIALS, 12))
def test_row_rmatvec_is_the_bincount_bit_for_bit(n, density, seed, x):
    rng = np.random.default_rng(seed)
    t, _ = random_triplets(n, density, rng)
    t.vals[rng.random(t.vals.size) < 0.3] = -0.0
    a, x = build(t, "row"), x[:n]
    for _ in range(2):  # the second round runs on vals reassigned after the first
        got, want = _kernel_and_reference(lambda: a.rmatvec(x), lambda: np.bincount(
            a.cols.ravel(), weights=(a.vals * x[:, None]).ravel(), minlength=n))
        assert got == want
        a.vals = a.vals * -0.5


def _retained(step):
    """Bytes that numpy and Python hold after ``step()`` beyond before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_diag_kernels_keep_one_copy_of_the_diagonals_at_most():
    mat, rmat = poisson_test(316).a, poisson_test(316).a
    n, k, x = mat.n, mat.k, np.ones(mat.n)
    assert _retained(lambda: mat.matvec(x)) <= 8 * k * n + 8 * n  # the column-shifted copy
    assert _retained(lambda: rmat.rmatvec(x)) <= 8 * n  # A' runs on vals itself


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
