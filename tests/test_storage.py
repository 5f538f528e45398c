import io
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from krylov import cg, split
from krylov.storage import (ColCompressed, DiagCompressed, RowCompressed,
                            Triplets, build, operator, read_matrix_market, to_dense,
                            to_triplets, write_matrix_market)
from krylov.storage import read_vector_market, write_vector_market
from krylov.problems import poisson_test, random_sparse


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


@pytest.mark.parametrize("n,k,shape,offsets,field", [
    pytest.param(4, 3, (4, 2), [-1, 0, 1], "vals", id="k3-on-2-columns"),
    pytest.param(4, 2, (3, 2), [0, 1], "vals", id="3-rows-at-n4"),
    pytest.param(4, 2, (4, 2), [-1, 0, 1], "offsets", id="more-offsets-than-k"),
    pytest.param(4, 2, (4, 2), [[0, 1]], "offsets", id="not-1d"),
    pytest.param(4, 1, (4, 1), [5], "offsets", id="offset-5-at-n4"),  # its values were dropped
    pytest.param(4, 2, (4, 2), [-4, 0], "offsets", id="offset-minus-4-at-n4"),
    pytest.param(4, 2, (4, 2), [1, 0], "offsets", id="descending"),  # breaks the summation order
    pytest.param(4, 2, (4, 2), [1, 1], "offsets", id="repeated"),
    pytest.param(3, 2, (3, 2), [0.5, 1.0], "offsets", id="fractional"),  # read as offset 0
    pytest.param(3, 2, (3, 2), np.array([0, 1], np.uint8), "offsets", id="unsigned"),  # wraps
])
def test_diag_constructor_rejects_a_malformed_grid_naming_the_field(n, k, shape, offsets, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        DiagCompressed(n, k, np.zeros(shape), np.array(offsets))


@pytest.mark.parametrize("make,field", [
    pytest.param(lambda: RowCompressed(3, 2, np.ones((3, 2)), [[0, 5], [1, 2], [2, 2]]), "cols",
                 id="row-index-5-at-n3"),  # matvec read x[5]
    pytest.param(lambda: RowCompressed(3, 2, np.ones((3, 2)), [[0, -1], [1, 2], [2, 2]]), "cols",
                 id="row-index-minus-1"),
    pytest.param(lambda: RowCompressed(3, 2, np.ones((3, 3)), np.zeros((3, 2), int)), "vals",
                 id="row-vals-3x3-at-k2"),
    pytest.param(lambda: RowCompressed(3, 2, np.ones((3, 2)), np.zeros((3, 3), int)), "cols",
                 id="row-cols-3x3-at-k2"),
    pytest.param(lambda: RowCompressed(3, 2, np.ones((3, 2)), np.zeros((3, 2))), "cols",
                 id="row-float-indices"),
    pytest.param(lambda: ColCompressed(3, 1, np.ones((1, 3)), [[0, 7, 1]]), "rows",
                 id="col-index-7-at-n3"),  # matvec dropped it, rmatvec read x[7]
    pytest.param(lambda: ColCompressed(3, 1, np.ones((1, 3)), [[0, -1, 1]]), "rows",
                 id="col-index-minus-1"),
    pytest.param(lambda: ColCompressed(3, 1, np.ones((3, 1)), np.zeros((1, 3), int)), "vals",
                 id="col-vals-as-n-by-k"),
    pytest.param(lambda: ColCompressed(3, 1, np.ones((1, 3)), np.zeros((3, 1), int)), "rows",
                 id="col-rows-as-n-by-k"),
    pytest.param(lambda: ColCompressed(3, 1, np.ones((1, 3)), np.zeros((1, 3), bool)), "rows",
                 id="col-bool-indices"),
])
def test_row_and_col_constructors_reject_a_malformed_grid_naming_the_field(make, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        make()


def test_row_and_col_constructors_take_every_build(rng):
    for t in (Triplets(4, [], [], []), to_triplets(poisson_test(4).a),
              random_triplets(9, 0.3, rng)[0], Triplets(1, [0], [0], [2.0])):
        row, col = build(t, "row"), build(t, "col")
        a = RowCompressed(row.n, row.k, row.vals, row.cols)
        assert a.vals is row.vals and a.cols is row.cols
        b = ColCompressed(col.n, col.k, col.vals, col.rows)
        assert b.vals is col.vals and b.rows is col.rows


def test_diag_constructor_takes_every_build_and_the_extreme_offsets(rng):
    for t in (Triplets(4, [], [], []), to_triplets(poisson_test(4).a),
              random_triplets(9, 0.3, rng)[0], Triplets(1, [0], [0], [2.0])):
        a = build(t, "diag")
        b = DiagCompressed(a.n, a.k, a.vals, a.offsets)
        assert b.offsets is a.offsets and np.array_equal(b.vals, a.vals)
    a = DiagCompressed(5, 2, np.ones((5, 2)), np.array([-4, 4]))
    np.testing.assert_array_equal(a.matvec(np.arange(5.0)), [4.0, 0.0, 0.0, 0.0, 0.0])


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


@pytest.mark.parametrize("shape", [(3, 1), (1, 3), ()], ids=str)
def test_write_vector_market_rejects_a_non_vector_naming_its_shape(shape):
    with pytest.raises(ValueError, match=re.escape(f"vector has shape {shape}, expected")):
        write_vector_market(np.ones(shape))


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


def _kernel_and_reference(kernel, reference, faults="raise"):
    """Bits of the kernel's result, run with every floating-point fault
    raising (``faults="ignore"`` for a kernel that is numpy code), and of
    the reference's, run with them silenced."""
    with np.errstate(all=faults):
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


def _by_row_reduce(a, x):
    """Reference for the row-format A x, the numpy expression that ran it
    before CSR and the pairwise replay: each row's products, per column of
    a block, summed by one reduce over the row's k slots (in turn from 0.0
    for k < 8, pairwise from 8 on); x an (n,) vector or an (n, m) block."""
    return (a.vals * x.T.take(a.cols, axis=-1)).sum(axis=-1).T


# Panel widths past numpy's pairwise block of 128 terms: 136 and 260 split
# at a multiple of 8 below k // 2, 127 to 129 sit at the block's edge.
_WIDE = [127, 128, 129, 136, 260]


@st.composite
def row_operands(draw):
    """(a, x, block): a row-format matrix of k = 1 to 40 slots, or of one of
    the ``_WIDE`` widths, holding finite values of every magnitude and sign
    at any columns (at the wide widths, from a seeded generator: 2^-60 to
    2^60 of either sign, a fifth of them -0.0); x an (n,) vector and block
    an (n, m) block, m from 0 to 3, in C or F order or a strided slice,
    holding any floats."""
    n, k = draw(st.integers(1, 10)), draw(st.one_of(st.integers(1, 40), st.sampled_from(_WIDE)))
    if k <= 40:
        vals = draw(hnp.arrays(float, (n, k), elements=_FINITE))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vals = rng.standard_normal((n, k)) * 2.0 ** rng.integers(-60, 61, (n, k))
        vals[rng.random((n, k)) < 0.2] = -0.0
    cols = draw(hnp.arrays(np.int64, (n, k), elements=st.integers(0, n - 1)))
    x = draw(hnp.arrays(float, n, elements=st.floats()))
    block = draw(hnp.arrays(float, (n, draw(st.integers(0, 3))), elements=st.floats()))
    layout = draw(st.sampled_from(["C", "F", "sliced"]))
    if layout == "F":
        block = np.asfortranarray(block)
    elif layout == "sliced":
        wide = np.full((n, 2 * block.shape[1]), 7.5)
        wide[:, ::2] = block
        block = wide[:, ::2]
    return RowCompressed(n, k, vals, cols), x, block


_CLASHES = np.array([np.inf, np.nan, -np.inf, -0.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(row_operands())
@example(case=(RowCompressed(1, 1, np.array([[-0.0]]), np.zeros((1, 1), np.int64)),
               _SPECIALS[1:2], _SPECIALS[None, :]))
@example(case=(build(to_triplets(poisson_test(3).a), "row"), np.resize(_SPECIALS, 9),
               np.resize(_SPECIALS, (9, 2))))
@example(case=(RowCompressed(4, 8, np.resize([1e308, -0.0, 1e308, -1.0], (4, 8)),
                             np.resize(np.arange(4), (4, 8))),
               _SPECIALS, np.asfortranarray(np.ones((4, 3)))))  # row sums overflow
@example(case=(RowCompressed(2, 17, np.full((2, 17), -0.0), np.zeros((2, 17), np.int64)),
               np.array([2.0, -1.0]), np.array([[1.0, -0.0], [3.0, 4.0]])))  # -0.0 rows
@example(case=(RowCompressed(3, 12, np.resize([1e300, -1e300, 3.0], (3, 12)),
                             np.resize(np.arange(3), (3, 12))),
               np.array([1e10, 1e300, -1e300]), np.full((3, 2), 1e200)))  # products overflow
@example(case=(RowCompressed(5, 9, np.resize([1.0, -2.0, 0.5], (5, 9)),
                             np.resize(np.arange(5), (5, 9))),
               _CLASHES, np.stack([_CLASHES, _CLASHES[::-1]], axis=1)))  # inf and NaN in x
@example(case=(RowCompressed(1, 136, 1.0 / np.arange(1.0, 137.0)[None, :],
                             np.zeros((1, 136), np.int64)),
               np.ones(1), np.ones((1, 2))))  # split at 64, not at 136 // 2 = 68
def test_row_matvec_is_the_reduce_bit_for_bit(case):
    a, x, block = case
    for _ in range(2):  # the second round runs on vals and cols reassigned after the first
        faults = "raise" if a.k < 8 else "ignore"  # from 8 slots A x is numpy code, too
        for v in (x, block):
            got, want = _kernel_and_reference(lambda: a.matvec(v), lambda: _by_row_reduce(a, v),
                                              faults)
            assert got == want
        got, want = _kernel_and_reference(lambda: a.rmatvec(x), lambda: np.bincount(
            a.cols.ravel(), weights=(a.vals * x[:, None]).ravel(), minlength=a.n))
        assert got == want
        a.vals, a.cols = a.vals[::-1] * -0.5, (a.cols[::-1] + 1) % a.n


def test_row_matvec_on_the_benchmarked_random_matrix_is_the_reduce_bit_for_bit():
    a = random_sparse(2000, 0.003, 1).a
    assert a.k == 13  # the pairwise path: one block of 8 and a tail of 5
    rng = np.random.default_rng(5)
    for v in (rng.standard_normal(a.n), rng.standard_normal((a.n, 3))):
        assert _bits(a.matvec(v)) == _bits(_by_row_reduce(a, v))


def _by_slot_scatter(a, x):
    """Reference for the col-format A x: each stored product added to its
    row in turn from 0.0, slot by slot, by ``np.bincount`` for an (n,)
    vector and by ``np.add.at`` for an (n, m) block."""
    if x.ndim == 1:
        return np.bincount(a.rows.ravel(), weights=(a.vals * x).ravel(), minlength=a.n)
    y = np.zeros(x.shape)
    np.add.at(y, a.rows.ravel(), (a.vals[..., None] * x).reshape(a.rows.size, x.shape[1]))
    return y


def _by_slot_reduce(a, x):
    """Reference for the col-format A' x, numpy's reduce over the k slots:
    from 0.0, each slot's products added in turn when n > 1 (so a column of
    -0.0 products reads 0.0), but pairwise from 8 slots on when n = 1, as the
    one column is then a contiguous run."""
    return (a.vals * x[a.rows]).sum(axis=0)


@settings(max_examples=200, deadline=None)
@given(row_operands())
@example(case=(RowCompressed(2, 3, np.full((2, 3), -0.0), np.zeros((2, 3), np.int64)),
               np.array([2.0, -0.0]), np.ones((2, 2))))  # -0.0 columns
@example(case=(RowCompressed(5, 9, np.resize([1e300, -2.0, 1e300], (5, 9)),
                             np.resize(np.arange(5), (5, 9))),
               _CLASHES, np.stack([_CLASHES, _CLASHES[::-1]], axis=1)))
@example(case=(build(Triplets(4, [0, 0, 3], [0, 3, 3], [1.0, -2.0, 3.0]), "row"),
               np.array([1.0, np.nan, np.inf, -0.0]), np.ones((4, 0))))  # empty columns 1, 2
def test_col_kernels_are_the_slot_scatter_and_reduce_bit_for_bit(case):
    row, x, block = case
    a = ColCompressed(row.n, row.k, row.vals.T.copy(), row.cols.T.copy())
    for _ in range(2):  # the second round runs on vals and rows reassigned after the first
        for v in (x, block):  # A x is scipy's CSR loop
            got, want = _kernel_and_reference(lambda: a.matvec(v), lambda: _by_slot_scatter(a, v))
            assert got == want
        faults = "raise" if a.n > 1 else "ignore"  # for n > 1 A' x is scipy's CSR loop
        got, want = _kernel_and_reference(lambda: a.rmatvec(x), lambda: _by_slot_reduce(a, x),
                                          faults)
        assert got == want
        a.vals, a.rows = a.vals[::-1] * -0.5, (a.rows[::-1] + 1) % a.n


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


def test_row_kernels_keep_the_index_pointer_at_most():
    build(to_triplets(poisson_test(2).a), "row").matvec(np.ones(4))  # scipy's first-use caches
    a = build(to_triplets(poisson_test(316).a), "row")
    n, x = a.n, np.ones(a.n)
    # one CSR array on views of the panels, and its CSC transpose on the same three arrays
    assert _retained(lambda: (a.matvec(x), a.rmatvec(x))) <= 8 * (n + 1) + 4096


def test_col_kernels_keep_one_csr_copy_each_at_most():
    a = build(to_triplets(poisson_test(2).a), "col")
    a.matvec(np.ones(4)), a.rmatvec(np.ones(4))  # scipy's first-use caches
    a = build(to_triplets(poisson_test(316).a), "col")
    n, k, x = a.n, a.k, np.ones(a.n)
    # A x and A' x each keep one CSR copy of the panels: values, indices, index pointer
    assert _retained(lambda: (a.matvec(x), a.rmatvec(x))) <= 2 * (16 * k * n + 8 * (n + 1)) + 4096


def test_row_matvec_from_8_slots_keeps_the_slot_major_panels_at_most():
    a = random_sparse(2000, 0.003, 1).a
    n, k, x = a.n, a.k, np.ones(a.n)
    assert k >= 8
    # (vals.T, cols.T), C-ordered, and nothing else
    assert _retained(lambda: a.matvec(x)) <= 16 * n * k + 4096


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


@pytest.mark.parametrize("rows,cols,field", [
    ([0.5, 2.9], [1.7, 0], "rows"),
    ([0, 2], [1.7, 0], "cols"),
    (np.array([0.0, np.nan]), [1, 0], "rows"),
    ([0, 2], np.array([[1.0], [0.25]]), "cols"),
])
def test_triplets_reject_fractional_indices_naming_the_field(rows, cols, field):
    with pytest.raises(ValueError, match=f"^{field} must hold integers"):
        Triplets(3, rows, cols, [1.0, 2.0])


def test_triplets_take_integer_valued_indices_of_any_dtype():
    want = Triplets(3, [0, 2], [1, 0], [1.0, 2.0])
    for rows, cols in (([0.0, 2.0], [1.0, 0.0]), (np.array([[0], [2]]), (1, 0)),
                       (np.array([0, 2], np.int32), np.array([1, 0], np.uint8))):
        t = Triplets(3, rows, cols, [1.0, 2.0])
        for field in ("rows", "cols"):
            assert getattr(t, field).dtype == np.int64
            assert getattr(t, field).tolist() == getattr(want, field).tolist()
    empty = Triplets(3, [], [], [])
    assert empty.rows.dtype == empty.cols.dtype == np.int64 and empty.rows.size == 0
    for off_grid in ([-1.0, 0.0], [3.0, 0.0], [np.inf, 0.0], [1e300, 0.0]):
        with pytest.raises(ValueError, match="triplet index out of range"):
            Triplets(3, off_grid, [0, 1], [1.0, 2.0])


@pytest.mark.parametrize("make", [
    lambda: poisson_test(12).a,
    lambda: to_triplets(poisson_test(12).a),
    lambda: build(to_triplets(poisson_test(12).a), "row"),
    lambda: build(to_triplets(poisson_test(12).a), "col"),
    lambda: random_sparse(300, 0.03, 2).a,  # the row format from 8 slots on
])
def test_a_pickle_of_an_operand_holds_its_fields_alone(make):
    a = make()
    x = np.random.default_rng(0).standard_normal(a.n)
    before = pickle.dumps(a)
    cg(a, np.ones(a.n), max_iter=2)
    split(a, "ssor", omega=1.2)
    matvec, rmatvec, _ = operator(a)
    want = matvec(x).tobytes(), rmatvec(x).tobytes()
    assert set(a.__dict__) > set(a.__dataclass_fields__)  # kernels are kept on it
    after = pickle.dumps(a)
    assert len(after) == len(before)
    back = pickle.loads(after)
    assert set(back.__dict__) == set(a.__dataclass_fields__)
    matvec, rmatvec, _ = operator(back)
    assert (matvec(x).tobytes(), rmatvec(x).tobytes()) == want
