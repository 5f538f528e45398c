"""Level-scheduled sweeps against the row-by-row loops they replace.

The reference loops below are the sequential algorithms: every vectorized
kernel must reproduce them bit for bit (zero signs included where the
kernel keeps every entry the loop reads).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylov import cavity_laplace, poisson_test, stationary
from krylov.precond import (IcBreakdownError, apply_ic_solve, ic0_pentadiagonal,
                            mic_pentadiagonal)
from krylov.stationary import iteration_matrix_applier, split
from krylov.storage import Triplets, _Panels, _Sweep, build, to_triplets

SETTINGS = settings(max_examples=60, deadline=None)


def bits(x):
    """Bit patterns, all NaNs alike: equal bits mean bitwise-equal results."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def ref_triangular(n, rows, cols, vals, diag, rhs):
    """Row-by-row solve of (D + T) u = rhs, each row's entries in order."""
    entries = [[] for _ in range(n)]
    for i, j, v in zip(rows, cols, vals):
        entries[i].append((j, v))
    forward = all(j < i for i, j in zip(rows, cols))
    u = np.empty(n)
    for i in range(n) if forward else range(n - 1, -1, -1):
        s = rhs[i]
        for j, v in entries[i]:
            s -= v * u[j]
        u[i] = s / diag[i]
    return u


def ref_accumulate(n, rows, cols, vals, base, x):
    y = np.array(base, dtype=float)
    entries = [[] for _ in range(n)]
    for i, j, v in zip(rows, cols, vals):
        entries[i].append((j, v))
    for i in range(n):
        for j, v in entries[i]:
            y[i] += v * x[j]
    return y


def ref_ic_pivots(a, band, modified):
    """The IC/MIC pivot loop, reading every band entry including zeros."""
    t = to_triplets(a).coalesced()
    n = t.n
    diag, b, c = np.zeros(n), np.zeros(n), np.zeros(n)
    for i, j, v in zip(t.rows, t.cols, t.vals):
        if j == i:
            diag[i] = v
        elif j == i - 1:
            b[i] = v
        elif j == i - band:
            c[i] = v
    b_comp, c_comp = np.zeros(n), np.zeros(n)
    if modified and n > band:
        b_comp[1:n - band + 1] = c[band:]
        c_comp[band:] = b[1:n - band + 1]
    dt = np.empty(n)
    for i in range(n):
        v = diag[i]
        if i >= 1:
            v -= b[i] * (b[i] + b_comp[i]) / dt[i - 1]
        if i >= band:
            v -= c[i] * (c[i] + c_comp[i]) / dt[i - band]
        if v <= 0.0:
            raise IcBreakdownError(f"ic-pivot: nonpositive pivot {v:g} at row {i}")
        dt[i] = v
    return dt


def ref_ic_apply(f, r):
    n, N = f.n, f.band
    b, c, dt = f.b, f.c, f.dt
    y = np.empty(n)
    for i in range(n):
        s = r[i]
        if i >= 1:
            s -= b[i] * y[i - 1]
        if i >= N:
            s -= c[i] * y[i - N]
        y[i] = s / dt[i]
    y *= dt
    out = np.empty(n)
    for i in range(n - 1, -1, -1):
        s = y[i]
        if i + 1 < n:
            s -= b[i + 1] * out[i + 1]
        if i + N < n:
            s -= c[i + N] * out[i + N]
        out[i] = s / dt[i]
    return out


values = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))


@st.composite
def triangles(draw):
    """Random strict triangle: empty rows, explicit zeros, repeated columns."""
    n = draw(st.integers(1, 14))
    forward = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(n) if (j < i if forward else j > i)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    rows = np.array([i for i, _ in picked], dtype=np.int64)
    cols = np.array([j for _, j in picked], dtype=np.int64)
    vals = np.array(draw(st.lists(values, min_size=len(picked), max_size=len(picked))))
    diag = draw(st.lists(st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
                         min_size=n, max_size=n))
    rhs = draw(st.lists(values, min_size=n, max_size=n))
    return n, rows, cols, vals, np.array(diag), np.array(rhs), forward


@SETTINGS
@given(triangles())
def test_sweep_solve_matches_row_loop(case):
    n, rows, cols, vals, diag, rhs, forward = case
    sweep = _Sweep(n, rows, cols, vals, lower=forward)
    assert np.array_equal(bits(sweep.solve(diag, rhs)),
                          bits(ref_triangular(n, rows, cols, vals, diag, rhs)))


@SETTINGS
@given(triangles(), st.integers(0, 2**32 - 1))
def test_accumulate_matches_row_loop(case, seed):
    n, rows, cols, vals, diag, rhs, forward = case
    x = np.random.default_rng(seed).standard_normal(n)
    x[::3] = -0.0
    want = bits(ref_accumulate(n, rows, cols, vals, diag * rhs, x))
    sweep = _Sweep(n, rows, cols, vals, lower=forward)
    assert np.array_equal(bits(sweep.accumulate(diag * rhs, x)), want)
    one_group = _Panels(n, rows, cols, vals, np.zeros(n, dtype=np.int64))
    assert np.array_equal(bits(one_group.accumulate(diag * rhs, x)), want)


def test_sweep_levels_of_the_five_point_stencil():
    N = 7
    f = ic0_pentadiagonal(poisson_test(N).a, N)
    assert len(f.lower.groups) == 2 * N - 1
    assert len(f.upper.groups) == 2 * N - 1


def test_sweep_keeps_one_triangle_of_the_entries():
    rows, cols, vals = np.array([1, 0, 2]), np.array([0, 2, 1]), np.array([2.0, 3.0, 5.0])
    diag, rhs = np.array([1.0, 2.0, 4.0]), np.array([1.0, 1.0, 1.0])
    for lower in (True, False):
        keep = cols < rows if lower else cols > rows
        want = ref_triangular(3, rows[keep], cols[keep], vals[keep], diag, rhs)
        assert np.array_equal(bits(_Sweep(3, rows, cols, vals, lower).solve(diag, rhs)), bits(want))


IC_CASES = [("poisson", N) for N in (1, 2, 5, 12)] + [("cavity", N) for N in (4, 9)]


def _ic_problem(kind, N):
    return poisson_test(N).a if kind == "poisson" else cavity_laplace(N, 0.3).a


@pytest.mark.parametrize("modified", [False, True], ids=["ic", "mic"])
@pytest.mark.parametrize("kind,N", IC_CASES)
def test_ic_pivots_match_row_loop(kind, N, modified):
    a = _ic_problem(kind, N)
    f = (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, N)
    assert np.array_equal(bits(f.dt), bits(ref_ic_pivots(a, N, modified)))


@SETTINGS
@given(st.sampled_from(IC_CASES), st.booleans(), st.integers(0, 2**32 - 1))
def test_apply_ic_solve_matches_row_loop(case, modified, seed):
    kind, N = case
    a = _ic_problem(kind, N)
    f = (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, N)
    r = np.random.default_rng(seed).uniform(-1e3, 1e3, f.n)
    # Zero band entries are left out of the sweeps, so only zero signs may differ.
    assert np.array_equal(apply_ic_solve(f, r), ref_ic_apply(f, r))


@SETTINGS
@given(st.integers(2, 9), st.data(), st.booleans())
def test_ic_breakdown_row_and_message_match_row_loop(N, data, modified):
    t = to_triplets(poisson_test(N).a)
    row = data.draw(st.integers(1, N * N - 1))
    vals = t.vals.copy()
    vals[(t.rows == row) & (t.cols == row)] = data.draw(st.floats(0.01, 2.0))
    a = Triplets(N * N, t.rows, t.cols, vals)
    try:
        want = ref_ic_pivots(a, N, modified)
    except IcBreakdownError as exc:
        with pytest.raises(IcBreakdownError) as got:
            (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, N)
        assert str(got.value) == str(exc)
    else:
        f = (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, N)
        assert np.array_equal(bits(f.dt), bits(want))


@st.composite
def point_matrices(draw):
    """Random sparse matrix with a nonzero diagonal, as coalesced triplets."""
    n = draw(st.integers(1, 12))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n, unique=True))
    cells = [(i, j) for i, j in cells if i != j]
    off = draw(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                        min_size=len(cells), max_size=len(cells)))
    diag = draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n))
    rows = [i for i, _ in cells] + list(range(n))
    cols = [j for _, j in cells] + list(range(n))
    return Triplets(n, rows, cols, off + diag).coalesced()


def _triangle_of(t, lower):
    keep = (t.cols < t.rows) if lower else (t.cols > t.rows)
    return t.rows[keep], t.cols[keep], t.vals[keep]


def _diag_of(t):
    d = np.zeros(t.n)
    on = t.rows == t.cols
    d[t.rows[on]] = t.vals[on]
    return d


@SETTINGS
@given(point_matrices(), st.sampled_from([1.0, 0.6, 1.7]), st.integers(0, 2**32 - 1))
def test_gauss_seidel_and_sor_sweeps_match_row_loop(t, omega, seed):
    r = np.random.default_rng(seed).standard_normal(t.n)
    method = "gauss_seidel" if omega == 1.0 else "sor"
    d = _diag_of(t) if method == "gauss_seidel" else _diag_of(t) / omega
    sp = split(build(t, "row"), method, omega=None if method == "gauss_seidel" else omega)
    rows, cols, vals = _triangle_of(t, lower=True)
    assert np.array_equal(bits(sp.m_solve(r)),
                          bits(ref_triangular(t.n, rows, cols, vals, d, r)))
    m_x = ref_accumulate(t.n, rows, cols, vals, d * r, r)
    assert np.array_equal(bits(sp.n_apply(r)), bits(m_x - sp.a_apply(r)))


@SETTINGS
@given(point_matrices(), st.sampled_from([0.5, 1.0, 1.5]), st.integers(0, 2**32 - 1))
def test_ssor_sweeps_match_row_loop(t, omega, seed):
    v = np.random.default_rng(seed).standard_normal(t.n)
    d = _diag_of(t)
    inv = 1.0 / np.sqrt(d)
    rows, cols = t.rows[t.rows != t.cols], t.cols[t.rows != t.cols]
    vals = t.vals[t.rows != t.cols] * (inv[rows] * inv[cols])
    diag_hat = d * inv * inv
    lower, upper = cols < rows, cols > rows
    w_hat = np.full(t.n, 1.0 / omega)

    def apply_hat(x):
        return ref_accumulate(t.n, rows, cols, vals, diag_hat * x, x)

    def ref_g(v):
        w = v - ref_triangular(t.n, rows[lower], cols[lower], vals[lower], w_hat, apply_hat(v))
        return w - ref_triangular(t.n, rows[upper], cols[upper], vals[upper], w_hat, apply_hat(w))

    with mock.patch.object(stationary, "_DENSE_G_BYTES", 0):  # the sweeps on v
        got = iteration_matrix_applier(t, "ssor", omega=omega)(v)
    assert np.array_equal(bits(got), bits(ref_g(v)))
    dense = iteration_matrix_applier(t, "ssor", omega=omega)  # one block sweep on I
    dense(v)
    for j, e in enumerate(np.eye(t.n)):
        assert np.array_equal(bits(dense.matrix[:, j]), bits(ref_g(e)))
