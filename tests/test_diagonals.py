"""Set-up that reads a diag-format matrix's diagonals in place.

Jacobi, the point splittings and the IC/MIC bands take a diag-format
operand's diagonals straight from its columns (``storage._diagonals``).
Each must give the bits, and raise the errors, of the same operand read
through its triplets, and must build no triplets once a matrix keeps its
sweeps and pattern.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylov import cavity_laplace, poisson_test, stationary, storage
from krylov.precond import (apply_ic_solve, ic0_pentadiagonal, jacobi_preconditioner,
                            mic_pentadiagonal)
from krylov.stationary import split
from krylov.storage import DiagCompressed, Triplets, build, to_dense, to_triplets

SETTINGS = settings(max_examples=200, deadline=None)
SPLITS = [("jacobi", None), ("gauss_seidel", None), ("sor", 0.7), ("sor", 1.6), ("ssor", 1.3)]


def bits(x):
    """Bit patterns, all NaNs alike: equal bits mean bitwise-equal results."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def _copy(a):
    return DiagCompressed(a.n, a.k, a.vals.copy(), a.offsets.copy())


def _outcome(make):
    """make()'s result, or the ValueError it raised."""
    try:
        return make()
    except ValueError as exc:
        return exc


def _triplet_split(a, method, omega):
    """The splitting of ``a`` with D read from its coalesced triplets."""
    def by_triplets(op, offsets):
        t = to_triplets(op).coalesced()
        d, on = np.zeros(t.n), t.rows == t.cols
        d[t.rows[on]] = t.vals[on]
        return [d], None

    with mock.patch.object(stationary, "_diagonals", by_triplets):
        return split(a, method, omega=omega)


@st.composite
def diag_operands(draw):
    """A diag-format matrix: n up to 9, random offsets with or without 0,
    entries that may be -0.0 or 0.0 (the main diagonal's too), junk in the
    slots off the grid, and at times one inf or NaN on or off the grid."""
    n = draw(st.integers(1, 9))
    offsets = draw(st.sets(st.integers(1 - n, n - 1), max_size=5))
    if draw(st.sampled_from([True, True, False])):
        offsets.add(0)
    offsets = np.array(sorted(offsets), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(-1.0, 1.0, (n, offsets.size))
    vals[rng.random(vals.shape) < 0.25] = 0.0
    vals[rng.random(vals.shape) < 0.25] = -0.0
    rows = np.arange(n)[:, None]
    on_grid = (rows + offsets >= 0) & (rows + offsets < n)
    main = offsets == 0
    vals[:, main] = rng.choice([-1.0, 1.0], n)[:, None] * rng.uniform(2.0, 4.0, (n, 1))
    vals[rng.integers(n), main] = draw(st.sampled_from([1.0, -1.0, 0.0, -0.0]))
    vals[~on_grid] = rng.choice([7.0, -3.0, np.inf, np.nan], int((~on_grid).sum()))
    bad = draw(st.sampled_from([None, None, None, np.inf, -np.inf, np.nan]))
    if bad is not None and vals.size:
        vals.flat[rng.integers(vals.size)] = bad
    return DiagCompressed(n, offsets.size, vals, offsets)


@SETTINGS
@given(diag_operands(), st.sampled_from(SPLITS), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_point_splits_of_a_diag_matrix_are_those_of_its_triplets(a, case, k, seed):
    method, omega = case
    got = _outcome(lambda: split(a, method, omega=omega))
    want = _outcome(lambda: _triplet_split(_copy(a), method, omega))
    if isinstance(want, ValueError):
        assert type(got) is ValueError and str(got) == str(want)
        return
    rng = np.random.default_rng(seed)
    for x in (rng.uniform(-1.0, 1.0, a.n), rng.uniform(-1.0, 1.0, (a.n, k))):
        x[rng.random(x.shape) < 0.2] = -0.0
        assert np.array_equal(bits(got.m_solve(x)), bits(want.m_solve(x)))
        assert np.array_equal(bits(got.n_apply(x)), bits(want.n_apply(x)))


@SETTINGS
@given(diag_operands(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_jacobi_preconditioner_of_a_diag_matrix_is_that_of_its_triplets(a, k, seed):
    got = _outcome(lambda: jacobi_preconditioner(a))
    want = _outcome(lambda: _triplet_split(_copy(a), "jacobi", None).m_solve)
    if isinstance(want, ValueError):
        assert type(got) is ValueError and str(got) == str(want)
        return
    rng = np.random.default_rng(seed)
    for x in (rng.uniform(-1.0, 1.0, a.n), rng.uniform(-1.0, 1.0, (a.n, k))):
        x[rng.random(x.shape) < 0.2] = -0.0
        assert np.array_equal(bits(got(x)), bits(want(x)))


def _banded(kind, N):
    """An IC/MIC operand in diag format and its band offset."""
    if kind == "tridiagonal":  # band 1: tridiag(-1, 2, -1) of size N
        i = np.arange(N)
        t = Triplets(N, np.r_[i, i[1:], i[:-1]], np.r_[i, i[:-1], i[1:]],
                     np.r_[np.full(N, 2.0), np.full(2 * N - 2, -1.0)])
        return build(t, "diag"), 1
    a = poisson_test(N).a if kind == "poisson" else cavity_laplace(N, 0.3).a
    return _copy(a), N


def _junk_off_grid(a):
    """``a`` with junk in every slot off the grid."""
    rows = np.arange(a.n)[:, None]
    off = (rows + a.offsets < 0) | (rows + a.offsets >= a.n)
    vals = a.vals.copy()
    vals[off] = np.where(np.arange(off.sum()) % 2, 9.0, np.nan)
    return DiagCompressed(a.n, a.k, vals, a.offsets)


def _signed_zero_bands(a):
    """``a`` with a -0.0 on a few entries of every off-diagonal band."""
    vals = a.vals.copy()
    for r in np.flatnonzero(a.offsets != 0):
        vals[1::3, r] = -0.0
    return DiagCompressed(a.n, a.k, vals, a.offsets)


IC_OPERANDS = [("poisson", 1), ("poisson", 5), ("poisson", 12), ("cavity", 9),
               ("tridiagonal", 1), ("tridiagonal", 7)]


@pytest.mark.parametrize("variant", [None, _junk_off_grid, _signed_zero_bands],
                         ids=["plain", "junk", "signed-zero"])
@pytest.mark.parametrize("kind,N", IC_OPERANDS)
@pytest.mark.parametrize("factor", [ic0_pentadiagonal, mic_pentadiagonal], ids=["ic", "mic"])
def test_ic_and_mic_of_a_diag_matrix_are_those_of_its_triplets(factor, kind, N, variant):
    a, band = _banded(kind, N)
    a = variant(a) if variant else a
    f, g = factor(a, band), factor(to_triplets(a), band)
    assert np.array_equal(bits(f.dt), bits(g.dt))
    for v, w in ((f.a, g.a), (f.b, g.b), (f.c, g.c)):
        assert np.array_equal(bits(v), bits(w))
    r = np.random.default_rng(N).uniform(-1.0, 1.0, (f.n, 2))
    r[::3] = -0.0
    for x in (r[:, 0], r):
        assert np.array_equal(bits(apply_ic_solve(f, x)), bits(apply_ic_solve(g, x)))


def _with(a, offset, row, value):
    """``a`` with A[row, row + offset] = value, adding that diagonal if absent."""
    offsets = np.union1d(a.offsets, [offset])
    vals = np.zeros((a.n, offsets.size), order="F")
    vals[:, np.searchsorted(offsets, a.offsets)] = a.vals
    vals[row, np.searchsorted(offsets, offset)] = value
    return DiagCompressed(a.n, offsets.size, vals, offsets)


@pytest.mark.parametrize("changes,message", [
    ([(3, 4, -1.0)], "entry (4, 7) off the pentadiagonal pattern"),
    ([(-2, 9, -0.5), (3, 6, -1.0)], "entry (6, 9) off the pentadiagonal pattern"),
    ([(-2, 9, -0.0), (3, 6, 0.0)], None),  # signed zeros are no entries
    ([(0, 6, 0.0)], "expected positive diagonal and nonpositive bands"),
    ([(0, 6, -0.0)], "expected positive diagonal and nonpositive bands"),
    ([(-1, 6, 0.5)], "expected positive diagonal and nonpositive bands"),
    ([(-4, 6, 0.5)], "expected positive diagonal and nonpositive bands"),
    ([(3, 4, np.inf)], "non-finite triplet value"),
    ([(0, 6, np.nan)], "non-finite triplet value"),
])
@pytest.mark.parametrize("factor", [ic0_pentadiagonal, mic_pentadiagonal], ids=["ic", "mic"])
def test_ic_and_mic_of_a_diag_matrix_raise_what_its_triplets_raise(factor, changes, message):
    a = poisson_test(4).a
    for change in changes:
        a = _with(a, *change)
    if message is None:
        assert np.array_equal(bits(factor(a, 4).dt), bits(factor(poisson_test(4).a, 4).dt))
        return
    for operand in (lambda: a, lambda: to_triplets(a)):
        with pytest.raises(ValueError) as exc:
            factor(operand(), 4)
        assert str(exc.value) == message


class _Counts:
    """Calls of ``to_triplets`` (any operand), ``Triplets.coalesced`` and
    Triplets built, while patched in."""

    def __init__(self, monkeypatch):
        self.calls = {"to_triplets": 0, "coalesced": 0, "built": 0}
        for owner, name, key in ((storage, "to_triplets", "to_triplets"),
                                 (stationary, "to_triplets", "to_triplets"),
                                 (Triplets, "coalesced", "coalesced"),
                                 (Triplets, "__post_init__", "built")):
            monkeypatch.setattr(owner, name, self._counting(getattr(owner, name), key))

    def _counting(self, f, key):
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return f(*args, **kwargs)
        return counted

    def take(self):
        calls, self.calls = self.calls, dict.fromkeys(self.calls, 0)
        return calls


def test_set_up_on_a_diag_matrix_builds_no_triplets_once_its_sweeps_are_kept(monkeypatch):
    a = poisson_test(12).a
    counts = _Counts(monkeypatch)
    jacobi_preconditioner(a)
    assert counts.take() == {"to_triplets": 0, "coalesced": 0, "built": 0}
    split(a, "gauss_seidel")  # builds the lower sweep from the triplets, once
    assert counts.take() == {"to_triplets": 1, "coalesced": 1, "built": 2}
    split(a, "sor", omega=1.5)
    split(a, "gauss_seidel")
    split(a, "ssor", omega=1.5)  # builds the upper sweep
    assert counts.take() == {"to_triplets": 1, "coalesced": 1, "built": 2}
    split(a, "ssor", omega=0.5)
    split(a, "jacobi")
    ic0_pentadiagonal(a, 12)
    mic_pentadiagonal(a, 12)
    assert counts.take() == {"to_triplets": 0, "coalesced": 0, "built": 0}


def test_an_ssor_split_of_a_dense_matrix_reads_the_entries_of_both_sweeps_once(monkeypatch):
    dense = to_dense(poisson_test(4).a)
    counts = _Counts(monkeypatch)
    for _ in range(2):  # a dense operand keeps no sweep: each split builds both
        split(dense, "ssor", omega=1.2)
        calls = counts.take()  # D's triplets, then one set for both sweeps
        assert calls["to_triplets"] <= 2 and calls["coalesced"] <= 2


def test_jacobi_preconditioner_of_poisson_316_peaks_under_2_mb():
    a = poisson_test(316).a
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        jacobi_preconditioner(a)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2e6
