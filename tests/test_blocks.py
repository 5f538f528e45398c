"""Block (multi-vector) kernels, and the dense iteration matrix formed with them.

Every kernel that takes an (n, k) block must give, in each column, bitwise
the result of the vector call on that column.  The one exception is the
diagonal-block solve of the block sweeps: one multi-column LAPACK call
rounds in its own order.  ``iteration_matrix_applier`` forms G = g(I) with
one block application when n is small; the power iteration on that G must
take the steps it takes on the vector path.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from krylov import (cavity_laplace, poisson_test, random_sparse, spectral_radius_estimate,
                    stationary)
from krylov.stationary import iteration_matrix_applier, split
from krylov.storage import Triplets, _Blocks, _Panels, _Sweep, build


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def by_columns(f, x):
    """The vector kernel f run on each column of the block x."""
    return np.column_stack([f(x[:, j]) for j in range(x.shape[1])])


def assert_columnwise(f, x):
    got = f(x)
    assert got.shape == x.shape
    assert np.array_equal(bits(got), bits(by_columns(f, x)))


def random_case(n, density, seed):
    """Random triplets with duplicates and explicit (signed) zeros, plus
    blocks of width 1, 3, n and 2n + 1 holding signed zeros too."""
    rng = np.random.default_rng(seed)
    m = max(1, int(density * n * n))
    vals = rng.standard_normal(m)
    vals[::4], vals[1::7] = 0.0, -0.0
    t = Triplets(n, rng.integers(0, n, m), rng.integers(0, n, m), vals)
    blocks = []
    for k in sorted({1, 3, n, 2 * n + 1}):
        x = rng.standard_normal((n, k))
        x[::3, ::2] = -0.0
        blocks.append(x)
    return t, blocks


CASES = [(1, 1.0, 0), (2, 0.5, 1), (7, 0.4, 2), (30, 0.15, 3), (64, 0.05, 4)]


def inputs_of_wrong_shape(n):
    return [np.ones(n + 1), np.ones((n + 1, 2)), np.ones((n, 2, 2)), np.float64(1.0)]


@pytest.mark.parametrize("n,density,seed", CASES)
@pytest.mark.parametrize("fmt", ["row", "col", "diag"])
def test_matvec_of_a_block_is_the_matvec_of_each_column(fmt, n, density, seed):
    t, blocks = random_case(n, density, seed)
    a = build(t, fmt)
    for x in blocks:
        assert_columnwise(a.matvec, x)
    for x in inputs_of_wrong_shape(n):
        with pytest.raises(ValueError, match=r"vector has shape"):
            a.matvec(x)


@pytest.mark.parametrize("n,density,seed", CASES)
@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_sweep_and_accumulate_of_a_block_are_those_of_each_column(n, density, seed, lower):
    t, blocks = random_case(n, density, seed)
    c = t.coalesced()
    diag = np.random.default_rng(seed).uniform(0.5, 2.0, n) * np.where(np.arange(n) % 2, -1, 1)
    sweep = _Sweep(n, c.rows, c.cols, c.vals, lower)
    one_group = _Panels(n, c.rows, c.cols, c.vals, np.zeros(n, dtype=np.int64))
    for x in blocks:
        assert_columnwise(lambda v: sweep.solve(diag, v), x)
        for panels in (sweep, one_group):
            assert_columnwise(lambda v: panels.accumulate(2.0 * v, v), x)
    for x in inputs_of_wrong_shape(n):
        with pytest.raises(ValueError, match=r"vector has shape"):
            sweep.solve(diag, x)
        with pytest.raises(ValueError, match=r"vector has shape"):
            one_group.accumulate(x, x)


_lu_solve = scipy.linalg.lu_solve


def _lu_solve_by_columns(lu, b, **kw):
    """lu_solve one column at a time: the vector path's LAPACK call."""
    b = np.asarray(b)
    if b.ndim == 1:
        return _lu_solve(lu, b, **kw)
    return by_columns(lambda v: _lu_solve(lu, v, **kw), b)


@pytest.mark.parametrize("N,bs", [(3, 1), (3, 3), (4, 2), (10, 10), (12, 6)])
def test_block_sweeps_of_a_block_are_those_of_each_column(N, bs):
    a = poisson_test(N).a
    n = N * N
    blocks = _Blocks(a, bs)
    factors = [blocks.factor(d, i) for i, d in enumerate(blocks.diag)]
    sweeps = [lambda r: blocks.forward(factors, r), lambda r: blocks.solve(factors, r),
              lambda r: blocks.backward(factors, r)]
    rng = np.random.default_rng(N)
    for k in (1, 3, n):
        x = rng.standard_normal((n, k))
        for sweep in sweeps:
            # The coupling sums are bitwise those of the vector sweep; LAPACK's
            # multi-column solve of a diagonal block rounds in its own order
            # (exactly the vector result for 1 x 1 blocks).
            got, want = sweep(x), by_columns(sweep, x)
            if bs == 1:
                assert np.array_equal(bits(got), bits(want))
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
            with mock.patch.object(scipy.linalg, "lu_solve", _lu_solve_by_columns):
                assert_columnwise(sweep, x)
    for x in inputs_of_wrong_shape(n):
        for sweep in sweeps:
            with pytest.raises(ValueError, match=r"vector has shape"):
                sweep(x)


@pytest.mark.parametrize("make", [lambda: poisson_test(10), lambda: poisson_test(32),
                                  lambda: cavity_laplace(12, 0.3),
                                  lambda: random_sparse(64, 0.2, seed=3)],
                         ids=["poisson10", "poisson32", "cavity12", "random64"])
def test_block_jacobi_solve_is_the_sweep_without_coupling(make):
    """One LU solve per diagonal block is bitwise the block sweep over
    groups that hold no entries."""
    a = make().a
    blocks = _Blocks(a)
    factors = [blocks.factor(d, i) for i, d in enumerate(blocks.diag)]
    empty = _Panels(blocks.n, *(v[:0] for v in blocks.coupling), np.arange(blocks.n) // blocks.bs)
    n, rng, m_solve = blocks.n, np.random.default_rng(5), split(a, "block_jacobi").m_solve
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 5)), np.eye(n), np.full(n, -0.0)):
        want = empty.sweep(rhs, _Blocks._lu(factors))
        assert bits(blocks.solve(factors, rhs)).tobytes() == bits(want).tobytes()
        assert bits(m_solve(rhs)).tobytes() == bits(want).tobytes()


SPLITTINGS = ["jacobi", "gauss_seidel", "sor", "ssor", "block_jacobi", "block_gs"]


def omega_of(method):
    return 1.3 if method in ("sor", "ssor") else None


@pytest.mark.parametrize("method", SPLITTINGS)
def test_splitting_acts_on_a_block_column_by_column(method):
    a = poisson_test(5).a
    sp = split(a, method, omega=omega_of(method))
    x = np.random.default_rng(5).standard_normal((25, 25))
    assert_columnwise(sp.a_apply, x)
    if method.startswith("block"):
        with mock.patch.object(scipy.linalg, "lu_solve", _lu_solve_by_columns):
            assert_columnwise(sp.m_solve, x)
    else:
        assert_columnwise(sp.m_solve, x)
    for x in inputs_of_wrong_shape(25):
        with pytest.raises(ValueError):
            sp.m_solve(x)


@pytest.mark.parametrize("method", SPLITTINGS)
@pytest.mark.parametrize("bs", [2, 4])
def test_n_apply_acts_on_a_block_column_by_column(method, bs):
    a = cavity_laplace(4, 0.3).a  # its diagonal is not constant, unlike Poisson's
    sp = split(a, method, omega=omega_of(method), block_size=bs)
    rng = np.random.default_rng(bs)
    for k in (1, 3, 16, 33):
        x = rng.standard_normal((16, k))
        x[::3, ::2] = -0.0
        if method.startswith("block"):
            # the coupling sums are the vector's; one matmul over the diagonal
            # blocks of a k-column block rounds in its own order
            got, want = sp.n_apply(x), by_columns(sp.n_apply, x)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        else:
            assert_columnwise(sp.n_apply, x)
    for x in inputs_of_wrong_shape(16):
        with pytest.raises(ValueError, match=r"vector has shape"):
            sp.n_apply(x)


def vector_path_applier(*args, **kwargs):
    """iteration_matrix_applier with the dense bound at 0: the vector path."""
    with mock.patch.object(stationary, "_DENSE_G_BYTES", 0):
        return iteration_matrix_applier(*args, **kwargs)


POINT_CASES = [("jacobi", None), ("gauss_seidel", None), ("sor", 0.7), ("sor", 1.56),
               ("ssor", 0.8), ("ssor", 1.5)]


@pytest.mark.parametrize("N", [4, 10])
@pytest.mark.parametrize("method,omega", POINT_CASES)
def test_dense_g_columns_are_the_vector_path_on_unit_vectors(N, method, omega):
    a, n = poisson_test(N).a, N * N
    dense = iteration_matrix_applier(a, method, omega=omega)
    vector = vector_path_applier(a, method, omega=omega)
    v = np.random.default_rng(N).standard_normal(n)
    got = dense(v)  # the first call forms G
    np.testing.assert_allclose(got, vector(v), rtol=0, atol=1e-14 * np.abs(got).max())
    assert dense.matrix.shape == (n, n)
    for j, e in enumerate(np.eye(n)):
        assert np.array_equal(bits(dense.matrix[:, j]), bits(vector(e))), j


@pytest.mark.parametrize("method", ["block_jacobi", "block_gs"])
@pytest.mark.parametrize("N,bs", [(4, 2), (4, 4), (10, 10)])
def test_dense_g_columns_of_the_block_splittings(N, bs, method):
    a, n = poisson_test(N).a, N * N
    dense = iteration_matrix_applier(a, method, block_size=bs)
    vector = vector_path_applier(a, method, block_size=bs)
    dense(np.ones(n))
    want = np.column_stack([vector(e) for e in np.eye(n)])
    np.testing.assert_allclose(dense.matrix, want, rtol=0, atol=1e-15)


class Counted:
    def __init__(self, g):
        self.g, self.calls = g, 0

    def __call__(self, v):
        self.calls += 1
        return self.g(v)


RADIUS_CASES = (
    [("jacobi", None, None), ("gauss_seidel", None, None), ("block_jacobi", None, 10),
     ("block_gs", None, 10), ("ssor", 1.0, None), ("ssor", 1.7, None)]
    + [("sor", float(omega), None) for omega in np.arange(0.05, 1.99, 0.01)]  # criterion 02's grid
)


def test_power_steps_on_the_dense_g_are_those_of_the_vector_path():
    a = poisson_test(10).a
    for method, omega, bs in RADIUS_CASES:
        dense = Counted(iteration_matrix_applier(a, method, omega=omega, block_size=bs))
        vector = Counted(vector_path_applier(a, method, omega=omega, block_size=bs))
        rho_dense = spectral_radius_estimate(dense, 100)
        rho_vector = spectral_radius_estimate(vector, 100)
        assert dense.calls == vector.calls, (method, omega)
        assert rho_dense == pytest.approx(rho_vector, rel=1e-14), (method, omega)


@pytest.mark.parametrize("method,omega", POINT_CASES + [("block_gs", None)])
def test_dense_applier_rejects_a_vector_of_the_wrong_length(method, omega):
    g = iteration_matrix_applier(poisson_test(4).a, method, omega=omega, block_size=4)
    for v in (np.ones(17), np.ones(15), np.ones((16, 1))):
        with pytest.raises(ValueError, match=r"vector has shape"):
            g(v)
    g(np.ones(16))
    with pytest.raises(ValueError, match=r"vector has shape"):
        g(np.ones(17))


def _laplacian_1d(n):
    i = np.arange(n)
    return Triplets(n, np.r_[i, i[1:], i[:-1]], np.r_[i, i[:-1], i[1:]],
                    np.r_[np.full(n, 2.0), np.full(2 * n - 2, -1.0)])


def test_dense_bound_is_two_megabytes():
    assert isinstance(iteration_matrix_applier(_laplacian_1d(512), "jacobi"),
                      stationary._DenseOnFirstCall)
    assert not isinstance(iteration_matrix_applier(_laplacian_1d(513), "jacobi"),
                          stationary._DenseOnFirstCall)


@pytest.mark.parametrize("method,omega", [("gauss_seidel", None), ("ssor", 1.2),
                                          ("block_jacobi", None)])
def test_no_dense_g_above_the_bound(method, omega):
    N = 23
    n = N * N
    assert 8 * n * n > stationary._DENSE_G_BYTES
    a = poisson_test(N).a
    v = np.random.default_rng(0).standard_normal(n)
    tracemalloc.start()
    try:
        g = iteration_matrix_applier(a, method, omega=omega, block_size=N)
        for _ in range(3):
            v = g(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4, peak
    assert math.isfinite(float(np.linalg.norm(v)))
