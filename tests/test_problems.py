import math

import numpy as np
import pytest
from conftest import poisson_dense

from krylov.core import TridiagSym, sturm_extreme_eigs
from krylov.problems import (cavity_laplace, hilbert, indefinite_kron,
                             poisson_test, random_sparse)
from krylov.storage import Triplets, build, read_matrix_market, to_dense, to_triplets, \
    write_matrix_market


def test_poisson_n1():
    inst = poisson_test(1)
    np.testing.assert_allclose(to_dense(inst.a), [[4.0]])
    np.testing.assert_allclose(inst.b, [0.5 ** 3 * 2.0])


def test_poisson_matches_kronecker_oracle():
    for N in (2, 3, 5):
        inst = poisson_test(N)
        np.testing.assert_array_equal(to_dense(inst.a), poisson_dense(N))
        h = 1.0 / (N + 1)
        b = np.array([h ** 3 * (i + j)
                      for j in range(1, N + 1) for i in range(1, N + 1)])
        np.testing.assert_allclose(inst.b, b)


def test_poisson_interior_row_sums():
    inst = poisson_test(2)
    # every node of the 2x2 grid touches two boundary sides: row sums are 2
    np.testing.assert_allclose(to_dense(inst.a) @ np.ones(4), np.full(4, 2.0))


@pytest.mark.parametrize("N", [2, 5, 17, 40])
def test_poisson_is_stieltjes(N):
    inst = poisson_test(N)
    dense = to_dense(inst.a)
    assert np.all(np.diag(dense) > 0)
    assert np.all(dense - np.diag(np.diag(dense)) <= 0)
    assert np.array_equal(dense, dense.T)
    t = TridiagSym(np.full(N, 2.0), np.full(max(N - 1, 0), -1.0))
    lo, _ = sturm_extreme_eigs(t, tol=1e-13)
    assert 2.0 * lo > 0  # spd via the Kronecker-factor spectrum


@pytest.mark.parametrize("N", [4, 10, 20])
def test_poisson_extreme_eigs_analytic(N):
    t = TridiagSym(np.full(N, 2.0), np.full(N - 1, -1.0))
    lo, hi = sturm_extreme_eigs(t, tol=1e-13)
    lam_min, lam_max = 2.0 * lo, 2.0 * hi  # Kronecker sum doubles extremes
    assert lam_min == pytest.approx(4.0 - 4.0 * math.cos(math.pi / (N + 1)), abs=1e-10)
    assert lam_max == pytest.approx(4.0 + 4.0 * math.cos(math.pi / (N + 1)), abs=1e-10)


def test_cavity_hand_elimination_oracle():
    inst = cavity_laplace(2, 0.5)
    s = 9.0  # 1/h**2 with h = 1/3
    a_hand = np.array([
        [3.0, -1.0, -1.0, 0.0],   # (1,1): bottom Neumann
        [-1.0, 3.0, 0.0, -1.0],   # (2,1): right Neumann, bottom Dirichlet 0
        [-1.0, 0.0, 3.0, -1.0],   # (1,2): top Neumann
        [0.0, -1.0, -1.0, 2.0],   # (2,2): top + right Neumann
    ]) * s
    b_hand = np.array([s, 0.0, s, 0.0])  # left wall p = 1
    np.testing.assert_array_equal(to_dense(inst.a), a_hand)
    np.testing.assert_array_equal(inst.b, b_hand)


@pytest.mark.parametrize("N,delta", [(4, 0.3), (7, 0.5), (10, 0.25)])
def test_cavity_structure(N, delta):
    inst = cavity_laplace(N, delta)
    dense = to_dense(inst.a)
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) > 0)
    assert np.all(dense - np.diag(np.diag(dense)) <= 0)
    # positive definite (dense oracle)
    assert np.linalg.eigvalsh(dense).min() > 0


def test_cavity_rejects_bad_outlet():
    with pytest.raises(ValueError):
        cavity_laplace(2, 0.05)  # nu = N: no Dirichlet node left


def _row_loop_stencil(N, diag_of, off):
    """Reference: the five-point matrix built node by node, as the grid
    generators once did, with diagonal ``diag_of(i, j)`` and off-diagonal ``off``."""
    rows, cols, vals = [], [], []
    for j in range(1, N + 1):
        for i in range(1, N + 1):
            p = (j - 1) * N + (i - 1)
            for inside, q in ((i > 1, p - 1), (i < N, p + 1), (j > 1, p - N), (j < N, p + N)):
                if inside:
                    rows.append(p)
                    cols.append(q)
                    vals.append(off)
            rows.append(p)
            cols.append(p)
            vals.append(diag_of(i, j))
    return build(Triplets(N * N, rows, cols, vals), "diag")


def _same_diag_format(a, ref):
    return all(u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
               for u, v in ((a.vals, ref.vals), (a.offsets, ref.offsets)))


@pytest.mark.parametrize("N", [1, 2, 3, 7, 20])
def test_grid_generators_match_row_loop_bitwise(N):
    assert _same_diag_format(poisson_test(N).a, _row_loop_stencil(N, lambda i, j: 4.0, -1.0))
    if N == 1:
        return
    assert _same_diag_format(indefinite_kron(N).a, _row_loop_stencil(N, lambda i, j: 2.0, -1.0))
    inst = cavity_laplace(N, 0.5)
    h = 1.0 / (N + 1)
    scale, nu = 1.0 / (h * h), math.floor(0.5 / h + 1e-12)
    ref = _row_loop_stencil(
        N, lambda i, j: (4.0 - (i == N) - (j == 1 and i <= nu) - (j == N)) * scale, -scale)
    assert _same_diag_format(inst.a, ref)
    b = np.array([scale if i == 1 else 0.0 for j in range(N) for i in range(1, N + 1)])
    assert inst.b.tobytes() == b.tobytes()


def test_hilbert_small():
    inst = hilbert(2)
    np.testing.assert_allclose(to_dense(inst.a), [[1.0, 0.5], [0.5, 1.0 / 3.0]])
    np.testing.assert_allclose(inst.b, [1.5, 5.0 / 6.0])
    np.testing.assert_allclose(inst.x_true, [1.0, 1.0])


def test_hilbert_conditioning():
    inst = hilbert(10)
    inv_norm = 1.0 / np.linalg.svd(inst.a, compute_uv=False).min()
    assert 0.3e13 <= inv_norm <= 3e13
    shifted = hilbert(10, shift=1.0)
    kappa = np.linalg.cond(shifted.a)
    assert kappa == pytest.approx(2.8, abs=0.1)


def test_indefinite_kron_small():
    inst = indefinite_kron(2)
    dense = to_dense(inst.a)
    assert np.all(np.diag(dense) == 2.0)
    ev = np.linalg.eigvalsh(dense)
    assert ev.min() < 0 < ev.max()


def test_indefinite_kron_symmetry_and_consistency():
    inst = indefinite_kron(6)
    dense = to_dense(inst.a)
    assert np.array_equal(dense, dense.T)
    np.testing.assert_allclose(dense @ inst.x_true, inst.b, atol=1e-12)


def test_random_sparse_density():
    inst = random_sparse(100, 0.04, seed=0)
    nnz = to_triplets(inst.a).nnz
    assert abs(nnz - 400) <= 40


def test_random_sparse_deterministic():
    t1 = to_triplets(random_sparse(30, 0.1, seed=7).a).coalesced()
    t2 = to_triplets(random_sparse(30, 0.1, seed=7).a).coalesced()
    np.testing.assert_array_equal(t1.rows, t2.rows)
    np.testing.assert_array_equal(t1.vals, t2.vals)
    t3 = to_triplets(random_sparse(30, 0.1, seed=8).a).coalesced()
    assert not (t1.vals.size == t3.vals.size and np.array_equal(t1.vals, t3.vals))


def test_random_sparse_full_density():
    inst = random_sparse(5, 1.0, seed=3)
    assert np.all(to_dense(inst.a) != 0.0)


def test_random_sparse_nonsingular():
    inst = random_sparse(40, 0.08, seed=11)
    dense = to_dense(inst.a)
    assert np.linalg.matrix_rank(dense) == 40
    np.testing.assert_allclose(dense @ np.ones(40), inst.b)


@pytest.mark.parametrize("make", [
    lambda: poisson_test(4),
    lambda: cavity_laplace(4, 0.3),
    lambda: indefinite_kron(3),
    lambda: random_sparse(15, 0.2, seed=2),
])
def test_generators_round_trip_matrix_market(make, rng):
    inst = make()
    t = to_triplets(inst.a)
    back = build(read_matrix_market(write_matrix_market(t)), "row")
    x = rng.standard_normal(t.n)
    np.testing.assert_allclose(back.matvec(x), to_dense(inst.a) @ x,
                               rtol=1e-13, atol=1e-13)
