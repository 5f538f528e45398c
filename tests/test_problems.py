import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import poisson_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from krylov import problems
from krylov.core import TridiagSym, sturm_extreme_eigs
from krylov.problems import (_Lcg, cavity_laplace, hilbert, indefinite_kron,
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


def _row_loop_triplets(N, diag_of, off):
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
    return Triplets(N * N, rows, cols, vals)


def _assert_matches_row_loop(a, N, diag_of, off):
    """``a`` is bitwise the diag-format build of the row loop's triplets:
    n, k, int64 offsets, a column-major grid, and the same triplets back."""
    t = _row_loop_triplets(N, diag_of, off)
    ref, entries, back = build(t, "diag"), t.coalesced(), a.to_triplets()
    assert (a.n, a.k) == (ref.n, ref.k) == (N * N, 1 if N == 1 else 5)
    assert a.offsets.dtype == np.int64 and a.vals.flags.f_contiguous
    for u, v in ((a.vals, ref.vals), (a.offsets, ref.offsets), (back.rows, entries.rows),
                 (back.cols, entries.cols), (back.vals, entries.vals)):
        assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("N", [1, 2, 3, 7, 20, 33])
def test_grid_generators_match_row_loop_bitwise(N):
    _assert_matches_row_loop(poisson_test(N).a, N, lambda i, j: 4.0, -1.0)
    if N == 1:
        return
    _assert_matches_row_loop(indefinite_kron(N).a, N, lambda i, j: 2.0, -1.0)
    h = 1.0 / (N + 1)
    scale = 1.0 / (h * h)
    for delta in (0.1, 0.3, 0.5, 0.8):
        nu = math.floor((1.0 - delta) / h + 1e-12)
        if not 1 <= nu <= N - 1:
            continue
        inst = cavity_laplace(N, delta)
        _assert_matches_row_loop(
            inst.a, N, lambda i, j: (4.0 - (i == N) - (j == 1 and i <= nu) - (j == N)) * scale,
            -scale)
        b = np.array([scale if i == 1 else 0.0 for j in range(N) for i in range(1, N + 1)])
        assert inst.b.tobytes() == b.tobytes()


def test_poisson_316_is_assembled_in_under_10_mb():
    # the (n, 5) grid is 4.0 MB; a round trip through n * 5 triplets took 38.5 MB
    tracemalloc.start()
    try:
        poisson_test(316)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


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


def _scalar_random_sparse(n, density, seed):
    """Reference: the documented draw order, one ``_Lcg.next_uniform`` call at
    a time.  Also returns the stream positions of the value draws."""
    lcg = _Lcg(seed)
    p_off = (density * n * n - n) / (n * n - n) if n > 1 else 0.0
    p_off = min(max(p_off, 0.0), 1.0)
    rows, cols, vals, value_at = [], [], [], []
    offdiag_abs = np.zeros(n)
    drawn = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            drawn += 1
            if lcg.next_uniform() < p_off:
                v = 2.0 * lcg.next_uniform() - 1.0
                value_at.append(drawn)
                drawn += 1
                rows.append(i)
                cols.append(j)
                vals.append(v)
                offdiag_abs[i] += abs(v)
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(1.0 + offdiag_abs[i])
    a = build(Triplets(n, rows, cols, vals), "row")
    return a, a.matvec(np.ones(n)), value_at


def _assert_matches_scalar(n, density, seed):
    inst = random_sparse(n, density, seed)
    ref, b_ref, value_at = _scalar_random_sparse(n, density, seed)
    assert inst.a.k == ref.k
    for u, v in ((inst.a.vals, ref.vals), (inst.a.cols, ref.cols), (inst.b, b_ref)):
        assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
    return value_at


_SCALAR_CASES = [
    (1, 1.0, 0),     # diagonal only
    (2, 1.0, 0),
    (2, 0.5, 3),     # p_off = 0: every test draw fails
    (50, 0.02, 4),   # p_off = 0 at a larger n
    (7, 1.0, 5),     # p_off = 1: every cell accepted
    (100, 0.04, 1),
    (300, 0.02, 1),
]


@pytest.mark.parametrize("n,density,seed", _SCALAR_CASES)
def test_random_sparse_matches_scalar_lcg_bitwise(n, density, seed):
    _assert_matches_scalar(n, density, seed)


@pytest.mark.parametrize("block", [2, 3, 7])
def test_random_sparse_block_boundaries_bitwise(block, monkeypatch):
    monkeypatch.setattr(problems, "_LCG_BLOCK", block)
    on_boundary = 0
    for n, density, seed in _SCALAR_CASES[:-1] + [(30, 0.5, 1), (20, 0.3, 2),
                                                  (120, 1.0, 1), (120, 0.9, 1)]:
        value_at = _assert_matches_scalar(n, density, seed)
        on_boundary += sum(pos % block == 0 for pos in value_at)
    assert on_boundary > 0  # some value draw opened a block


@pytest.mark.parametrize("step", [0, 1])
def test_random_sparse_test_draw_next_to_p_off(step):
    # Seed the stream so that the first test draw is the double just below
    # p_off (accepted) or just above it (rejected).  This p_off is not a
    # multiple of 2**-53, so no draw equals it.
    n, density = 3, 0.45
    p_off = (density * n * n - n) / (n * n - n)
    assert p_off * 2 ** 53 % 1 != 0
    top = math.ceil(p_off * 2 ** 53) - 1 + step
    seed = ((top << 11) - _Lcg.INC) * pow(_Lcg.MULT, -1, 2 ** 64) % 2 ** 64
    assert (_Lcg(seed).next_uniform() < p_off) == (step == 0)
    _assert_matches_scalar(n, density, seed)
    assert (to_dense(random_sparse(n, density, seed).a)[0, 1] != 0.0) == (step == 0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 25), density=st.floats(1e-3, 1.0), seed=st.integers(-2**63, 2**64 - 1),
       block=st.sampled_from([1, 2, 5, 64, problems._LCG_BLOCK]))
def test_random_sparse_matches_scalar_lcg_property(n, density, seed, block):
    with mock.patch.object(problems, "_LCG_BLOCK", block):
        _assert_matches_scalar(n, density, seed)


@pytest.mark.parametrize("n,density,digest", [
    (2000, 0.003, "cb6f21e1b09574fe83422fd18de562146ee5c557b399e7cc8b18b6ad28f2a3a3"),
    (1000, 0.04, "b168c2dbfece3af5c4dbb495816964b69a983cdf5f05c55be794da76ba964ff1"),
])
def test_random_sparse_benchmark_matrices_unchanged(n, density, digest):
    # sha256 of the scalar generator's output for the benchmark's two matrices
    inst = random_sparse(n, density, seed=1)
    data = inst.a.vals.tobytes() + inst.a.cols.tobytes() + inst.b.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("n,density,block", [
    (2000, 0.003, None), (1000, 0.04, None),  # the benchmark's matrices
    (120, 1.0, None), (120, 0.9, 1), (120, 0.9, 7), (300, 0.5, 16),  # dense streams
])
def test_random_sparse_scans_its_candidates_at_most_twice(n, density, block, monkeypatch):
    # The tests drawn are counted by a scan of every candidate kept: once the
    # stream passes its expected length, and once more at most, so a dense
    # stream stays linear in its length.
    if block is not None:
        monkeypatch.setattr(problems, "_LCG_BLOCK", block)
    scanned, accepted = [], problems._accepted
    monkeypatch.setattr(problems, "_accepted", lambda t: scanned.append(t.size) or accepted(t))
    random_sparse(n, density, seed=1)
    assert 1 <= len(scanned) <= 2


def test_random_sparse_draws_in_bounded_memory():
    # A block of draws at a time: the whole ~4e6-draw stream would need ~100 MB.
    tracemalloc.start()
    try:
        random_sparse(2000, 0.003, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("n", [0, -3])
def test_random_sparse_rejects_bad_n(n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        random_sparse(n, 0.5)
