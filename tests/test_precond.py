import dataclasses
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from conftest import make_spd

from krylov.cg import assemble_tbar, cg, estimate_extremes_by_cg
from krylov.chebyshev import cheb_T
from krylov.core import sturm_extreme_eigs
from krylov.precond import (IcBreakdownError, apply_block_solve,
                            apply_ic_solve, block_precond, ic0_pentadiagonal,
                            ic_matrix_apply, jacobi_preconditioner,
                            mic_pentadiagonal, pcg, poly_apply_Cb,
                            poly_apply_pmA, poly_monomial_coeffs,
                            poly_precond_build, solve_poly_pcg)
from krylov.problems import cavity_laplace, poisson_test
from krylov.storage import Triplets, _Blocks, _lu_solve, build, to_dense


def tridiag_stieltjes(n, rng):
    diag = rng.uniform(2.5, 4.0, n)
    off = -rng.uniform(0.2, 1.0, n - 1)
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i), cols.append(i), vals.append(diag[i])
        if i > 0:
            rows += [i, i - 1]
            cols += [i - 1, i]
            vals += [off[i - 1], off[i - 1]]
    return build(Triplets(n, rows, cols, vals), "diag")


def test_pcg_identity_preconditioner_matches_cg(rng):
    a = make_spd(10, rng)
    b = rng.standard_normal(10)
    xs_cg, xs_pcg = [], []
    cg(a, b, tol=0.0, max_iter=8, callback=lambda d: xs_cg.append(d["x"]))
    pcg(a, b, None, tol=0.0, max_iter=8, callback=lambda d: xs_pcg.append(d["x"]))
    for u, v in zip(xs_cg, xs_pcg):
        assert np.abs(u - v).max() <= 1e-12 * max(1.0, np.abs(u).max())


def test_pcg_jacobi_biorthogonality():
    inst = poisson_test(5)
    c_apply = jacobi_preconditioner(inst.a)
    rs, ss = [inst.b.copy()], [c_apply(inst.b)]
    rep = pcg(inst.a, inst.b, c_apply, tol=1e-12, tol_kind="rel_to_b",
              max_iter=200,
              callback=lambda d: (rs.append(d["r"]), ss.append(d["s"])))
    assert rep.converged
    floor = 1e-12 * np.linalg.norm(rs[0])
    live = [k for k in range(min(len(rs), 12)) if np.linalg.norm(rs[k]) > floor]
    for i in live:
        for j in live:
            if j >= i:
                continue
            scale = np.linalg.norm(ss[j]) * np.linalg.norm(rs[i])
            assert abs(ss[j] @ rs[i]) <= 1e-8 * max(scale, 1e-30)


def test_tbar_of_jacobi_pcg_gives_the_extremes_of_the_scaled_matrix():
    # assemble_tbar of a PCG report is the Lanczos matrix of C^(1/2) A C^(1/2)
    inst = cavity_laplace(8, 0.3)
    rep = pcg(inst.a, inst.b, jacobi_preconditioner(inst.a), tol=0.0, max_iter=40)
    assert rep.iterations == 40
    dense = to_dense(inst.a)
    scale = 1.0 / np.sqrt(np.diag(dense))
    eigs = np.linalg.eigvalsh(scale[:, None] * dense * scale[None, :])
    lo, hi = sturm_extreme_eigs(assemble_tbar(rep), tol=1e-14)
    assert lo == pytest.approx(eigs[0], abs=1e-13)
    assert hi == pytest.approx(eigs[-1], abs=1e-13)


def test_jacobi_preconditioner_divides_each_row_of_a_block(rng):
    a = cavity_laplace(4, 0.3).a  # its diagonal is not constant
    d = np.diag(to_dense(a))
    c_apply = jacobi_preconditioner(a)
    x = rng.standard_normal((16, 16))  # square: dividing its columns would raise nothing
    assert np.array_equal(c_apply(x), x / d[:, None])
    for j in range(16):
        assert np.array_equal(c_apply(x[:, j]), x[:, j] / d)
    for bad in (np.ones(15), np.ones((17, 2))):
        with pytest.raises(ValueError, match=r"vector has shape"):
            c_apply(bad)


def test_pcg_detects_indefinite_preconditioner(rng):
    a = make_spd(6, rng)
    b = rng.standard_normal(6)
    rep = pcg(a, b, lambda r: -r, tol=1e-10, max_iter=6)
    assert rep.status == "breakdown" and rep.reason == "precond-not-spd"


def test_each_breakdown_of_the_pcg_loop():
    # d = p' A p <= 0 at the first step
    rep = cg(np.diag([1.0, -1.0]), np.ones(2))
    assert (rep.status, rep.reason, rep.iterations) == ("breakdown", "not-spd", 0)
    # eta_0 = r' C r > 0, then eta_1 < 0 after one step
    rep = pcg(np.diag([1.0, 3.0]), np.ones(2), lambda r: np.array([1.0, -0.5]) * r)
    assert (rep.status, rep.reason, rep.iterations) == ("breakdown", "precond-not-spd", 1)


def test_ic_tridiagonal_is_exact(rng):
    a = tridiag_stieltjes(12, rng)
    f = ic0_pentadiagonal(a, 12)  # band offset beyond n: pure tridiagonal
    dense = to_dense(a)
    for _ in range(5):
        r = rng.standard_normal(12)
        np.testing.assert_allclose(apply_ic_solve(f, r), np.linalg.solve(dense, r),
                                   rtol=1e-11, atol=1e-11)


def test_ic_pivots_hand_recurrence_poisson3():
    inst = poisson_test(3)
    f = ic0_pentadiagonal(inst.a, 3)
    dt = np.empty(9)
    b = f.b
    c = f.c
    for i in range(9):
        v = 4.0
        if i >= 1:
            v -= b[i] ** 2 / dt[i - 1]
        if i >= 3:
            v -= c[i] ** 2 / dt[i - 3]
        dt[i] = v
    np.testing.assert_allclose(f.dt, dt, rtol=1e-15)
    assert dt[0] == 4.0 and dt[1] == pytest.approx(3.75)


def test_ic_error_matrix_structure():
    inst = poisson_test(4)
    N = 4
    f = ic0_pentadiagonal(inst.a, N)
    n = inst.n
    m = np.column_stack([ic_matrix_apply(f, e) for e in np.eye(n)])
    r_mat = m - to_dense(inst.a)
    expected = np.zeros((n, n))
    for i in range(N, n):
        r_i = f.b[i - N + 1] * f.c[i] / f.dt[i - N]
        assert r_i >= 0.0
        expected[i, i - N + 1] = r_i
        expected[i - N + 1, i] = r_i
    np.testing.assert_allclose(r_mat, expected, atol=1e-12)


@pytest.mark.parametrize("N", [4, 6, 8])
def test_ic_stability_pivots_dominate_exact(N):
    inst = poisson_test(N)
    f = ic0_pentadiagonal(inst.a, N)
    dense = to_dense(inst.a)
    chol = np.linalg.cholesky(dense)
    d_exact = np.diag(chol) ** 2
    assert np.all(f.dt >= d_exact - 1e-12)
    assert np.all(d_exact > 0)


def test_ic_rejects_non_stieltjes():
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        ic0_pentadiagonal(a, 2)


def test_ic_rejects_band_below_one():
    with pytest.raises(ValueError, match="band offset"):
        ic0_pentadiagonal(poisson_test(3).a, 0)


def test_ic_breakdown_on_nonpositive_pivot():
    t = Triplets(2, [0, 1, 0, 1], [0, 1, 1, 0], [1.0, 1.0, -2.0, -2.0])
    a = build(t, "diag")
    with pytest.raises(IcBreakdownError):
        ic0_pentadiagonal(a, 2)


def test_mic_tridiagonal_recurrence(rng):
    a = tridiag_stieltjes(9, rng)
    band = 9
    f = mic_pentadiagonal(a, band)
    dt = np.empty(9)
    for i in range(9):
        v = f.a[i]
        if i >= 1:
            v -= f.b[i] * f.b[i] / dt[i - 1]  # c terms vanish out of band
        dt[i] = v
    np.testing.assert_allclose(f.dt, dt, rtol=1e-14)


def test_mic_row_sum_identity():
    for N in (5, 10):
        inst = poisson_test(N)
        f = mic_pentadiagonal(inst.a, N)
        ones = np.ones(inst.n)
        lhs = ic_matrix_apply(f, ones)
        rhs = inst.a.matvec(ones)
        assert np.abs(lhs - rhs).max() <= 1e-11


def test_mic_error_matrix_nonpositive_spectrum():
    inst = poisson_test(5)
    f = mic_pentadiagonal(inst.a, 5)
    n = inst.n
    m = np.column_stack([ic_matrix_apply(f, e) for e in np.eye(n)])
    ev = np.linalg.eigvalsh(m - to_dense(inst.a))
    assert ev.max() <= 1e-10


def test_mic_smallest_preconditioned_eigenvalue_is_one():
    inst = poisson_test(10)
    f = mic_pentadiagonal(inst.a, 10)
    dense = to_dense(inst.a)
    minv_a = np.column_stack([apply_ic_solve(f, dense[:, j]) for j in range(inst.n)])
    ev = np.linalg.eigvals(minv_a)
    assert np.abs(ev.imag).max() <= 1e-8
    assert ev.real.min() == pytest.approx(1.0, abs=1e-6)


def test_apply_ic_round_trip_and_symmetry(rng):
    inst = poisson_test(5)
    f = ic0_pentadiagonal(inst.a, 5)
    for _ in range(5):
        r = rng.standard_normal(25)
        np.testing.assert_allclose(ic_matrix_apply(f, apply_ic_solve(f, r)), r,
                                   rtol=1e-11, atol=1e-11)
    q = rng.standard_normal(25)
    r = rng.standard_normal(25)
    assert r @ apply_ic_solve(f, q) == pytest.approx(q @ apply_ic_solve(f, r), rel=1e-11)


@pytest.mark.parametrize("modified", [False, True], ids=["ic", "mic"])
@pytest.mark.parametrize("k", [1, 3, 16])
def test_ic_solve_and_matrix_apply_act_on_each_column_of_a_block(k, modified):
    """Rows are scaled by the pivots, not columns: each column of a block
    result is bitwise its vector apply (k = n = 16 included)."""
    for a in (poisson_test(4).a, cavity_laplace(4, 0.3).a):
        f = (mic_pentadiagonal if modified else ic0_pentadiagonal)(a, 4)
        x = np.random.default_rng(k).uniform(-1.0, 1.0, (16, k))
        for apply in (apply_ic_solve, ic_matrix_apply):
            want = np.column_stack([apply(f, x[:, j]) for j in range(k)])
            assert apply(f, x).tobytes() == want.tobytes()


def test_ic_matrix_apply_and_block_solve_name_a_wrong_shape():
    f = ic0_pentadiagonal(poisson_test(4).a, 4)
    with pytest.raises(ValueError, match=r"shape \(15,\), expected \(16,\) or \(16, k\)"):
        ic_matrix_apply(f, np.ones(15))
    g = block_precond(poisson_test(4).a, 4)
    for shape in [(16, 1), (16, 3), (16, 16), (15,)]:
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}, expected (16,)") + "$"):
            apply_block_solve(g, np.ones(shape))


def _copy(a):
    """The matrix ``a`` again, of its type, on copies of its arrays."""
    return type(a)(*(np.copy(v) if isinstance(v, np.ndarray) else v
                     for v in (getattr(a, f.name) for f in dataclasses.fields(a))))


def test_ic_pattern_is_rebuilt_once_a_field_array_is_reassigned():
    a = poisson_test(6).a
    f = ic0_pentadiagonal(a, 6)
    assert ic0_pentadiagonal(a, 6).lower is f.lower
    a.vals = a.vals + 1.5 * (a.offsets == 0)  # a new array: the diagonal shifted
    g, fresh = ic0_pentadiagonal(a, 6), ic0_pentadiagonal(_copy(a), 6)
    assert g.lower is not f.lower and g.upper is not f.upper
    assert g.dt.tobytes() == fresh.dt.tobytes()
    r = np.linspace(-1.0, 1.0, a.n)
    assert apply_ic_solve(g, r).tobytes() == apply_ic_solve(fresh, r).tobytes()
    a.vals = a.vals - 10.0 * (a.offsets == 0)  # a negative diagonal
    with pytest.raises(ValueError, match="expected positive diagonal"):
        mic_pentadiagonal(a, 6)


def test_ic_pattern_of_each_band_is_its_own():
    """Entries at offsets 1 and 3: band 3 is valid, band 1 raises the named
    ValueError each time; a tridiagonal matrix keeps one pattern per band."""
    n = 9
    rows = [*range(n), *range(1, n), *range(n - 1), *range(3, n), *range(n - 3)]
    cols = [*range(n), *range(n - 1), *range(1, n), *range(n - 3), *range(3, n)]
    a = Triplets(n, rows, cols, [4.0] * n + [-1.0] * (2 * n - 2) + [-0.5] * (2 * n - 6))
    f = mic_pentadiagonal(a, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"entry \(0, 3\) off the pentadiagonal pattern"):
            ic0_pentadiagonal(a, 1)
    assert mic_pentadiagonal(a, 3).lower is f.lower
    t = tridiag_stieltjes(n, np.random.default_rng(0))
    f3, f20 = ic0_pentadiagonal(t, 3), ic0_pentadiagonal(t, 20)
    assert f3.lower is not f20.lower and ic0_pentadiagonal(t, 3).lower is f3.lower
    for g, band in ((f3, 3), (f20, 20)):
        fresh = ic0_pentadiagonal(_copy(t), band)
        assert g.band == band and g.dt.tobytes() == fresh.dt.tobytes()


def test_ic_and_mic_of_one_matrix_share_their_sweeps_and_add_little_memory():
    """At Poisson N=100, MIC built and applied after IC on the same matrix
    reuses IC's sweeps; it adds its pivots and their level parts (about
    0.2 MB), not a second pattern (about 2.3 MB).  No apply leaves pivot
    state on a shared sweep."""
    a = poisson_test(100).a
    r = np.linspace(-1.0, 1.0, a.n)
    ic = ic0_pentadiagonal(a, 100)
    kept = [sorted(vars(s)) for s in (ic.lower, ic.upper)]
    apply_ic_solve(ic, r)
    tracemalloc.start()
    try:
        mic = mic_pentadiagonal(a, 100)
        apply_ic_solve(mic, r)
        added = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert mic.lower is ic.lower and mic.upper is ic.upper
    assert added < 0.5e6
    assert [sorted(vars(s)) for s in (ic.lower, ic.upper)] == kept
    assert not any(isinstance(v, np.ndarray) and v.size == a.n and v.dtype == float
                   for s in (ic.lower, ic.upper) for v in vars(s).values())


def test_block_scalar_blocks_reduce_to_exact_ldl(rng):
    a = tridiag_stieltjes(8, rng)
    f = block_precond(a, 1)
    dense = to_dense(a)
    r = rng.standard_normal(8)
    np.testing.assert_allclose(apply_block_solve(f, r), np.linalg.solve(dense, r),
                               rtol=1e-11, atol=1e-12)


def test_block_full_inverse_is_exact():
    inst = poisson_test(5)
    f = block_precond(inst.a, 5, sigma_rule="full")
    dense = to_dense(inst.a)
    r = np.linspace(-1, 1, 25)
    np.testing.assert_allclose(apply_block_solve(f, r), np.linalg.solve(dense, r),
                               rtol=1e-10, atol=1e-11)


def test_block_preconditioner_beats_plain_cg():
    inst = poisson_test(6)
    plain = cg(inst.a, inst.b, tol=1e-6, tol_kind="abs", max_iter=1000)
    f = block_precond(inst.a, 6)
    blocked = pcg(inst.a, inst.b, lambda r: apply_block_solve(f, r),
                  tol=1e-6, tol_kind="abs", max_iter=1000)
    assert blocked.converged and plain.converged
    assert blocked.iterations < plain.iterations


def _dense_block_solve(dense, f, r):
    """The dense formulas for M s = r: forward with the pivot and sub-diagonal
    blocks, multiply by each pivot block, backward with the transposes."""
    bs, nb = f.d_blocks.shape[1], f.d_blocks.shape[0]
    sl = [slice(i * bs, (i + 1) * bs) for i in range(nb)]
    y = np.empty(r.size)
    for i in range(nb):
        rhs = r[sl[i]] - dense[sl[i], sl[i - 1]] @ y[sl[i - 1]] if i else r[sl[i]]
        y[sl[i]] = scipy.linalg.lu_solve(f.factors[i], rhs)
    for i in range(nb):
        y[sl[i]] = f.d_blocks[i] @ y[sl[i]]
    s = np.empty(r.size)
    for i in reversed(range(nb)):
        rhs = y[sl[i]] - dense[sl[i + 1], sl[i]].T @ s[sl[i + 1]] if i + 1 < nb else y[sl[i]]
        s[sl[i]] = scipy.linalg.lu_solve(f.factors[i], rhs)
    return s


@pytest.mark.parametrize("N", [4, 10])
def test_block_solve_bitwise_dense_formulas(N):
    inst = poisson_test(N)
    dense = to_dense(inst.a)
    f = block_precond(inst.a, N)
    d = dense[:N, :N].copy()
    for i in range(N):  # the pivot recurrence on dense blocks
        if i:
            sub = dense[i * N:(i + 1) * N, (i - 1) * N:i * N]
            d = dense[i * N:(i + 1) * N, i * N:(i + 1) * N] - sub @ sigma @ sub.T
        assert f.d_blocks[i].tobytes() == d.tobytes()
        inv = scipy.linalg.lu_solve(scipy.linalg.lu_factor(d), np.eye(N))
        sigma = np.triu(np.tril(inv, 1), -1)
    rng = np.random.default_rng(N)
    for _ in range(5):
        r = rng.standard_normal(N * N)
        assert apply_block_solve(f, r).tobytes() == _dense_block_solve(dense, f, r).tobytes()


def test_block_size_defaults_to_grid_side():
    a = poisson_test(6).a
    f, g = block_precond(a, None), block_precond(a, 6)
    assert f.d_blocks.tobytes() == g.d_blocks.tobytes()
    r = np.linspace(-1.0, 1.0, 36)
    assert apply_block_solve(f, r).tobytes() == apply_block_solve(g, r).tobytes()


def _masked_block_pivots(a, bs, sigma_rule):
    """d_blocks and LU factors of :func:`block_precond` with each B_i masked
    out of the whole coupling in turn, block by block."""
    blocks = _Blocks(a, bs, band=1)
    d_blocks, factors = blocks.diag.copy(), []
    rows, cols, vals = blocks.coupling
    for i, d_i in enumerate(d_blocks):
        if i:
            on = rows // bs == i
            sub = np.zeros((bs, bs))
            sub[rows[on] % bs, cols[on] % bs] = vals[on]
            d_i -= sub @ sigma @ sub.T
        factors.append(blocks.factor(d_i, i))
        sigma = _lu_solve(factors[-1], np.eye(bs))
        if sigma_rule == "tridiagonal":
            sigma = np.triu(np.tril(sigma, 1), -1)
    return d_blocks, factors


@pytest.mark.parametrize("sigma_rule", ["tridiagonal", "full"])
@pytest.mark.parametrize("case", [("poisson", N) for N in range(4, 13)] + [("cavity", 9)], ids=str)
def test_block_pivots_are_those_of_the_per_block_mask(case, sigma_rule):
    kind, N = case
    a = poisson_test(N).a if kind == "poisson" else cavity_laplace(N, 0.3).a
    f = block_precond(a, N, sigma_rule)
    d_blocks, factors = _masked_block_pivots(a, N, sigma_rule)
    assert f.d_blocks.tobytes() == d_blocks.tobytes()
    for (lu, piv), (lu_ref, piv_ref) in zip(f.factors, factors, strict=True):
        assert lu.tobytes() == lu_ref.tobytes() and piv.tobytes() == piv_ref.tobytes()


def test_block_sigma_rule_checked_before_any_work():
    with pytest.raises(ValueError, match="sigma rule"):
        block_precond(poisson_test(4).a, 3, sigma_rule="diagonal")


def test_block_rejects_entry_outside_block_tridiagonal_band():
    t = Triplets(6, [0, 1, 2, 3, 4, 5, 5], [0, 1, 2, 3, 4, 5, 0], [4.0] * 6 + [-1.0])
    with pytest.raises(ValueError, match=r"entry \(5, 0\)"):
        block_precond(t, 2)
    block_precond(Triplets(6, range(6), range(6), [4.0] * 6), 2)


def test_block_singular_pivot_named():
    a = np.array([[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0],
                  [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, 1.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IcBreakdownError, match="at block 0$"):
            block_precond(a, 2)


def test_block_precond_builds_without_dense_matrix():
    # Poisson N=100 at block size 100: a dense A alone would take 800 MB.
    a = poisson_test(100).a
    tracemalloc.start()
    try:
        block_precond(a, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_poly_build_degree_one_closed_form():
    p = poly_precond_build(1, 0.5, 2.0)
    b = np.array([1.0, -2.0])
    np.testing.assert_allclose(poly_apply_Cb(p, np.diag([0.5, 2.0]), b),
                               2.0 / 2.5 * b)


def test_poly_gammas_in_documented_interval():
    p = poly_precond_build(11, 1e-3, 1.001)
    assert p.gammas.min() > 0.0
    assert p.gammas.max() < 4.0 / (1.001 - 1e-3)


def test_poly_eps_strictly_decreasing():
    lmin, lmax = 0.1, 2.0
    eps = [poly_precond_build(m, lmin, lmax).eps for m in range(1, 8)]
    assert eps[0] == pytest.approx((lmax - lmin) / (lmax + lmin))
    assert all(e2 < e1 for e1, e2 in zip(eps, eps[1:]))
    assert all(e < 1.0 for e in eps)


def test_poly_apply_pmA_diagonal_oracle(rng):
    lmin, lmax = 0.3, 3.0
    lam = rng.uniform(lmin, lmax, 7)
    a = np.diag(lam)
    p = poly_precond_build(5, lmin, lmax)
    v = rng.standard_normal(7)
    mu = (lmax + lmin - 2.0 * lam) / (lmax - lmin)
    pm = 1.0 - np.array([cheb_T(5, t) for t in mu]) / cheb_T(5, (lmax + lmin) / (lmax - lmin))
    np.testing.assert_allclose(poly_apply_pmA(p, a, v), pm * v, rtol=1e-12, atol=1e-13)


def test_poly_preconditioned_spectrum_within_eps_band():
    inst = poisson_test(6)
    lmin = 4.0 - 4.0 * math.cos(math.pi / 7.0)
    lmax = 4.0 + 4.0 * math.cos(math.pi / 7.0)
    for m in (2, 5, 9):
        p = poly_precond_build(m, lmin, lmax)
        pm = np.column_stack([poly_apply_pmA(p, inst.a, e) for e in np.eye(inst.n)])
        ev = np.linalg.eigvalsh(0.5 * (pm + pm.T))
        assert ev.min() >= 1.0 - p.eps - 1e-10
        assert ev.max() <= 1.0 + p.eps + 1e-10
        kappa = ev.max() / ev.min()
        assert kappa <= (1.0 + p.eps) / (1.0 - p.eps) + 1e-9
        if m >= 2:
            assert kappa < lmax / lmin


def test_poly_clenshaw_identity_stable_to_degree_40():
    inst = poisson_test(6)
    lmin = 4.0 - 4.0 * math.cos(math.pi / 7.0)
    lmax = 4.0 + 4.0 * math.cos(math.pi / 7.0)
    scale = np.linalg.norm(inst.b)
    for m in range(1, 41):
        p = poly_precond_build(m, lmin, lmax)
        lhs = inst.a.matvec(poly_apply_Cb(p, inst.a, inst.b))
        rhs = poly_apply_pmA(p, inst.a, inst.b)
        assert np.abs(lhs - rhs).max() <= 1e-11 * scale


def test_poly_monomial_ill_conditioning_demo():
    c = poly_monomial_coeffs(11, 1e-3, 1.001)

    def horner(lam):
        v = 0.0
        for ci in c:
            v = v * lam + ci
        return v

    def stable(lam):
        mu0 = (1.001 + 1e-3) / (1.001 - 1e-3)
        mu = (1.001 + 1e-3 - 2.0 * lam) / (1.001 - 1e-3)
        return 1.0 - cheb_T(11, mu) / cheb_T(11, mu0)

    assert abs(horner(0.5) - stable(0.5)) <= 1e-6 * abs(stable(0.5))
    assert abs(horner(0.99) - stable(0.99)) >= 1e-10


@pytest.mark.parametrize("m", range(12))
def test_poly_monomial_coeffs_match_binomial_expansion(m):
    """Exact reference: T_m's integer power coefficients, expanded at
    mu(x) = mu0 + mu1 x by the binomial theorem in rational arithmetic."""
    a = [int(c) for c in np.polynomial.chebyshev.cheb2poly([0] * m + [1])]
    for lmin, lmax in ((0.1, 8.0), (1.0, 3.0), (1e-3, 1.001), (2 / 7, 100 / 3)):
        lo, hi = Fraction(lmin), Fraction(lmax)
        mu0, mu1 = (hi + lo) / (hi - lo), -2 / (hi - lo)
        t = [sum(a[k] * math.comb(k, j) * mu0 ** (k - j) * mu1 ** j for k in range(j, m + 1))
             for j in range(m + 1)]
        ref = np.array([float(-c / t[0]) for c in reversed(t[1:])] + [0.0])
        assert poly_monomial_coeffs(m, lmin, lmax).tobytes() == ref.tobytes()


def test_tbar_of_poly_pcg_lies_in_the_eps_band():
    inst = poisson_test(10)
    eigs = np.linalg.eigvalsh(to_dense(inst.a))
    rep = solve_poly_pcg(inst.a, inst.b, 5, eigs[0], eigs[-1])
    assert rep.converged
    eps = rep.extras["eps_m"]
    lo, hi = sturm_extreme_eigs(assemble_tbar(rep), tol=1e-14)
    assert 1.0 - eps <= lo <= hi <= 1.0 + eps


def test_solve_poly_pcg_regression_counts():
    inst = poisson_test(10)
    lmin, lmax = estimate_extremes_by_cg(inst.a, inst.b, iters=25)
    rep9 = solve_poly_pcg(inst.a, inst.b, 9, lmin, lmax, tol=1e-6,
                          tol_kind="abs", max_iter=1000)
    rep11 = solve_poly_pcg(inst.a, inst.b, 11, lmin, lmax, tol=1e-6,
                           tol_kind="abs", max_iter=1000)
    assert rep9.converged and rep11.converged
    assert rep9.iterations == 5   # frozen regression values
    assert rep11.iterations == 4
    dense = to_dense(inst.a)
    np.testing.assert_allclose(dense @ rep9.x, inst.b, atol=1e-5)
