import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from krylov import storage
from krylov.core import spectral_radius_estimate
from krylov.problems import (cavity_laplace, hilbert, indefinite_kron, poisson_test,
                             random_sparse)
from krylov.stationary import (StationaryConfig, diagnostics,
                               iteration_matrix_applier, iterate,
                               optimal_omega_estimate, split, ssor_iterate)
from krylov.storage import Triplets, to_dense, to_triplets


def dominant_random(n, rng):
    a = rng.standard_normal((n, n))
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, n))
    return a


def test_split_jacobi_diagonal():
    sp = split(np.diag([2.0, 3.0]), "jacobi")
    np.testing.assert_allclose(sp.m_solve(np.array([2.0, 3.0])), [1.0, 1.0])
    np.testing.assert_allclose(sp.n_apply(np.array([1.0, 1.0])), [0.0, 0.0])


def test_split_gs_matches_dense_triangular_solve(rng):
    inst = poisson_test(2)
    dense = to_dense(inst.a)
    sp = split(inst.a, "gauss_seidel")
    r = rng.standard_normal(4)
    np.testing.assert_allclose(sp.m_solve(r), np.linalg.solve(np.tril(dense), r),
                               rtol=1e-13, atol=1e-14)


def test_sor_at_omega_one_is_gauss_seidel(rng):
    a = dominant_random(6, rng)
    r = rng.standard_normal(6)
    gs = split(a, "gauss_seidel")
    sor = split(a, "sor", omega=1.0)
    np.testing.assert_allclose(sor.m_solve(r), gs.m_solve(r), rtol=1e-13)


def test_split_rejects_zero_diagonal():
    with pytest.raises(ValueError):
        split(np.array([[0.0, 1.0], [1.0, 1.0]]), "jacobi")


def test_split_rejects_bad_omega():
    with pytest.raises(ValueError):
        split(np.eye(2), "sor", omega=2.5)


def test_splitting_forms_agree(rng):
    # M x_{k+1} = N x_k + b versus the residual-update form, step by step
    for trial in range(20):
        n = 8
        a = dominant_random(n, rng)
        b = rng.standard_normal(n)
        for method, om, bs in (("jacobi", None, None), ("gauss_seidel", None, None),
                               ("sor", 1.4, None), ("block_jacobi", None, 2),
                               ("block_gs", None, 4)):
            sp = split(a, method, omega=om, block_size=bs)
            x1 = rng.standard_normal(n)
            x2 = x1.copy()
            for _ in range(10):
                x1 = x1 + sp.m_solve(b - sp.a_apply(x1))
                x2 = sp.m_solve(sp.n_apply(x2) + b)
                assert np.abs(x1 - x2).max() <= 1e-13 * max(1.0, np.abs(x1).max())


def test_iterate_identity_converges_in_one_step(rng):
    b = rng.standard_normal(5)
    rep = iterate(np.eye(5), b, StationaryConfig(method="jacobi", tol=1e-14))
    assert rep.converged and rep.iterations == 1
    np.testing.assert_allclose(rep.x, b)


def test_iterate_jacobi_poisson_regression():
    inst = poisson_test(10)
    rep = iterate(inst.a, inst.b,
                  StationaryConfig(method="jacobi", tol=1e-6, tol_kind="rel_to_r0"))
    assert rep.converged
    # consistent with the spectral-radius prediction log(tol)/log(rho)
    predicted = math.log(1e-6) / math.log(math.cos(math.pi / 11.0))
    assert abs(rep.iterations - predicted) <= 20
    assert rep.iterations == 330  # frozen regression count


def test_iterate_diagonally_dominant_converges(rng):
    a = dominant_random(8, rng)
    b = rng.standard_normal(8)
    for method in ("jacobi", "gauss_seidel"):
        rep = iterate(a, b, StationaryConfig(method=method, tol=1e-10,
                                             tol_kind="rel_to_b"))
        assert rep.converged
        assert np.linalg.norm(b - a @ rep.x) <= 1e-9 * np.linalg.norm(b)


def test_error_recurrence_follows_iteration_matrix(rng):
    a = dominant_random(8, rng)
    b = rng.standard_normal(8)
    x_star = np.linalg.solve(a, b)
    sp = split(a, "jacobi")
    g = iteration_matrix_applier(a, "jacobi")
    x = np.zeros(8)
    for _ in range(6):
        e_pred = g(x_star - x)
        x = x + sp.m_solve(b - a @ x)
        assert np.abs((x_star - x) - e_pred).max() <= 1e-12


def test_block_methods_match_point_methods_with_unit_blocks(rng):
    a = dominant_random(6, rng)
    r = rng.standard_normal(6)
    np.testing.assert_allclose(split(a, "block_jacobi", block_size=1).m_solve(r),
                               split(a, "jacobi").m_solve(r), rtol=1e-12)
    np.testing.assert_allclose(split(a, "block_gs", block_size=1).m_solve(r),
                               split(a, "gauss_seidel").m_solve(r), rtol=1e-12)


def test_block_size_must_divide():
    with pytest.raises(ValueError):
        split(np.eye(6), "block_jacobi", block_size=4)


def _dense_block_splitting(dense, bs, gs, a_apply):
    """The dense block formulas: M = block diagonal (+ block lower part for GS)."""
    n = dense.shape[0]
    m = np.zeros_like(dense)
    for lo in range(0, n, bs):
        sl = slice(lo, lo + bs)
        m[sl, sl] = dense[sl, sl]
        if gs:
            m[sl, :lo] = dense[sl, :lo]
    factors = [scipy.linalg.lu_factor(m[lo:lo + bs, lo:lo + bs]) for lo in range(0, n, bs)]

    def m_solve(r):
        u = np.empty(n)
        for k, lo in enumerate(range(0, n, bs)):
            sl = slice(lo, lo + bs)
            s = r[sl] - m[sl, :lo] @ u[:lo] if lo else r[sl]
            u[sl] = scipy.linalg.lu_solve(factors[k], s)
        return u

    def m_apply(x):
        y = np.empty(n)
        for lo in range(0, n, bs):
            sl = slice(lo, lo + bs)
            y[sl] = m[sl, sl] @ x[sl]
            if gs and lo:
                y[sl] += m[sl, :lo] @ x[:lo]
        return y

    return m_solve, lambda x: m_apply(x) - a_apply(x)


@pytest.mark.parametrize("N", [4, 10])
def test_block_splittings_bitwise_dense_formulas(N):
    # On a five-point grid each row has at most one block-lower entry, so the
    # sparse coupling sums the same terms as the dense block products.
    inst = poisson_test(N)
    dense = to_dense(inst.a)
    rng = np.random.default_rng(N)
    for method in ("block_jacobi", "block_gs"):
        sp = split(inst.a, method)
        ref_solve, ref_n = _dense_block_splitting(dense, N, method == "block_gs", sp.a_apply)
        for _ in range(5):
            r = rng.standard_normal(N * N)
            assert sp.m_solve(r).tobytes() == ref_solve(r).tobytes()
            assert sp.n_apply(r).tobytes() == ref_n(r).tobytes()


SINGULAR_BLOCK0 = np.array([[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0],
                            [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, 1.0, 3.0]])


@pytest.mark.parametrize("method", ["block_jacobi", "block_gs"])
def test_singular_diagonal_block_rejected_by_name(method):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="singular diagonal block 0"):
            split(SINGULAR_BLOCK0, method, block_size=2)
        with pytest.raises(ValueError, match="singular diagonal block 0"):
            iterate(SINGULAR_BLOCK0, np.ones(4), StationaryConfig(method, block_size=2))


TWO_DIVERGENT_BLOCKS = np.array([[1.0, 3.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, 3.0], [0.0, 0.0, 3.0, 1.0]])


@pytest.mark.parametrize("method", ["jacobi", "block_jacobi"])
def test_divergence_stops_as_non_finite_without_a_warning(method):
    # the Jacobi radius is 3: ||r||**2 overflows at iteration 323
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = iterate(TWO_DIVERGENT_BLOCKS, np.ones(4),
                      StationaryConfig(method, block_size=1))
    assert (rep.status, rep.reason, rep.iterations) == ("breakdown", "non-finite", 323)


@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel", "sor", "block_jacobi", "block_gs"])
def test_iterate_builds_triplets_once(method, monkeypatch):
    built, real = [], storage.build
    monkeypatch.setattr(storage, "build", lambda t, target: built.append(target) or real(t, target))
    t = to_triplets(poisson_test(4).a)
    iterate(t, np.ones(t.n), StationaryConfig(method, omega=1.2, block_size=4, max_iter=5))
    assert built == ["row"]


def test_ssor_one_step_equals_two_half_sweeps():
    a = np.array([[4.0, -1.0], [-1.0, 3.0]])
    b = np.array([1.0, 2.0])
    rep = ssor_iterate(a, b, 1.0, tol=0.0, max_iter=1)
    sq = np.sqrt(np.diag(a))
    ah = a / np.outer(sq, sq)
    bh = b / sq
    lh = -np.tril(ah, -1)
    uh = -np.triu(ah, 1)
    xh = np.linalg.solve(np.eye(2) - lh, bh)
    xh = np.linalg.solve(np.eye(2) - uh, lh @ xh + bh)
    np.testing.assert_allclose(rep.x, xh / sq, rtol=1e-13)


@pytest.mark.parametrize("omega", [0.6, 1.0, 1.4])
def test_ssor_iteration_matrix_real_nonnegative_spectrum(omega):
    inst = poisson_test(4)
    g = iteration_matrix_applier(inst.a, "ssor", omega=omega)
    gm = np.column_stack([g(e) for e in np.eye(16)])
    ev = np.linalg.eigvals(gm)
    assert np.abs(ev.imag).max() <= 1e-10
    assert ev.real.min() >= -1e-10


def test_ssor_rejects_omega_outside_interval():
    inst = poisson_test(3)
    with pytest.raises(ValueError):
        ssor_iterate(inst.a, inst.b, 2.0)
    with pytest.raises(ValueError):
        iteration_matrix_applier(inst.a, "ssor", omega=0.0)


def test_ssor_negative_diagonal_breaks_down():
    a = np.array([[-1.0, 0.0], [0.0, 2.0]])
    rep = ssor_iterate(a, np.array([1.0, 1.0]), 1.0, max_iter=5)
    assert rep.status == "breakdown"


def test_ssor_converges_on_poisson():
    inst = poisson_test(6)
    rep = ssor_iterate(inst.a, inst.b, 1.2, tol=1e-8, tol_kind="rel_to_r0",
                       max_iter=2000)
    assert rep.converged
    dense = to_dense(inst.a)
    np.testing.assert_allclose(dense @ rep.x, inst.b, atol=1e-7)


def test_iteration_matrix_rho_below_one_for_dominant(rng):
    a = dominant_random(9, rng)
    g = iteration_matrix_applier(a, "jacobi")
    assert spectral_radius_estimate(g, 9) < 1.0


def test_gs_radius_is_jacobi_squared_poisson6():
    inst = poisson_test(6)
    rho_j = spectral_radius_estimate(iteration_matrix_applier(inst.a, "jacobi"), 36)
    rho_gs = spectral_radius_estimate(
        iteration_matrix_applier(inst.a, "gauss_seidel"), 36)
    assert abs(rho_gs - rho_j ** 2) <= 5e-3


def test_sor_determinant_lower_bound_poisson6():
    inst = poisson_test(6)
    for omega in np.arange(0.2, 2.0, 0.2):
        g = iteration_matrix_applier(inst.a, "sor", omega=float(omega))
        rho = spectral_radius_estimate(g, 36)
        assert rho >= abs(1.0 - omega) - 1e-3


def test_regular_splitting_monotone_comparison_poisson6():
    inst = poisson_test(6)
    rho_j = spectral_radius_estimate(iteration_matrix_applier(inst.a, "jacobi"), 36)
    rho_gs = spectral_radius_estimate(
        iteration_matrix_applier(inst.a, "gauss_seidel"), 36)
    assert rho_gs <= rho_j + 1e-3
    prev = 1.0
    for omega in (0.2, 0.4, 0.6, 0.8, 1.0):
        rho = spectral_radius_estimate(
            iteration_matrix_applier(inst.a, "sor", omega=omega), 36)
        assert rho <= prev + 1e-3
        prev = rho


def test_optimal_omega_limit_and_poisson10_value():
    assert optimal_omega_estimate(1e-9) == pytest.approx(1.0, abs=1e-6)
    omega = optimal_omega_estimate(math.cos(math.pi / 11.0))
    assert omega == pytest.approx(1.56, abs=0.01)
    with pytest.raises(ValueError):
        optimal_omega_estimate(1.2)


def test_measured_radius_at_optimal_omega_poisson10():
    inst = poisson_test(10)
    omega = optimal_omega_estimate(math.cos(math.pi / 11.0))
    g = iteration_matrix_applier(inst.a, "sor", omega=omega)
    rho = spectral_radius_estimate(g, 100)
    assert rho == pytest.approx(0.57, abs=0.02)


def test_diagnostics_poisson_all_true():
    d = diagnostics(poisson_test(4).a)
    assert all(d.values())


def test_diagnostics_sign_pattern_false_for_positive_offdiag():
    d = diagnostics(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert not d["m_matrix_sign_pattern"]
    assert not d["symmetric"]


def test_diagnostics_hilbert_not_dominant():
    d = diagnostics(hilbert(10).a)
    assert not d["diag_dominant_rows"]
    assert not d["diag_dominant_cols"]
    assert d["symmetric"]


def _dense_diagnostics(dense):
    """The dense formulas diagnostics() must agree with."""
    absd = np.abs(np.diag(dense))
    row_off = np.sum(np.abs(dense), axis=1) - absd
    col_off = np.sum(np.abs(dense), axis=0) - absd
    off = dense - np.diag(np.diag(dense))
    return {
        "diag_dominant_rows": bool(np.all(absd >= row_off) and np.any(absd > row_off)),
        "diag_dominant_cols": bool(np.all(absd >= col_off) and np.any(absd > col_off)),
        "m_matrix_sign_pattern": bool(np.all(np.diag(dense) > 0) and np.all(off <= 0)),
        "symmetric": bool(np.array_equal(dense, dense.T)),
    }


def _nonsymmetric():
    a = to_dense(poisson_test(5).a)
    a[3, 8] = -0.5
    a[0, 1] = 0.0
    return a


@pytest.mark.parametrize("make", [
    lambda: poisson_test(8).a,
    lambda: cavity_laplace(9, 0.3).a,
    lambda: cavity_laplace(12, 0.3).a,  # Neumann rows tie within rounding
    lambda: hilbert(12).a,
    lambda: hilbert(6, shift=0.5).a,
    lambda: indefinite_kron(5).a,
    lambda: random_sparse(80, 0.05, seed=3).a,
    _nonsymmetric,
    lambda: Triplets(3, [0, 0, 1, 2, 1], [0, 1, 1, 2, 0], [2.0, 0.0, 2.0, 2.0, -1.0]),
], ids=["poisson", "cavity", "cavity-tie", "hilbert", "hilbert-shifted", "indefinite", "random",
        "nonsymmetric", "explicit-zero"])
def test_diagnostics_match_dense_formulas(make):
    a = make()
    assert diagnostics(a) == _dense_diagnostics(to_dense(a))
