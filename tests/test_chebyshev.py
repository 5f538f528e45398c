import math

import numpy as np
import pytest

from krylov.chebyshev import (cheb_T, cheb_U, estimate_interval,
                              minimax_error_bound, semi_iterative)
from krylov.problems import poisson_test
from krylov.stationary import Splitting, split
from krylov.storage import to_dense


def test_T_cosine_relation():
    th = math.pi / 7.0
    assert cheb_T(3, math.cos(th)) == pytest.approx(math.cos(3 * th), abs=1e-12)


def test_T_at_one_is_one():
    for k in range(21):
        assert cheb_T(k, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_T_zeros():
    for j in range(5):
        z = math.cos((2 * j + 1) * math.pi / 10.0)
        assert abs(cheb_T(5, z)) <= 1e-12


def test_T_odd_symmetry_outside_interval():
    assert cheb_T(3, -2.0) == pytest.approx(-cheb_T(3, 2.0))
    assert cheb_T(4, -2.0) == pytest.approx(cheb_T(4, 2.0))


def test_T_past_the_largest_double_is_infinite():
    assert cheb_T(2000, 1.2) == math.inf
    assert cheb_T(2001, -1.2) == -math.inf
    assert cheb_T(2000, -1.2) == math.inf


def test_U_small_values():
    assert cheb_U(1, 0.3) == pytest.approx(0.6)
    for k in range(11):
        assert cheb_U(k, 1.0) == pytest.approx(k + 1.0, rel=1e-12)


def test_U_sine_relation():
    th = math.pi / 5.0
    for k in range(8):
        assert cheb_U(k, math.cos(th)) * math.sin(th) == pytest.approx(
            math.sin((k + 1) * th), abs=1e-12)


def test_monic_normalization_of_T():
    # leading coefficient of T_k is 2**(k-1): track it through the recurrence
    lead_prev, lead = 1.0, 1.0  # T_0, T_1
    for k in range(2, 13):
        lead_prev, lead = lead, 2.0 * lead - 0.0
        assert 2.0 ** (1 - k) * lead == pytest.approx(1.0)


@pytest.mark.parametrize("zbar", [1.1, 2.0, 10.0])
def test_growth_lower_bound(zbar):
    # strict in exact arithmetic; the margin (half the reciprocal power) is
    # below double precision for large zbar, hence the rounding slack
    for k in range(1, 16):
        lower = 0.5 * (zbar + math.sqrt(zbar ** 2 - 1.0)) ** k
        assert cheb_T(k, zbar) > lower * (1.0 - 1e-12)


def test_minimax_bound_values():
    assert minimax_error_bound(-0.5, 0.5, 0) == 1.0
    mu1 = 1.0 + 2.0 * (1.0 - 0.5) / 1.0
    assert minimax_error_bound(-0.5, 0.5, 10) == pytest.approx(1.0 / cheb_T(10, mu1))
    assert minimax_error_bound(-0.9, 0.9, 2000) == 0.0  # 1/T_2000 is below the smallest double


def test_minimax_bound_is_sampled_maximum():
    alpha, beta, j = -0.7, 0.8, 9
    mu = lambda x: (2.0 * x - alpha - beta) / (beta - alpha)
    mu1 = mu(1.0)
    sampled = max(abs(cheb_T(j, mu(lam)) / cheb_T(j, mu1))
                  for lam in np.linspace(alpha, beta, 1000))
    assert abs(sampled - minimax_error_bound(alpha, beta, j)) <= 1e-10


def test_semi_iterative_exact_splitting_converges_immediately(rng):
    a = np.diag(rng.uniform(1.0, 3.0, 6))
    b = rng.standard_normal(6)
    base = Splitting(m_solve=lambda r: r / np.diag(a),
                     a_apply=lambda x: a @ x)
    rep = semi_iterative(base, b, -0.5, 0.5, tol=1e-12, tol_kind="rel_to_r0")
    assert rep.converged and rep.iterations == 1


def test_semi_iterative_on_a_zero_rhs_stops_before_a_step():
    calls = []
    jac = split(np.diag([2.0, 3.0]), "jacobi")
    base = Splitting(m_solve=lambda r: calls.append(r) or jac.m_solve(r), a_apply=jac.a_apply)
    rep = semi_iterative(base, np.zeros(2), -0.5, 0.5)
    assert (rep.status, rep.iterations, rep.history, calls) == ("converged", 0, [0.0], [])


def test_semi_iterative_respects_minimax_bound():
    inst = poisson_test(10)
    dense = to_dense(inst.a)
    x_star = np.linalg.solve(dense, inst.b)
    rho = math.cos(math.pi / 11.0)
    base = split(inst.a, "jacobi")
    e0 = np.linalg.norm(x_star)
    for j in (10, 30):
        rep = semi_iterative(base, inst.b, -rho, rho, tol=0.0, max_iter=j)
        reduction = np.linalg.norm(x_star - rep.x) / e0
        assert reduction <= 10.0 * minimax_error_bound(-rho, rho, j)


def test_semi_iterative_iteration_count_known_a_priori():
    inst = poisson_test(10)
    dense = to_dense(inst.a)
    x_star = np.linalg.solve(dense, inst.b)
    rho = math.cos(math.pi / 11.0)
    target = 1e-6
    j_pred = next(j for j in range(1, 500)
                  if minimax_error_bound(-rho, rho, j) <= target)
    base = split(inst.a, "jacobi")
    rep = semi_iterative(base, inst.b, -rho, rho, tol=0.0, max_iter=j_pred)
    assert np.linalg.norm(x_star - rep.x) <= 10.0 * target * np.linalg.norm(x_star)


def test_semi_iterative_detects_interval_mismatch():
    inst = poisson_test(10)
    base = split(inst.a, "jacobi")
    # the Jacobi spectrum reaches +-0.96; an interval missing the negative
    # tail amplifies those modes (a symmetric undersized interval would
    # still damp them, only more slowly)
    rep = semi_iterative(base, inst.b, -0.2, 0.5, tol=1e-10, max_iter=5000)
    assert rep.status == "breakdown"
    assert rep.reason == "interval-mismatch"


@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel", "block_gs"])
def test_semi_iterative_on_a_dense_splitting_names_a_wrong_rhs_length(method):
    base = split(to_dense(poisson_test(3).a), method, block_size=3)
    with pytest.raises(ValueError, match=r"vector has shape \(8,\), expected \(9,\)"):
        semi_iterative(base, np.ones(8), -0.5, 0.5)
    assert semi_iterative(base, np.ones(9), -0.9, 0.9).converged


def test_semi_iterative_validates_interval():
    base = Splitting(m_solve=lambda r: r, a_apply=lambda x: x)
    with pytest.raises(ValueError):
        semi_iterative(base, np.ones(3), -1.2, 0.5)
    with pytest.raises(ValueError):
        semi_iterative(base, np.ones(3), 0.5, 0.5)


def test_estimate_interval_accelerates_jacobi():
    import math
    from krylov.stationary import iteration_matrix_applier
    inst = poisson_test(8)
    g = iteration_matrix_applier(inst.a, "jacobi")
    alpha, beta = estimate_interval(g, inst.n)
    assert beta == pytest.approx(math.cos(math.pi / 9.0), abs=1e-3)
    base = split(inst.a, "jacobi")
    rep = semi_iterative(base, inst.b, alpha, beta, tol=1e-8,
                         tol_kind="rel_to_r0", max_iter=500)
    assert rep.converged


def test_estimate_interval_rejects_divergent_baseline():
    g = lambda v: 1.5 * v
    with pytest.raises(ValueError):
        estimate_interval(g, 4)
