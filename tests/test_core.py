import math

import numpy as np
import pytest

from krylov.chebyshev import estimate_interval
from krylov.core import (_POWER_RTOL, _POWER_SEED, _POWER_STEPS, TridiagSym, a_norm,
                         induced_matrix_norm, make_givens, spectral_radius_estimate,
                         sturm_count, sturm_extreme_eigs, vec_norm)
from krylov.problems import poisson_test
from krylov.stationary import iteration_matrix_applier
from krylov.storage import Triplets, build, to_dense, to_triplets
from krylov.symmetric import lanczos


def test_vec_norms():
    assert vec_norm([3.0, 4.0], "two") == pytest.approx(5.0)
    assert vec_norm([1.0, -2.0, 3.0], "one") == pytest.approx(6.0)
    assert vec_norm([1.0, -2.0, 3.0], "inf") == pytest.approx(3.0)
    with pytest.raises(ValueError):
        vec_norm([1.0], "three")


def test_a_norm_identity_and_diag(rng):
    v = rng.standard_normal(5)
    assert a_norm(v, np.eye(5)) == pytest.approx(vec_norm(v, "two"))
    assert a_norm([1.0, 0.0], np.diag([4.0, 9.0])) == pytest.approx(2.0)


def test_a_norm_matches_dense_quadratic_form(rng):
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = q @ np.diag(rng.uniform(0.5, 3.0, 5)) @ q.T
    v = rng.standard_normal(5)
    assert a_norm(v, a) == pytest.approx(math.sqrt(v @ a @ v))
    with pytest.raises(ValueError):
        a_norm(v, -np.eye(5))


def test_induced_matrix_norms():
    assert induced_matrix_norm(np.eye(3), "one") == 1.0
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert induced_matrix_norm(a, "inf") == 7.0
    assert induced_matrix_norm(a, "one") == 6.0


def test_make_givens_examples():
    g, r = make_givens(1.0, 0.0)
    assert (g.c, g.s, r) == (1.0, 0.0, 1.0)
    g, r = make_givens(0.0, 0.0)
    assert (g.c, g.s, r) == (1.0, 0.0, 0.0)
    g, r = make_givens(3.0, 4.0)
    assert (g.c, g.s, r) == pytest.approx((0.6, 0.8, 5.0))


def test_givens_unit_and_annihilation(rng):
    for _ in range(100):
        w, beta = rng.standard_normal(2) * 10.0 ** rng.integers(-8, 8)
        g, r = make_givens(w, beta)
        assert abs(g.c ** 2 + g.s ** 2 - 1.0) <= 1e-12
        top, bottom = g.apply(w, beta)
        assert r >= 0.0
        assert abs(top - r) <= 1e-12 * max(r, 1.0)
        assert abs(bottom) <= 1e-12 * math.hypot(w, beta)


def test_sturm_two_by_two():
    lo, hi = sturm_extreme_eigs(TridiagSym([2.0, 2.0], [-1.0]))
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(3.0, abs=1e-10)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-12])
def test_sturm_rejects_a_tol_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        sturm_extreme_eigs(TridiagSym([2.0, 2.0], [-1.0]), tol=tol)


def test_sturm_discrete_laplacian_analytic():
    t = TridiagSym(np.full(9, 2.0), np.full(8, -1.0))
    lo, hi = sturm_extreme_eigs(t, tol=1e-12)
    assert lo == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 10.0), abs=1e-10)
    assert hi == pytest.approx(2.0 + 2.0 * math.cos(math.pi / 10.0), abs=1e-10)


def _charpoly_root_scan(t: TridiagSym, npts=200001):
    """Independent oracle: bracket roots of det(T - x I) by sign changes.

    The determinant follows the classic three-term recurrence; no
    eigensolver involved.
    """
    d, e = t.diag, t.offdiag

    def det(x):
        p_prev, p = 1.0, d[0] - x
        for i in range(1, d.size):
            p, p_prev = (d[i] - x) * p - e[i - 1] ** 2 * p_prev, p
        return p

    radius = np.zeros(d.size)
    if e.size:
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
    lo = float(np.min(d - radius)) - 1e-6
    hi = float(np.max(d + radius)) + 1e-6
    xs = np.linspace(lo, hi, npts)
    vals = np.array([det(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0.0:
            a, b = xs[i], xs[i + 1]
            for _ in range(80):
                m = 0.5 * (a + b)
                if det(a) * det(m) <= 0.0:
                    b = m
                else:
                    a = m
            roots.append(0.5 * (a + b))
    return roots


def test_sturm_matches_charpoly_scan(rng):
    t = TridiagSym(rng.uniform(-2.0, 2.0, 6), rng.uniform(0.2, 1.0, 5))
    roots = _charpoly_root_scan(t)
    lo, hi = sturm_extreme_eigs(t, tol=1e-12)
    assert lo == pytest.approx(min(roots), abs=1e-8)
    assert hi == pytest.approx(max(roots), abs=1e-8)


def test_sturm_count_is_monotone(rng):
    t = TridiagSym(rng.uniform(-1.0, 1.0, 8), rng.uniform(0.1, 1.0, 7))
    xs = np.linspace(-4.0, 4.0, 41)
    counts = [sturm_count(t, x) for x in xs]
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == 8


def test_sturm_brackets_rayleigh_quotients(rng):
    t = TridiagSym(rng.uniform(0.0, 4.0, 10), rng.uniform(-1.0, 1.0, 9))
    lo, hi = sturm_extreme_eigs(t, tol=1e-12)
    for _ in range(100):
        v = rng.standard_normal(10)
        q = (v @ t.matvec(v)) / (v @ v)
        assert lo - 1e-9 <= q <= hi + 1e-9


def test_spectral_radius_scalar_matrix():
    rho = spectral_radius_estimate(0.5 * np.eye(4), 4)
    assert rho == pytest.approx(0.5, abs=1e-3)


def test_spectral_radius_nilpotent():
    g = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    assert spectral_radius_estimate(g, 3) == 0.0


def test_spectral_radius_complex_pair():
    th = 0.7
    g = 0.9 * np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
    assert spectral_radius_estimate(g, 2) == pytest.approx(0.9, abs=1e-3)


def _ref_spectral_radius(g, n):
    """Reference: the power loop as first written, logs kept in a list.
    Returns the estimate and the number of applications of ``g``."""
    v = np.random.default_rng(_POWER_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    logs = []
    previous = None
    for m in range(1, _POWER_STEPS + 1):
        w = g @ v
        s = float(np.linalg.norm(w))
        if s <= 1e-300:
            return 0.0, m
        logs.append(math.log(s))
        v = w / s
        if m >= 100 and m % 20 == 0:
            window = (m // 2) & ~1
            estimate = math.exp(float(np.mean(logs[-window:])))
            if previous is not None and (abs(estimate - previous)
                                         <= _POWER_RTOL * max(estimate, 1e-30)):
                return estimate, m
            previous = estimate
    window = (len(logs) // 2) & ~1
    return math.exp(float(np.mean(logs[-window:]))), _POWER_STEPS


def _gauss_seidel_g():
    apply_ = iteration_matrix_applier(poisson_test(6).a, "gauss_seidel")
    return np.column_stack([apply_(e) for e in np.eye(36)])


_POWER_CASES = {  # name: (G, how the run ends)
    "scalar": (lambda: 0.5 * np.eye(4), "early"),
    "rotation": (lambda: 0.9 * np.array([[math.cos(0.7), -math.sin(0.7)],
                                         [math.sin(0.7), math.cos(0.7)]]), "early"),
    "random": (lambda: np.random.default_rng(3).standard_normal((9, 9)) / 3.0, "early"),
    "gauss-seidel": (_gauss_seidel_g, "early"),
    "jordan": (lambda: np.array([[0.9, 1.0], [0.0, 0.9]]), "all"),  # settles too slowly
    "nilpotent": (lambda: np.triu(np.arange(1.0, 10.0).reshape(3, 3), 1), "zero"),
}


@pytest.mark.parametrize("case", list(_POWER_CASES))
def test_power_loop_is_the_list_loop_bit_for_bit(case):
    make, ends = _POWER_CASES[case]
    g = make()
    calls = []
    rho = spectral_radius_estimate(lambda x: calls.append(1) or g @ x, g.shape[0])
    ref, steps = _ref_spectral_radius(g, g.shape[0])
    assert rho.hex() == ref.hex() and len(calls) == steps
    assert {"early": 100 < steps < _POWER_STEPS, "all": steps == _POWER_STEPS,
            "zero": steps < 100 and ref == 0.0}[ends]


def test_spectral_radius_dominated_by_induced_norms(rng):
    for _ in range(5):
        a = rng.standard_normal((6, 6))
        rho = spectral_radius_estimate(a, 6)
        assert rho <= induced_matrix_norm(a, "one") + 1e-9
        assert rho <= induced_matrix_norm(a, "inf") + 1e-9


def test_spectral_radius_agrees_with_sturm_on_tridiagonalized(rng):
    a = np.asarray(rng.standard_normal((12, 12)))
    a = 0.5 * (a + a.T) / 6.0
    t, _ = lanczos(a, rng.standard_normal(12), 12)
    lo, hi = sturm_extreme_eigs(t, tol=1e-12)
    assert spectral_radius_estimate(a, 12) == pytest.approx(
        max(abs(lo), abs(hi)), abs=1e-3)


@pytest.mark.parametrize("fmt", ["triplets", "row", "col", "diag"])
def test_estimators_take_every_operand_kind(fmt, rng):
    t = to_triplets(poisson_test(5).a)
    t = Triplets(t.n, t.rows, t.cols, t.vals / 8.0)  # spectral radius below 1
    op = t if fmt == "triplets" else build(t, fmt)
    dense, v = to_dense(t), rng.standard_normal(t.n)
    assert a_norm(v, op) == pytest.approx(a_norm(v, dense), rel=1e-14)
    assert spectral_radius_estimate(op, t.n) == pytest.approx(
        spectral_radius_estimate(dense, t.n), rel=1e-12)
    assert estimate_interval(op, t.n) == pytest.approx(estimate_interval(dense, t.n), rel=1e-12)
