import numpy as np
import pytest
from conftest import make_symmetric_indefinite, with_true_residuals

from krylov.core import sturm_extreme_eigs
from krylov.problems import indefinite_kron
from krylov.storage import to_dense
from krylov.symmetric import LanczosState, lanczos, minres


def test_lanczos_identity_terminates_first_step():
    state = LanczosState(np.eye(4), np.ones(4))
    gamma, beta, invariant = state.a_half()
    assert gamma == pytest.approx(1.0)
    assert beta == 0.0
    assert invariant


def test_lanczos_exact_termination_recovers_spectrum():
    a = np.diag([1.0, 2.0, 3.0])
    t, basis = lanczos(a, np.ones(3), 3)
    lo, hi = sturm_extreme_eigs(t, tol=1e-12)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(3.0, abs=1e-9)
    assert len(basis) == 3


def test_lanczos_orthogonality_and_factorization(rng):
    a = make_symmetric_indefinite(30, rng)
    t, basis = lanczos(a, rng.standard_normal(30), 20)
    u = np.column_stack(basis)
    gram = u.T @ u
    assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-8
    # A U_i = U_{i+1} That_i: check through the recurrence residual
    m = u.shape[1] - 1
    that = np.zeros((m + 1, m))
    for i in range(m):
        that[i, i] = t.diag[i]
        if i + 1 <= m:
            that[i + 1, i] = t.offdiag[i]
        if i > 0:
            that[i - 1, i] = t.offdiag[i - 1]
    resid = a @ u[:, :m] - u @ that
    assert np.abs(resid).max() <= 1e-10 * np.abs(a).max()


def test_minres_identity_single_step(rng):
    b = rng.standard_normal(6)
    rep = minres(np.eye(6), b, tol=1e-12, tol_kind="abs")
    assert rep.converged and rep.iterations == 1
    np.testing.assert_allclose(rep.x, b, atol=1e-12)


def test_minres_indefinite_exact_at_desk_scale(rng):
    a = make_symmetric_indefinite(15, rng)
    b = rng.standard_normal(15)
    rep = minres(a, b, tol=1e-12, tol_kind="rel_to_b", max_iter=15)
    assert np.linalg.norm(b - a @ rep.x) <= 1e-9 * np.linalg.norm(b)


def test_minres_indefinite_kron_problem():
    inst = indefinite_kron(10)
    rep = minres(inst.a, inst.b, tol=1e-12, tol_kind="abs", max_iter=100)
    assert rep.converged
    assert np.linalg.norm(inst.b - inst.a.matvec(rep.x)) <= 1e-12


def test_minres_stops_before_iterating_when_the_start_meets_the_tolerance():
    inst = indefinite_kron(4)
    x0 = np.linalg.solve(to_dense(inst.a), inst.b)
    rep = minres(inst.a, inst.b, x0=x0, tol=1e-8, tol_kind="rel_to_b")
    assert rep.converged and rep.iterations == 0 and rep.x.tobytes() == x0.tobytes()


def test_minres_residual_identity(rng):
    for _ in range(20):
        n = int(rng.integers(6, 20))
        a = make_symmetric_indefinite(n, rng)
        b = rng.standard_normal(n)
        rep, true = with_true_residuals(minres, a, b, tol=1e-9, tol_kind="rel_to_b", max_iter=n)
        r0 = rep.history[0]
        for g, t in zip(rep.history, true):
            assert abs(g - t) <= 1e-8 * r0
            if t >= 1e-8 * r0:
                assert abs(g - t) <= 1e-8 * t


def test_minres_residual_monotone(rng):
    a = make_symmetric_indefinite(20, rng)
    b = rng.standard_normal(20)
    rep = minres(a, b, tol=0.0, tol_kind="abs", max_iter=20)
    h = rep.history
    for prev, nxt in zip(h, h[1:]):
        assert nxt <= prev * (1.0 + 1e-12) + 1e-14


def _minres_subspace_oracle(a, b, basis, x0=None):
    """Reference: direct least squares over the explicit Krylov basis."""
    x0 = np.zeros(b.size) if x0 is None else x0
    xs = []
    for i in range(1, len(basis) + 1):
        u = np.column_stack(basis[:i])
        y, *_ = np.linalg.lstsq(a @ u, b - a @ x0, rcond=None)
        xs.append(x0 + u @ y)
    return xs


def test_minres_matches_subspace_oracle_and_sign_flips(rng):
    a = make_symmetric_indefinite(12, rng)
    b = rng.standard_normal(12)
    _, basis = lanczos(a, b, 8)
    oracle = _minres_subspace_oracle(a, b, basis)
    xs = []
    minres(a, b, tol=0.0, tol_kind="abs", max_iter=8,
           callback=lambda d: xs.append(d["x"]))
    for u, v in zip(oracle, xs):
        assert np.abs(u - v).max() <= 1e-9 * max(1.0, np.abs(u).max())
    # flipping the sign of every basis vector from the second onward spans
    # the same varieties, so the iterates cannot change
    flipped = [basis[0]] + [-v for v in basis[1:]]
    oracle_flipped = _minres_subspace_oracle(a, b, flipped)
    for u, v in zip(oracle, oracle_flipped):
        assert np.abs(u - v).max() <= 1e-9 * max(1.0, np.abs(u).max())


def test_minres_rejects_zero_start():
    with pytest.raises(ValueError):
        LanczosState(np.eye(3), np.zeros(3))
