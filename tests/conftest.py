import numpy as np
import pytest

from krylov.storage import Triplets


def make_spd(n, rng, lo=1.0, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def make_symmetric_indefinite(n, rng, lo=1.0, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
    return q @ np.diag(s) @ q.T


def make_general(n, rng, contraction=0.4):
    """Well-conditioned nonsymmetric matrix with spectrum clustered near 1.

    Keeping the spectrum in a small disk around 1 keeps every Krylov method
    (including the real-polynomial smoothing of Bi-CGStab) well behaved.
    """
    r = rng.standard_normal((n, n))
    r *= contraction / max(abs(np.linalg.eigvals(r)))
    return np.eye(n) + r


def poisson_dense(N):
    t = np.diag(np.full(N, 2.0)) + np.diag(np.full(N - 1, -1.0), 1) \
        + np.diag(np.full(N - 1, -1.0), -1)
    return np.kron(t, np.eye(N)) + np.kron(np.eye(N), t)


def laplacian_1d(n):
    """The n x n tridiag(-1, 2, -1) as triplets."""
    i = np.arange(n)
    return Triplets(n, np.r_[i, i[1:], i[:-1]], np.r_[i, i[:-1], i[1:]],
                    np.r_[np.full(n, 2.0), np.full(2 * n - 2, -1.0)])


def with_true_residuals(solver, a, b, **kw):
    """``solver``'s report on dense ``a`` and its true residual norms
    ||b - A x_i||: history[0], then one per callback iterate."""
    norms = []
    rep = solver(a, b, callback=lambda e: norms.append(float(np.linalg.norm(b - a @ e["x"]))),
                 **kw)
    return rep, [rep.history[0], *norms]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
