"""Lanczos tridiagonalization and MINRES for symmetric (possibly indefinite)
systems.

MINRES minimizes the residual norm over the growing Krylov variety using
the Lanczos factorization, updating the QR of the tridiagonal band with two
stored Givens rotations.  Only the last two basis vectors and the last two
direction vectors are kept; the full basis is never stored.
"""

import math

import numpy as np

from .core import TridiagSym, _TridiagQR
from .report import SolveReport, _Run
from .storage import operator

_ZERO = 1e-14


class LanczosState:
    """Running state of the Lanczos recurrence.

    After ``i`` successful steps, ``gammas`` holds the tridiagonal diagonal,
    ``betas`` the off-diagonal (the trailing entry is the candidate for the
    next step), and ``u_curr`` the latest unit basis vector.  ``terminated``
    becomes true when the new vector is negligible, which signals an
    invariant subspace.
    """

    def __init__(self, a, u1):
        self.a_apply = operator(a)[0]
        u1 = np.asarray(u1, dtype=float)
        nrm = np.linalg.norm(u1)
        if nrm == 0.0:
            raise ValueError("start vector must be nonzero")
        self.u_curr = u1 / nrm
        self.u_prev = np.zeros_like(self.u_curr)
        self.beta_prev = 0.0
        self.gammas = []
        self.betas = []
        self.terminated = False

    def step(self):
        """One Lanczos step; returns (gamma_i, beta_i) or None if terminated."""
        if self.terminated:
            return None
        v = self.a_apply(self.u_curr)
        gamma = float(self.u_curr @ v)
        v = v - gamma * self.u_curr - self.beta_prev * self.u_prev
        beta = float(np.linalg.norm(v))
        self.gammas.append(gamma)
        self.betas.append(beta)
        if beta <= _ZERO:
            self.terminated = True
            return gamma, beta
        self.u_prev = self.u_curr
        self.u_curr = v / beta
        self.beta_prev = beta
        return gamma, beta


def lanczos(a, u1, steps) -> tuple[TridiagSym, list]:
    """Run ``steps`` Lanczos steps; returns the tridiagonal section and basis.

    The basis list holds the generated orthonormal vectors (at most
    ``steps``; fewer if an invariant subspace is found first).  Intended for
    desk-scale checks; the solvers never store the basis.
    """
    state = LanczosState(a, u1)
    basis = [state.u_curr.copy()]
    for _ in range(steps):
        out = state.step()
        if out is None or state.terminated:
            break
        basis.append(state.u_curr.copy())
    m = len(state.gammas)
    return TridiagSym(np.array(state.gammas), np.array(state.betas[: m - 1])), basis[:m]


def minres(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
            callback=None) -> SolveReport:
    """MINRES for symmetric A: minimize ||b - A x|| over the Krylov variety.

    History records |g_i|, the residual norm delivered for free by the
    rotation cascade; the recomputed true residual norms are in
    ``extras["true_residual_norms"]`` so drift between the two is
    observable.  Termination on beta_i = 0 (invariant subspace: the iterate
    is then exact) or on the residual test.  A vanishing diagonal entry of
    the triangular factor cannot occur while beta stays nonzero and is
    flagged defensively as a breakdown.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, callback=callback)
    a_apply, x = run.a_apply, run.x
    beta0 = run.r_norm
    true_norms = run.extras["true_residual_norms"] = [beta0]
    if beta0 == 0.0 or not math.isfinite(beta0):
        return run.finish(x, 0, exact=True)
    u = run.r / beta0
    u_prev = np.zeros(u.size)
    beta_prev = 0.0
    qr = _TridiagQR(beta0, u.size)
    for i in range(1, run.max_iter + 1):
        v = a_apply(u)
        gamma = float(u @ v)
        v = v - gamma * u - beta_prev * u_prev
        beta = float(np.linalg.norm(v))
        x_next = qr.step(x, u, beta_prev, gamma, beta)
        if x_next is None:
            return run.breakdown(x, i - 1, "singular-R")
        x = x_next
        true_norms.append(float(np.linalg.norm(run.b - a_apply(x))))
        run.record(abs(qr.g), i, x=x, g=qr.g)
        invariant = beta <= _ZERO * beta0
        if run.stop(run.history[-1], invariant):
            return run.finish(x, i, exact=invariant)
        u_prev, u = u, v / beta
        beta_prev = beta
    return run.finish(x, run.max_iter)
