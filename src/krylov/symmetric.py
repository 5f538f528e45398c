"""Lanczos tridiagonalization and MINRES for symmetric (possibly indefinite)
systems.

MINRES minimizes the residual norm over the growing Krylov variety using
the Lanczos factorization, updating the QR of the tridiagonal band with two
stored Givens rotations.  Only the last two basis vectors and the last two
direction vectors are kept; the full basis is never stored.  QMR runs the
same loop on the two-sided process.
"""

import math

import numpy as np

from .core import TridiagSym, _negligible, _unit, make_givens
from .report import SolveReport, _Run
from .storage import operator


class LanczosState:
    """Running state of the Lanczos recurrence.

    After ``i`` successful steps, ``gammas`` holds the tridiagonal diagonal,
    ``betas`` the off-diagonal (the trailing entry is the candidate for the
    next step), and ``u_curr`` the latest unit basis vector.  ``terminated``
    becomes true when beta_i is negligible next to
    ||A u_i|| = hypot(beta_{i-1}, gamma_i, beta_i), which signals an
    invariant subspace.  A step has the two halves of the two-sided process
    (:class:`krylov.nonsymmetric.BiLanczosState`) with w = u: A' w_i = A u_i,
    so the second half applies nothing.
    """

    def __init__(self, a, u1):
        self.a_apply = operator(a)[0]
        self.u_curr = _unit(u1)
        self.u_prev = np.zeros_like(self.u_curr)
        self.beta_prev = 0.0
        self.gammas = []
        self.betas = []
        self.terminated = False

    def a_half(self):
        """gamma_i and beta_i from A u_i; returns (gamma_i, beta_i, terminated)."""
        v = self.a_apply(self.u_curr)
        gamma = float(self.u_curr @ v)
        self.u_hat = v - gamma * self.u_curr - self.beta_prev * self.u_prev
        beta = float(np.linalg.norm(self.u_hat))
        self.gammas.append(gamma)
        self.betas.append(beta)
        self.terminated = _negligible(beta, math.hypot(self.beta_prev, gamma, beta))
        return gamma, beta, self.terminated

    def at_half(self):
        """The move to u_{i+1} = u_hat / beta_i; it cannot break down (returns None)."""
        self.beta_prev = self.betas[-1]
        self.u_prev, self.u_curr = self.u_curr, self.u_hat / self.beta_prev

    def step(self):
        """One Lanczos step; returns (gamma_i, beta_i) or None if terminated."""
        if self.terminated:
            return None
        gamma, beta, terminated = self.a_half()
        if not terminated:
            self.at_half()
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
        state.step()
        if state.terminated:
            break
        basis.append(state.u_curr.copy())
    m = len(state.gammas)
    return TridiagSym(np.array(state.gammas), np.array(state.betas[: m - 1])), basis[:m]


def _quasi_minimal(run, process, operand):
    """MINRES and QMR: ``run`` on the Lanczos ``process`` of ``operand`` from r_0.

    Step i takes column i of the tridiagonal matrix -- superdiagonal
    beta_{i-1}, diagonal gamma_i, subdiagonal beta_i -- from the process's
    ``a_half()``; unless the run stops there, its ``at_half()`` follows and
    returns a breakdown reason or None.  The rotations of steps i-2 and i-1
    and a new one zeroing beta_i reduce the column to R; the direction
    p_i = (u_i - r_{i-2,i} p_{i-2} - r_{i-1,i} p_{i-1}) / r_ii then advances
    x by xi_i p_i.  |g|, the rotated right-hand side, is the
    (quasi-)residual norm that the history records; the true residual norms
    go to ``extras["true_residual_norms"]``.
    """
    x, g = run.x, run.r_norm
    true_norms = run.extras["true_residual_norms"] = [g]
    if run.stop(g):
        return run.finish(x, 0)
    lz = process(operand, run.r)
    rots, ps = [], [np.zeros(x.size)] * 2  # rotations and directions of steps i-2, i-1
    for i in range(1, run.max_iter + 1):
        u, beta_prev = lz.u_curr, lz.beta_prev
        gamma, beta, invariant = lz.a_half()
        r_im1, r_ii, p = beta_prev, gamma, u.copy()
        if len(rots) == 2:
            r_im2, r_im1 = rots[0].apply(0.0, beta_prev)
            p -= r_im2 * ps[0]
        if rots:
            r_im1, r_ii = rots[-1].apply(r_im1, gamma)
            p -= r_im1 * ps[1]
        rot, r_ii = make_givens(r_ii, beta)
        if r_ii == 0.0:
            return run.breakdown(x, i - 1, "singular-R")
        p /= r_ii
        xi, g = rot.apply(g, 0.0)
        rots, ps = rots[-1:] + [rot], [ps[1], p]
        x = x + xi * p
        true_norms.append(float(np.linalg.norm(run.b - run.a_apply(x))))
        run.record(abs(g), i, x=x, g=g)
        if run.stop(abs(g), invariant):
            return run.finish(x, i, exact=invariant)
        reason = lz.at_half()
        if reason:
            return run.breakdown(x, i, reason)
    return run.finish(x, run.max_iter)


def minres(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
            callback=None) -> SolveReport:
    """MINRES for symmetric A: minimize ||b - A x|| over the Krylov variety.

    History records |g_i|, the residual norm delivered for free by the
    rotation cascade; the recomputed true residual norms are in
    ``extras["true_residual_norms"]`` so drift between the two is
    observable.  The basis comes from :class:`LanczosState`; the run ends
    when its step finds an invariant subspace (the iterate is then exact) or
    on the residual test.  A vanishing diagonal entry of the triangular
    factor cannot occur while beta stays nonzero and is flagged defensively
    as a breakdown.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, callback=callback)
    return _quasi_minimal(run, LanczosState, run.a_apply)
