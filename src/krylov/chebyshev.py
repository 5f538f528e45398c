"""Chebyshev polynomials and the Chebyshev semi-iterative accelerator.

Given a baseline splitting A = M - N whose iteration matrix G = inv(M) N is
(similar to) symmetric with spectrum inside [alpha, beta], -1 < alpha <
beta < 1, the accelerator combines the baseline iterates with Chebyshev
weights so that the error after j steps is damped by 1/T_j(mu(1)),
mu(x) = (2x - alpha - beta)/(beta - alpha).  The iteration count needed for
a target reduction is therefore computable a priori, which is what makes
the method "semi-iterative".
"""

import math

import numpy as np

from .core import spectral_radius_estimate
from .report import SolveReport, _Run
from .stationary import Splitting

# Consecutive increasing residuals tolerated before declaring the spectral
# inclusion interval wrong.
_DIVERGENCE_RUN = 50


def cheb_T(k: int, x: float) -> float:
    """First-kind Chebyshev polynomial T_k(x), stable for all real x.

    Uses cos(k arccos x) on [-1, 1] and the cosh form outside, switching
    exactly at |x| = 1; a value past the largest double is infinite.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ax = abs(x)
    if ax <= 1.0:
        val = math.cos(k * math.acos(x))
    else:
        try:
            val = math.cosh(k * math.acosh(ax))
        except OverflowError:
            val = math.inf
    if x < -1.0 and k % 2 == 1:
        val = -val
    return val


def cheb_U(k: int, x: float) -> float:
    """Second-kind Chebyshev polynomial U_k(x) via the three-term recurrence."""
    if k < -1:
        raise ValueError("k must be at least -1")
    prev, curr = 0.0, 1.0  # U_{-1}, U_0
    if k == -1:
        return prev
    for _ in range(k):
        prev, curr = curr, 2.0 * x * curr - prev
    return curr


def minimax_error_bound(alpha: float, beta: float, j: int) -> float:
    """Optimal error-reduction factor 1/T_j(mu(1)) after j accelerated steps."""
    _check_interval(alpha, beta)
    mu1 = 1.0 + 2.0 * (1.0 - beta) / (beta - alpha)
    return 1.0 / cheb_T(j, mu1)


@np.errstate(over="ignore", invalid="ignore")  # a diverging run stops as a non-finite breakdown
def semi_iterative(base: Splitting, b, alpha, beta, tol=1e-6,
                   tol_kind="rel_to_r0", max_iter=None, x0=None) -> SolveReport:
    """Chebyshev acceleration of the baseline iteration M x_{k+1} = N x_k + b.

    Runs the three-term recurrence

        g_{k+1} = 2 mu(1) g_k - g_{k-1},        g_0 = 1, g_1 = mu(1),
        solve M z_k = N x_k + b,
        x_{k+1} = (g_k/g_{k+1}) (4/(beta-alpha)) z_k
                  - (g_k/g_{k+1}) (2(alpha+beta)/(beta-alpha)) x_k
                  - (g_{k-1}/g_{k+1}) x_{k-1},

    where the inner solve is carried out in residual form
    z_k = x_k + inv(M)(b - A x_k), whose residual is the one the history
    records (true 2-norms): one matvec per iterate.  If the residual grows
    for many consecutive steps the spectral interval is deemed wrong and
    the run stops with a breakdown report ("interval-mismatch").
    """
    _check_interval(alpha, beta)
    run = _Run(base.a_apply, b, x0, tol, tol_kind, max_iter, sweeps=100)
    b, x_prev = run.b, run.x
    mu1 = 1.0 + 2.0 * (1.0 - beta) / (beta - alpha)

    if run.stop(run.r_norm) or run.max_iter == 0:
        return run.finish(x_prev, 0)
    x = x_prev + base.m_solve(run.r)
    r = b - base.a_apply(x)
    run.record(float(np.linalg.norm(r)))
    g_prev, g = 1.0, mu1
    rising = 0
    span = beta - alpha
    for k in range(1, run.max_iter):
        if run.stop(run.history[-1]):
            return run.finish(x, k)
        g_next = 2.0 * mu1 * g - g_prev
        z = x + base.m_solve(r)
        x_next = (g / g_next) * (4.0 / span) * z \
            - (g / g_next) * (2.0 * (alpha + beta) / span) * x \
            - (g_prev / g_next) * x_prev
        x_prev, x = x, x_next
        g_prev, g = g, g_next
        r = b - base.a_apply(x)
        run.record(float(np.linalg.norm(r)))
        rising = rising + 1 if run.history[-1] > run.history[-2] else 0
        if rising >= _DIVERGENCE_RUN:
            return run.breakdown(x, k + 1, "interval-mismatch")
    return run.finish(x, run.max_iter)


def estimate_interval(g_apply, n):
    """Spectral inclusion interval (-rho, rho) for a baseline iteration matrix.

    Estimates rho(G) by norm growth and returns the symmetric interval.
    Suitable when G is (similar to) symmetric, so its spectrum is real and
    symmetric bounds apply; the choice of a sharper asymmetric interval
    (such as [0, rho) for SSOR on an SPD matrix) is up to the caller.
    """
    rho = spectral_radius_estimate(g_apply, n)
    if not rho < 1.0:
        raise ValueError(f"estimated radius {rho:g} is not below 1: "
                         "the baseline iteration does not converge")
    return -rho, rho


def _check_interval(alpha, beta):
    if not (-1.0 < alpha < beta < 1.0):
        raise ValueError("need -1 < alpha < beta < 1")
