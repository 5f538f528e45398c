"""Conjugate-gradient family for symmetric positive definite systems.

Includes the underlying three-term factorization A U = U T with
B-orthogonal columns, plain CG in both its direct and its efficient
two-coefficient formulation, the tridiagonal matrix assembled from the CG
coefficients whose extreme eigenvalues approximate those of A, residual
stopping rules, and the classical energy-norm convergence bound.  The
efficient form is preconditioned CG with C = I: :func:`cg` returns
:func:`krylov.precond.pcg` without a preconditioner.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import TridiagSym, _negligible, sturm_extreme_eigs
from .precond import pcg
from .report import SolveReport, _Run, residual_threshold
from .storage import operator


@dataclass
class LanczosLikeFactorization:
    """Vectors and coefficients of the factorization A U = U T, U' B U = D.

    T is tridiagonal with unit subdiagonal, diagonal ``gammas`` and
    superdiagonal ``betas``; ``ds`` are the B-norms squared of the columns.
    """

    us: list
    gammas: np.ndarray
    betas: np.ndarray
    ds: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # growth ends the run, see below
def factorize_aut(a, b_op, u1) -> LanczosLikeFactorization:
    """Three-term recurrence building A U = U T with B-orthogonal columns,
    at most n of them.

    ``b_op`` defines the inner product (it must be spd and commute with A
    for the orthogonality to hold; the caller is responsible for that).
    Stops early when the next vector is negligible relative to the first,
    which signals an invariant subspace and is a success, not an error.
    The vectors are not normalized and grow like powers of A, so this test
    is not scale-free: on Poisson N=8, 2**-40 A stops it after two steps.
    It also stops, without a warning, before a step whose d, gamma or beta
    is not finite: on Poisson N=8, 2**40 A keeps 13 steps.

    Raises
    ------
    ValueError
        If a step's d = u' B u is zero or negative: ``b_op`` is not positive
        definite.
    """
    a_apply = operator(a)[0]
    b_apply = operator(b_op)[0]
    u = np.array(u1, dtype=float)
    n = u.size
    scale = np.linalg.norm(u)
    us, gammas, betas, ds = [], [], [], []
    u_prev = np.zeros(n)
    for i in range(n):
        if _negligible(np.linalg.norm(u), scale):
            break
        v = a_apply(u)
        z = b_apply(u)
        d = float(u @ z)
        if not math.isfinite(d):
            break
        if d <= 0.0:
            raise ValueError(f"b_op is not positive definite: u'B u = {d:g} at step {i}")
        gamma = float(v @ z) / d
        beta = d / ds[-1] if ds else 0.0
        if not (math.isfinite(gamma) and math.isfinite(beta)):
            break
        us.append(u.copy())
        gammas.append(gamma)
        ds.append(d)
        if i > 0:
            betas.append(beta)
        u, u_prev = v - gamma * u - beta * u_prev, u
    return LanczosLikeFactorization(us, np.array(gammas), np.array(betas), np.array(ds))


@np.errstate(over="ignore", invalid="ignore")  # growth is a non-finite breakdown
def cg_basic(a, b, x0=None, tol=1e-10, tol_kind="abs", max_iter=None,
             callback=None) -> SolveReport:
    """Conjugate gradients in the direct (unnormalized-direction) form.

    Keeps the raw recurrence directions u_i and computes the step length as
    lambda_i = u_i' r_{i-1} / u_i' A u_i.  Mostly of reference value; the
    efficient form :func:`cg` is preferred.  History records the recurrence
    residual norms.  The directions are not normalized and grow like powers
    of A, so the run is not scale-free: with 2**-40 A on Poisson N=8, u_i' A u_i
    underflows and the run reports breakdown/"not-spd" at iteration 14; with
    2**40 A they overflow and it reports breakdown/"non-finite" at iteration
    14, without numpy's overflow warnings.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, callback=callback)
    a_apply, x, r = run.a_apply, run.x, run.r
    u = r.copy()
    u_prev = np.zeros(r.size)
    d_prev = beta_prev = 0.0
    for i in range(1, run.max_iter + 1):
        if run.stop(run.history[-1]):
            return run.finish(x, i - 1)
        v = a_apply(u)
        d = float(u @ v)
        if d <= 0.0:
            return run.breakdown(x, i - 1, "not-spd")
        lam = float(u @ r) / d
        x = x + lam * u
        r = r - lam * v
        gamma = float(v @ v) / d
        if i > 1:
            beta_prev = d / d_prev
        u, u_prev = v - gamma * u - beta_prev * u_prev, u
        d_prev = d
        run.record(float(np.linalg.norm(r)), i, x=x, r=r, u=u_prev)
    return run.finish(x, run.max_iter)


def cg(a, b, x0=None, tol=1e-10, tol_kind="abs", max_iter=None,
       callback=None) -> SolveReport:
    """Conjugate gradients, efficient two-coefficient form: ``pcg(a, b, None)``.

    Per iteration: eta_i = r_i' r_i, step length lambda_i = eta_{i-1} / d_i
    with d_i = p_i' A p_i, and direction update p_{i+1} = r_i + mu_i p_i
    with mu_i = eta_i / eta_{i-1}.  History, extras and events are those of
    :func:`~krylov.precond.pcg` with C = I: the history (stopping reads it)
    and ``extras["c_norms"]`` both hold the recurrence residual norms
    ||r_i||, one matvec per iteration.  The true norms ||b - A x_i|| come
    from the callback's ``x`` (see :class:`~krylov.report.SolveReport`).
    """
    return pcg(a, b, None, x0, tol, tol_kind, max_iter, callback)


def assemble_tbar(report: SolveReport, steps=None) -> TridiagSym:
    """Lanczos tridiagonal matrix of a CG, PCG or polynomial PCG run.

    With d_i = p_i' A p_i, mu_i and c_i = sqrt(r_i' C r_i) from the report's
    ``d_hat``, ``mu`` and ``c_norms``, the symmetric tridiagonal matrix

        diag:     a_1 = d_1/c_0**2,
                  a_{i+1} = (d_{i+1} + d_i mu_i**2)/c_i**2
        offdiag:  -b_i = -d_i mu_i/(c_{i-1} c_i)

    is the Lanczos matrix of C^{1/2} A C^{1/2} (of p_m(A) for polynomial
    PCG; Saad, *Iterative Methods*, 2nd ed., sections 6.7.3 and 9.2).  Its
    eigenvalues interlace that operator's, and its extremes converge quickly
    to the operator's extremes.  If the run hit a zero residual the matrix
    is truncated at the convergence point.
    """
    d_hat = report.extras["d_hat"]
    mu = report.extras["mu"]
    c = report.extras["c_norms"]
    m = len(d_hat) if steps is None else min(steps, len(d_hat))
    # Usable size limited by nonzero residual norms.
    while m > 1 and c[m - 1] == 0.0:
        m -= 1
    if m < 1:
        raise ValueError("need at least one recorded CG iteration")
    diag = np.empty(m)
    off = np.empty(max(m - 1, 0))
    diag[0] = d_hat[0] / c[0] ** 2
    for i in range(1, m):
        diag[i] = (d_hat[i] + d_hat[i - 1] * mu[i - 1] ** 2) / c[i] ** 2
        off[i - 1] = -d_hat[i - 1] * mu[i - 1] / (c[i - 1] * c[i])
    return TridiagSym(diag, off)


def stopping_check(r, tol, kind, b_norm=None, r0_norm=None, lambda_min_est=None):
    """Residual stopping decision, optionally with an error bound.

    ``kind`` is "error_bound" or any ``tol_kind`` the solvers take ("abs",
    "rel_to_b", "rel_to_r0").  "error_bound" uses ||e|| <= ||r|| / lambda_min
    and stops when that bound drops below ``tol``; it requires a positive,
    finite smallest-eigenvalue estimate.  A given ``b_norm`` or ``r0_norm``
    must be nonnegative (inf allowed).  Returns ``(stop, error_bound)``
    where the bound is None unless an estimate was supplied.
    """
    for name, norm in (("b_norm", b_norm), ("r0_norm", r0_norm)):
        if norm is not None and not norm >= 0.0:  # NaN too
            raise ValueError(f"{name} must be nonnegative, got {norm}")
    r_norm = float(np.linalg.norm(r)) if np.ndim(r) else float(abs(r))
    bound = None
    if lambda_min_est is not None:
        if not 0.0 < lambda_min_est < math.inf:  # NaN too
            raise ValueError("lambda_min estimate must be positive and finite, "
                             f"got {lambda_min_est}")
        bound = r_norm / lambda_min_est
    if kind == "error_bound":
        if bound is None:
            raise ValueError("error_bound stopping needs lambda_min_est")
        return bound <= residual_threshold(tol, "abs", None, None), bound  # checks tol
    return r_norm <= residual_threshold(tol, kind, b_norm, r0_norm), bound


def convergence_bound(kappa: float, i: int) -> float:
    """Energy-norm reduction bound 4 ((sqrt(k)-1)/(sqrt(k)+1))**(2i)."""
    if not 1.0 <= kappa < math.inf:  # NaN too
        raise ValueError(f"condition number must be finite and at least 1, got {kappa}")
    if i < 0:
        raise ValueError(f"iteration count must be nonnegative, got {i}")
    ratio = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    return 4.0 * ratio ** (2 * i)


def estimate_extremes_by_cg(a, b, iters=25, tol_eig=1e-10):
    """Extreme-eigenvalue estimates of spd A from a short CG warm-up.

    Runs ``iters`` CG steps (zero start, no residual stopping), assembles
    the tridiagonal coefficient matrix and returns its Sturm extremes.
    A few dozen iterations usually give satisfactory estimates.
    """
    report = cg(a, b, tol=0.0, tol_kind="abs", max_iter=iters)
    tbar = assemble_tbar(report)
    return sturm_extreme_eigs(tbar, tol=tol_eig)
