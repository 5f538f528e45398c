"""Krylov methods for general nonsingular systems: Arnoldi/GMRES, the
two-sided Lanczos process and its descendants Bi-CG, QMR, CGS and
Bi-CGStab, plus the orthogonal bidiagonalization solver.  QMR's two
implementations are MINRES's loop on two processes.

The two-sided (nonsymmetric Lanczos) methods trade the long recurrences of
GMRES for three-term ones at the price of possible breakdowns; these are
reported in the SolveReport, never silently perturbed (no look-ahead).
Every zero test here is :func:`krylov.core._negligible` against a norm in
the units of the tested quantity, so scaling A or b by a power of two
changes no status and no iteration count.

Left preconditioning is available on every solver through ``c_apply``: the
solver then runs on C A with right-hand side C b (for the transpose action
it uses (C A)' = A' C, valid for symmetric C).
"""

import math
from types import SimpleNamespace

import numpy as np

from .core import _ZERO, _negligible, _unit, make_givens
from .report import SolveReport, _Run
from .storage import operator
from .symmetric import INVARIANT_SUBSPACE, _quasi_minimal

# Breakdown kinds; INVARIANT_SUBSPACE is shared with the quasi-minimal loop
SERIOUS_BREAKDOWN = "serious_breakdown"
LU_BREAKDOWN = "lu_breakdown"


def _mgs_step(a_apply, us):
    """One modified Gram-Schmidt Arnoldi step from the last basis vector.

    Returns ``(v, col, hnext, scale)``: v = A u_i orthogonalized against
    ``us``, col its projections with hnext = ||v|| appended (column i of
    the Hessenberg matrix), and scale = ||A u_i|| for the breakdown test.
    Each projection v - col[j] u is written into one array of the step's own,
    never into A u_i, which may be the operator's buffer.
    """
    v = a_apply(us[-1])
    scale = float(np.linalg.norm(v))
    col = np.zeros(len(us) + 1)
    out, term = np.empty_like(us[-1]), np.empty_like(us[-1])
    for j, u in enumerate(us):
        col[j] = float(u @ v)
        v = np.subtract(v, np.multiply(col[j], u, out=term), out=out)
    hnext = float(np.linalg.norm(v))
    col[-1] = hnext
    return v, col, hnext, scale


class ArnoldiBasis:
    """Orthonormal Krylov basis with its upper Hessenberg projection.

    ``us`` holds the basis vectors; ``h[j, i]`` the Hessenberg entries
    (column i built at step i, subdiagonal entries nonnegative).
    ``invariant_at`` is the step where the subdiagonal vanished, or None.
    """

    def __init__(self, us, h, invariant_at):
        self.us = us
        self.h = h
        self.invariant_at = invariant_at


def arnoldi(a, u1, steps) -> ArnoldiBasis:
    """Modified Gram-Schmidt Arnoldi process from a unit start vector."""
    a_apply = operator(a)[0]
    u = np.asarray(u1, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("start vector must have unit norm")
    us = [u.copy()]
    cols = []
    invariant_at = None
    for i in range(steps):
        v, col, hnext, scale = _mgs_step(a_apply, us)
        cols.append(col)
        if _negligible(hnext, scale):
            invariant_at = i + 1
            break
        us.append(v / hnext)
    m = len(cols)
    h = np.zeros((m + 1, m))
    for i, col in enumerate(cols):
        h[: i + 2, i] = col
    return ArnoldiBasis(us, h, invariant_at)


def gmres(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
          restart=None, c_apply=None, callback=None) -> SolveReport:
    """GMRES: minimize ||b - A x|| over the Arnoldi variety.

    The upper Hessenberg least-squares problem is kept in QR form by one
    new Givens rotation per step, so ||r_i|| = |g_i| is available without
    forming the residual; the history records these values.  With
    ``restart=k`` the basis is discarded and rebuilt from the current
    iterate every k steps (finite-termination is then lost, but memory is
    capped).  A vanished subdiagonal means the Krylov space is invariant.
    Above tolerance, the iterate is then exact when |g| is negligible next
    to ||r_0||, as in :func:`krylov.symmetric.minres`; otherwise the space
    holds no solution, which happens only for singular A, and the run stops
    as an "invariant_subspace" breakdown.
    """
    if restart is not None and restart < 1:
        raise ValueError("restart must be at least 1")
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, callback=callback)
    a_apply, x = run.a_apply, run.x
    cycle = restart if restart is not None else run.max_iter
    total, r0 = 0, run.r  # a restart forms its own residual
    while True:
        beta = float(np.linalg.norm(r0))
        if run.stop(beta):
            return run.finish(x, total, res=beta)
        us = [r0 / beta]
        rcols = []   # columns of the triangular factor
        rots = []    # Givens pairs
        g1 = []      # rotated rhs components
        g = beta
        breakdown, exact = None, False
        for i in range(min(cycle, run.max_iter - total)):
            v, col, hnext, scale = _mgs_step(a_apply, us)
            for j in range(i):
                col[j], col[j + 1] = rots[j].apply(col[j], col[j + 1])
            rot, rii = make_givens(col[i], hnext)
            col[i] = rii
            total += 1
            if rii == 0.0:
                # Degenerate column: the least-squares system lost rank and
                # the rotation carries no information; stop before touching g.
                breakdown = "singular-R"
                break
            rots.append(rot)
            rcols.append(col)
            xi, g = rot.apply(g, 0.0)
            g1.append(xi)
            run.record(abs(g), total, g=g)
            lucky = _negligible(hnext, scale)
            exact = lucky and _negligible(g, run.r_norm)
            breakdown = INVARIANT_SUBSPACE if lucky and not exact else None
            if run.stop(abs(g)) or lucky:
                break
            us.append(v / hnext)
        # Assemble the iterate from the triangular system R y = g1.
        m = len(rcols)
        if m:
            y = np.zeros(m)
            for j in range(m - 1, -1, -1):
                s = g1[j] - sum(rcols[l][j] * y[l] for l in range(j + 1, m))
                y[j] = s / rcols[j][j]  # nonzero: singular columns are never kept
            x = x + sum(y[j] * us[j] for j in range(m))
        if breakdown and abs(g) > run.threshold:
            return run.breakdown(x, total, breakdown)
        if run.stop(abs(g), exact) or total >= run.max_iter:
            return run.finish(x, total, res=abs(g), exact=exact)
        r0 = run.b - a_apply(x)


class BiLanczosState:
    """Two-sided Lanczos recurrence state (biorthonormal u/w sequences).

    A step is two halves, :meth:`a_half` with A and :meth:`at_half` with
    A', so that a solver can stop in between; every Lanczos-type process
    here has them.  The shadow start is w_1 = u_1.
    """

    def __init__(self, a, r0):
        self.a_apply, self.at_apply, _ = operator(a)
        if self.at_apply is None:
            raise ValueError("operator does not expose a transpose action")
        self.u_curr = self.w_curr = _unit(r0)
        self.u_prev = self.w_prev = np.zeros_like(self.u_curr)
        self.alpha_prev = self.beta_prev = 0.0

    def a_half(self):
        """First half of step i: (gamma_i = w_i' A u_i, alpha_i = ||u_hat||,
        invariant), ``invariant`` when alpha_i is negligible next to ||A u_i||:
        the u sequence spans a right invariant subspace, and no A' half follows."""
        u = self.u_curr
        v = self.a_apply(u)
        self.gamma = float(self.w_curr @ v)
        self.u_hat = v - self.gamma * u - self.beta_prev * self.u_prev
        self.alpha = float(np.linalg.norm(self.u_hat))
        return self.gamma, self.alpha, _negligible(self.alpha, float(np.linalg.norm(v)))

    def at_half(self):
        """Second half of step i: beta_i = u_{i+1}' w_hat (kept in ``beta``),
        then the move to step i+1.  Returns None, or "serious_breakdown" when
        beta_i is negligible next to ||w_hat||; the basis then stays at step i."""
        u_next = self.u_hat / self.alpha
        w = self.w_curr
        w_hat = self.at_apply(w) - self.gamma * w - self.alpha_prev * self.w_prev
        self.beta = float(u_next @ w_hat)
        if _negligible(self.beta, float(np.linalg.norm(w_hat))):
            return SERIOUS_BREAKDOWN
        self.u_prev, self.u_curr = self.u_curr, u_next
        self.w_prev, self.w_curr = w, w_hat / self.beta
        self.alpha_prev, self.beta_prev = self.alpha, self.beta


class LUBiLanczosState:
    """The two-sided process in LU-normalized form: the pair (q, z), with
    z_j' A q_i = 0 for j != i, makes the projected matrix lower bidiagonal.
    The halves are those of :class:`BiLanczosState`, with q_i in ``u_curr``
    and ``beta_prev`` always 0; (u, v) is the unit pair, f_i = v_i' u_i."""

    beta_prev = 0.0

    def __init__(self, a, r0):
        self.a_apply, self.at_apply, _ = operator(a)
        self.u = self.v = self.u_curr = self.z = _unit(r0)
        self.f = 1.0

    def a_half(self):
        """(ell_i = z_i' A q_i / f_i, alpha_i, invariant) as in
        :meth:`BiLanczosState.a_half`, or "lu_breakdown" when the pivot
        z_i' A q_i is negligible: the LU factors do not exist."""
        q_hat = self.a_apply(self.u_curr)
        num, scale = float(self.z @ q_hat), float(np.linalg.norm(q_hat))
        if _negligible(num, float(np.linalg.norm(self.z)) * scale):
            return LU_BREAKDOWN
        self.ell = num / self.f
        self.u_hat = q_hat - self.ell * self.u
        self.alpha = float(np.linalg.norm(self.u_hat))
        return self.ell, self.alpha, _negligible(self.alpha, scale)

    def at_half(self):
        """The move to step i+1.  Returns None, or "serious_breakdown" when
        f_{i+1} is negligible (u is a unit vector; v has no scale of A or b)."""
        self.u = self.u_hat / self.alpha
        self.v = (self.at_apply(self.z) - self.ell * self.v) / self.alpha
        f = float(self.v @ self.u)
        if _negligible(f, 1.0):
            return SERIOUS_BREAKDOWN
        phi = self.alpha * f / (self.ell * self.f)
        self.u_curr, self.z = self.u - phi * self.u_curr, self.v - phi * self.z
        self.f = f


def bicg(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
         c_apply=None, callback=None) -> SolveReport:
    """Bi-conjugate gradients with the shadow start r0_hat = r0.

    One matvec with A and one with A' per iteration.  For spd A the
    iterates coincide with those of plain CG.  The step-length and
    direction coefficients are recorded in ``extras["lambda_hat"]`` and
    ``extras["mu"]`` (they define the residual polynomials that CGS
    squares).  Breakdown when a pivot or an inner product vanishes.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, transpose="bicg",
               callback=callback, extras={"lambda_hat": [], "mu": []})
    a_apply, at_apply, x, r = run.a_apply, run.at_apply, run.x, run.r
    r_hat = r.copy()
    p, p_hat = r.copy(), r.copy()
    eta = float(r_hat @ r)
    eta_scale = _ZERO * run.r_norm ** 2  # eta_i vanishes below 1e-28 ||r_0||**2
    for i in range(1, run.max_iter + 1):
        if run.stop(run.history[-1]):
            return run.finish(x, i - 1)
        if _negligible(eta, eta_scale):
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        v = a_apply(p)
        v_hat = at_apply(p_hat)
        d = float(p_hat @ v)
        if _negligible(d, float(np.linalg.norm(p_hat)) * float(np.linalg.norm(v))):
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        lam = eta / d
        x = x + lam * p
        r = r - lam * v
        r_hat = r_hat - lam * v_hat
        eta_new = float(r_hat @ r)
        mu = eta_new / eta
        p = r + mu * p
        p_hat = r_hat + mu * p_hat
        eta = eta_new
        run.extras["lambda_hat"].append(lam)
        run.extras["mu"].append(mu)
        run.record(float(np.linalg.norm(r)), i, x=x, r=r, r_hat=r_hat, p=p, p_hat=p_hat)
    return run.finish(x, run.max_iter)


def qmr(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
        c_apply=None, callback=None) -> SolveReport:
    """Quasi-minimal residual method on the two-sided Lanczos factorization.

    Minimizes the reduced least-squares surrogate; |g_i| (the history
    entries, which stopping reads) is the quasi-residual, an upper proxy
    for the true residual up to the conditioning of the nonorthogonal
    basis.  On symmetric A with the default shadow start the method
    coincides with MINRES.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, transpose="qmr",
               callback=callback)
    return _quasi_minimal(run, BiLanczosState,
                          SimpleNamespace(matvec=run.a_apply, rmatvec=run.at_apply))


def qmr_alt(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
            c_apply=None, callback=None) -> SolveReport:
    """QMR on the LU-normalized two-sided factorization (cheaper variant).

    :func:`qmr`'s loop on :class:`LUBiLanczosState`: the rescaled pair
    (q, z) makes the projected matrix lower bidiagonal, so only one old
    rotation acts per step.  The price is an extra breakdown mode: the
    implicit LU factorization of the tridiagonal matrix may not exist,
    surfacing as a zero pivot ("lu_breakdown") while plain :func:`qmr`
    proceeds.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, transpose="qmr_alt",
               callback=callback)
    return _quasi_minimal(run, LUBiLanczosState,
                          SimpleNamespace(matvec=run.a_apply, rmatvec=run.at_apply))


def _bidiagonalization(a_apply, at_apply, u):
    """The orthogonal bidiagonalization from the unit vector u_1, a half step
    at a time: yields (alpha_i, v_i) from A' u_i, then (beta_i, u_{i+1})
    from A v_i.  It ends when the new coefficient is negligible next to
    ||A' u_i|| = hypot(beta_{i-1}, alpha_i), respectively ||A v_i|| =
    hypot(alpha_i, beta_i); nothing runs ahead of what was asked for."""
    v, beta = 0.0, 0.0
    while True:
        v_hat = at_apply(u) - beta * v
        alpha = float(np.linalg.norm(v_hat))
        if _negligible(alpha, math.hypot(beta, alpha)):
            return
        v = v_hat / alpha
        yield alpha, v
        u_hat = a_apply(v) - alpha * u
        beta = float(np.linalg.norm(u_hat))
        if _negligible(beta, math.hypot(alpha, beta)):
            return
        u = u_hat / beta
        yield beta, u


def bidiagonalize(a, u1_hat, steps):
    """Orthogonal bidiagonalization A V = U L, A' U = V L'.

    Returns ``(us, vs, alphas, betas)`` built by the alternating recurrence
    (L lower bidiagonal with diagonal alphas and subdiagonal betas).  A
    negligible alpha or beta terminates the process early.  Note
    A'A V = V (L'L): the process is the symmetric Lanczos recurrence on the
    normal-equations matrix in disguise, with its squared conditioning.
    """
    a_apply, at_apply, _ = operator(a)
    if at_apply is None:
        raise ValueError("operator does not expose a transpose action")
    us, vs, alphas, betas = [_unit(u1_hat)], [], [], []
    halves = _bidiagonalization(a_apply, at_apply, us[0])
    for k, (coef, vec) in zip(range(2 * steps - 1), halves):  # alternately alpha, beta
        (alphas, betas)[k % 2].append(coef)
        (vs, us)[k % 2].append(vec)
    return us, vs, np.array(alphas), np.array(betas)


def bidiag_solve(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
                 c_apply=None, callback=None) -> SolveReport:
    """Solver on the bidiagonalization started from the initial residual.

    The Galerkin conditions give the one-term update x_i = x_{i-1} + xi_i v_i
    with xi_1 = ||r_0||/alpha_1 and xi_i = -xi_{i-1} beta_{i-1}/alpha_i; a
    vanishing beta means the exact solution has been reached.  Equivalent to
    symmetric Lanczos on the normal equations, so the effective condition
    number is kappa(A)**2; of little practical interest but a useful
    cross-check.  History records true residual norms.  The A half of an
    iteration runs only when the residual test has not stopped the run.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, transpose="bidiag_solve",
               callback=callback)
    x, beta0 = run.x, run.r_norm
    if run.stop(beta0):
        return run.finish(x, 0)
    halves = _bidiagonalization(run.a_apply, run.at_apply, run.r / beta0)
    xi = beta = None
    for i in range(1, run.max_iter + 1):
        alpha, v = next(halves, (None, None))
        if alpha is None:
            return run.breakdown(x, i - 1, "zero-alpha")
        xi = beta0 / alpha if i == 1 else -xi * beta / alpha
        x = x + xi * v
        run.record(float(np.linalg.norm(run.b - run.a_apply(x))), i, x=x)
        if run.stop(run.history[-1]):
            return run.finish(x, i)
        beta, _ = next(halves, (None, None))
        if beta is None:
            return run.finish(x, i, exact=True)  # the iterate is exact
    return run.finish(x, run.max_iter)


def cgs(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
        c_apply=None, callback=None) -> SolveReport:
    """Conjugate gradients squared: Bi-CG's residual polynomial applied twice.

    Two matvecs with A per iteration and none with A', at the price of
    squaring whatever oscillation Bi-CG exhibits.  Breakdown when an inner
    product against the fixed shadow residual vanishes.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, callback=callback,
               extras={"lambda_hat": [], "mu": []})
    a_apply, x, r = run.a_apply, run.x, run.r
    r_hat0 = r.copy()
    p = r.copy()
    gvec = r.copy()
    eta = float(r_hat0 @ r)
    eta_scale = _ZERO * run.r_norm ** 2  # eta_i vanishes below 1e-28 ||r_0||**2
    for i in range(1, run.max_iter + 1):
        if run.stop(run.history[-1]):
            return run.finish(x, i - 1)
        if _negligible(eta, eta_scale):
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        v = a_apply(p)
        d = float(r_hat0 @ v)
        if _negligible(d, run.r_norm * float(np.linalg.norm(v))):
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        lam = eta / d
        w = gvec - lam * v
        x = x + lam * (gvec + w)
        r = r - lam * a_apply(gvec + w)
        eta_new = float(r_hat0 @ r)
        mu = eta_new / eta
        gvec = r + mu * w
        p = gvec + mu * (w + mu * p)
        eta = eta_new
        run.extras["lambda_hat"].append(lam)
        run.extras["mu"].append(mu)
        run.record(float(np.linalg.norm(r)), i, x=x, r=r)
    return run.finish(x, run.max_iter)


def bicgstab(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
             c_apply=None, callback=None) -> SolveReport:
    """Bi-CGStab: Bi-CG polynomial smoothed by a one-step residual minimizer.

    Each iteration takes the Bi-CG half step and then damps with the
    steepest-descent parameter omega_i = t'r / t't (t = A r_half), the
    value minimizing the new residual norm.  Both the half-step and
    full-step residual norms are checked against the tolerance and both are
    recorded: history interleaves them, with matching labels in
    ``extras["history_tags"]`` ("initial", then "half"/"full" pairs).
    Coefficient sequences are recorded for consistency checks.  An omega
    whose numerator t'r_half is negligible next to ||t|| ||r_half|| (t = 0
    included) would stall the iteration or divide by zero: "omega-zero"
    breakdown.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, callback=callback, extras={
        "history_tags": ["initial"], "etas": [], "lambda_hat": [], "omegas": [], "mu": []})
    a_apply, x, r, extras = run.a_apply, run.x, run.r, run.extras
    r_hat0 = r.copy()
    p = r.copy()
    eta = float(r_hat0 @ r)
    extras["etas"].append(eta)
    eta_scale = _ZERO * run.r_norm ** 2  # eta_i vanishes below 1e-28 ||r_0||**2
    for i in range(1, run.max_iter + 1):
        if run.stop(run.history[-1]):
            return run.finish(x, i - 1)
        if _negligible(eta, eta_scale):
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        v = a_apply(p)
        d = float(r_hat0 @ v)
        if _negligible(d, run.r_norm * float(np.linalg.norm(v))):
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        lam = eta / d
        x_half = x + lam * p
        r_half = r - lam * v
        half_norm = float(np.linalg.norm(r_half))
        run.record(half_norm)  # no callback event for the half step
        extras["history_tags"].append("half")
        if run.stop(half_norm):
            return run.finish(x_half, i)
        t = a_apply(r_half)
        t_norm2, tr = float(t @ t), float(t @ r_half)
        if t_norm2 == 0.0 or _negligible(tr, math.sqrt(t_norm2) * half_norm):  # t't underflows
            return run.breakdown(x_half, i, "omega-zero")
        omega = tr / t_norm2
        x = x_half + omega * r_half
        r = r_half - omega * t
        eta_new = float(r_hat0 @ r)
        mu = (eta_new / eta) * (lam / omega)
        p = r + mu * (p - omega * v)
        eta = eta_new
        extras["history_tags"].append("full")
        extras["etas"].append(eta)
        extras["lambda_hat"].append(lam)
        extras["omegas"].append(omega)
        extras["mu"].append(mu)
        run.record(float(np.linalg.norm(r)), i, x=x, r=r, r_half=r_half, t=t, omega=omega)
    return run.finish(x, run.max_iter)
