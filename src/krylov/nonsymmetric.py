"""Krylov methods for general nonsingular systems: Arnoldi/GMRES, the
two-sided Lanczos process and its descendants Bi-CG, QMR (two
implementations), CGS and Bi-CGStab, plus the orthogonal bidiagonalization
solver.

The two-sided (nonsymmetric Lanczos) methods trade the long recurrences of
GMRES for three-term ones at the price of possible breakdowns; every zero
test here uses a 1e-14 relative threshold and breakdowns are reported in
the SolveReport, never silently perturbed (no look-ahead).

Left preconditioning is available on every solver through ``c_apply``: the
solver then runs on C A with right-hand side C b (for the transpose action
it uses (C A)' = A' C, valid for symmetric C).
"""

import numpy as np

from .core import _TridiagQR, make_givens
from .report import SolveReport, _Run
from .storage import operator

_ZERO = 1e-14

# Breakdown kinds
INVARIANT_SUBSPACE = "invariant_subspace"
SERIOUS_BREAKDOWN = "serious_breakdown"
LU_BREAKDOWN = "lu_breakdown"


def _mgs_step(a_apply, us):
    """One modified Gram-Schmidt Arnoldi step from the last basis vector.

    Returns ``(v, col, hnext, scale)``: v = A u_i orthogonalized against
    ``us``, col its projections with hnext = ||v|| appended (column i of
    the Hessenberg matrix), and scale = ||A u_i|| for the breakdown test.
    """
    v = a_apply(us[-1])
    scale = float(np.linalg.norm(v))
    col = np.zeros(len(us) + 1)
    for j, u in enumerate(us):
        col[j] = float(u @ v)
        v = v - col[j] * u
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
        if hnext <= _ZERO * max(scale, 1.0):
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
    capped).  A vanished subdiagonal with the residual above tolerance
    means the Krylov space became invariant without containing the
    solution, which cannot happen for nonsingular A and is reported as a
    breakdown.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, callback=callback)
    a_apply, x = run.a_apply, run.x
    cycle = restart if restart is not None else run.max_iter
    if cycle < 1:
        raise ValueError("restart must be at least 1")
    total = 0
    while True:
        r0 = run.b - a_apply(x)
        beta = float(np.linalg.norm(r0))
        if run.stop(beta):
            return run.finish(x, total, res=beta)
        us = [r0 / beta]
        rcols = []   # columns of the triangular factor
        rots = []    # Givens pairs
        g1 = []      # rotated rhs components
        g = beta
        breakdown = None
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
            lucky = hnext <= _ZERO * max(scale, 1.0)
            if run.stop(abs(g)) or lucky:
                if lucky and abs(g) > run.threshold:
                    breakdown = INVARIANT_SUBSPACE
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
        if run.stop(abs(g)) or total >= run.max_iter:
            return run.finish(x, total, res=abs(g))


class BiLanczosState:
    """Two-sided Lanczos recurrence state (biorthonormal u/w sequences)."""

    def __init__(self, a, r0, r0_hat=None):
        self.a_apply, self.at_apply, _ = operator(a)
        if self.at_apply is None:
            raise ValueError("operator does not expose a transpose action")
        r0 = np.asarray(r0, dtype=float)
        r0_hat = r0 if r0_hat is None else np.asarray(r0_hat, dtype=float)
        nrm = float(np.linalg.norm(r0))
        if nrm == 0.0:
            raise ValueError("start vector must be nonzero")
        eta = float(r0 @ r0_hat)
        if abs(eta) <= _ZERO * nrm * float(np.linalg.norm(r0_hat)):
            raise ValueError("start vectors are (nearly) orthogonal")
        self.u_curr = r0 / nrm
        self.w_curr = r0_hat / float(self.u_curr @ r0_hat)
        self.u_prev = np.zeros_like(r0)
        self.w_prev = np.zeros_like(r0)
        self.alpha_prev = 0.0
        self.beta_prev = 0.0
        self.gammas = []
        self.alphas = []
        self.betas = []


def bilanczos_step(state: BiLanczosState):
    """Advance the two-sided Lanczos recurrence by one step.

    Returns ``("ok", (gamma, alpha, beta))`` on success, or
    ``(breakdown_kind, partial)`` where the kind is "invariant_subspace"
    (the u sequence terminated: a right invariant subspace was found) or
    "serious_breakdown" (the new pair is orthogonal and the recurrence
    cannot continue without look-ahead).
    """
    u, w = state.u_curr, state.w_curr
    v = state.a_apply(u)
    gamma = float(w @ v)
    u_hat = v - gamma * u - state.beta_prev * state.u_prev
    w_hat = state.at_apply(w) - gamma * w - state.alpha_prev * state.w_prev
    alpha = float(np.linalg.norm(u_hat))
    state.gammas.append(gamma)
    if alpha <= _ZERO * max(float(np.linalg.norm(v)), 1.0):
        return INVARIANT_SUBSPACE, (gamma, alpha, None)
    u_next = u_hat / alpha
    beta = float(u_next @ w_hat)
    if abs(beta) <= _ZERO * float(np.linalg.norm(w_hat)) or w_hat @ w_hat == 0.0:
        return SERIOUS_BREAKDOWN, (gamma, alpha, beta)
    state.alphas.append(alpha)
    state.betas.append(beta)
    state.u_prev, state.u_curr = state.u_curr, u_next
    state.w_prev, state.w_curr = state.w_curr, w_hat / beta
    state.alpha_prev, state.beta_prev = alpha, beta
    return "ok", (gamma, alpha, beta)


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
    scale0 = run.r_norm ** 2
    for i in range(1, run.max_iter + 1):
        if run.stop(run.history[-1]):
            return run.finish(x, i - 1)
        if abs(eta) <= _ZERO ** 2 * scale0:
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        v = a_apply(p)
        v_hat = at_apply(p_hat)
        d = float(p_hat @ v)
        if abs(d) <= _ZERO * float(np.linalg.norm(p_hat)) * float(np.linalg.norm(v)):
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
    entries) is the quasi-residual, an upper proxy for the true residual up
    to the conditioning of the nonorthogonal basis.  True residual norms
    are recorded in ``extras["true_residual_norms"]``.  On symmetric A with
    the default shadow start the method coincides with MINRES.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, transpose="qmr",
               callback=callback)
    a_apply, at_apply, x = run.a_apply, run.at_apply, run.x
    beta0 = run.r_norm
    true_norms = run.extras["true_residual_norms"] = [beta0]
    if run.stop(beta0):
        return run.finish(x, 0)
    u = run.r / beta0
    w = u.copy()
    u_prev = np.zeros(u.size)
    w_prev = np.zeros(u.size)
    alpha_prev = beta_prev = 0.0
    qr = _TridiagQR(beta0, u.size)
    for i in range(1, run.max_iter + 1):
        v = a_apply(u)
        gamma = float(w @ v)
        u_hat = v - gamma * u - beta_prev * u_prev
        alpha = float(np.linalg.norm(u_hat))
        x_next = qr.step(x, u, beta_prev, gamma, alpha)
        if x_next is None:
            return run.breakdown(x, i - 1, "singular-R")
        x = x_next
        true_norms.append(float(np.linalg.norm(run.b - a_apply(x))))
        run.record(abs(qr.g), i, x=x, g=qr.g)
        invariant = alpha <= _ZERO * max(float(np.linalg.norm(v)), 1.0)
        if run.stop(run.history[-1], invariant):
            return run.finish(x, i, exact=invariant)
        u_next = u_hat / alpha
        w_hat = at_apply(w) - gamma * w - alpha_prev * w_prev
        beta = float(u_next @ w_hat)
        if abs(beta) <= _ZERO * float(np.linalg.norm(w_hat)):
            return run.breakdown(x, i, SERIOUS_BREAKDOWN)
        u_prev, u = u, u_next
        w_prev, w = w, w_hat / beta
        alpha_prev, beta_prev = alpha, beta
    return run.finish(x, run.max_iter)


def qmr_alt(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
            c_apply=None, callback=None) -> SolveReport:
    """QMR on the LU-normalized two-sided factorization (cheaper variant).

    Works with the rescaled pair (q, z) so the projected matrix becomes
    lower bidiagonal and only one old rotation is needed per step.  The
    price is an extra breakdown mode: the implicit LU factorization of the
    tridiagonal matrix may not exist, surfacing as a zero pivot ell_i
    ("lu_breakdown") while plain :func:`qmr` proceeds.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, transpose="qmr_alt",
               callback=callback)
    a_apply, at_apply, x = run.a_apply, run.at_apply, run.x
    beta0 = run.r_norm
    true_norms = run.extras["true_residual_norms"] = [beta0]
    if run.stop(beta0):
        return run.finish(x, 0)
    u = run.r / beta0
    v = u.copy()
    q = u.copy()
    z = u.copy()
    f = 1.0
    g = beta0
    p_prev = np.zeros(u.size)
    rot_prev = None
    for i in range(1, run.max_iter + 1):
        q_hat = a_apply(q)
        num = float(z @ q_hat)
        if abs(num) <= _ZERO * float(np.linalg.norm(z)) * float(np.linalg.norm(q_hat)):
            return run.breakdown(x, i - 1, LU_BREAKDOWN)
        ell = num / f
        u_hat = q_hat - ell * u
        alpha = float(np.linalg.norm(u_hat))
        r_im1, r_ii = 0.0, ell
        p = q.copy()
        if i > 1:
            r_im1, r_ii = rot_prev.apply(0.0, ell)
            p -= r_im1 * p_prev
        rot, r_ii = make_givens(r_ii, alpha)
        if r_ii == 0.0:
            return run.breakdown(x, i - 1, "singular-R")
        p /= r_ii
        xi, g = rot.apply(g, 0.0)
        x = x + xi * p
        true_norms.append(float(np.linalg.norm(run.b - a_apply(x))))
        run.record(abs(g), i, x=x, g=g)
        invariant = alpha <= _ZERO * max(float(np.linalg.norm(q_hat)), 1.0)
        if run.stop(run.history[-1], invariant):
            return run.finish(x, i, exact=invariant)
        u = u_hat / alpha
        v = (at_apply(z) - ell * v) / alpha
        f_next = float(v @ u)
        if abs(f_next) <= _ZERO:
            return run.breakdown(x, i, SERIOUS_BREAKDOWN)
        phi = alpha * f_next / (ell * f)
        q = u - phi * q
        z = v - phi * z
        f = f_next
        p_prev = p
        rot_prev = rot
    return run.finish(x, run.max_iter)


def bidiagonalize(a, u1_hat, steps):
    """Orthogonal bidiagonalization A V = U L, A' U = V L'.

    Returns ``(us, vs, alphas, betas)`` built by the alternating recurrence
    (L lower bidiagonal with diagonal alphas and subdiagonal betas).  A zero
    beta terminates the process early.  Note A'A V = V (L'L): the process
    is the symmetric Lanczos recurrence on the normal-equations matrix in
    disguise, with its squared conditioning.
    """
    a_apply, at_apply, _ = operator(a)
    if at_apply is None:
        raise ValueError("operator does not expose a transpose action")
    u1_hat = np.asarray(u1_hat, dtype=float)
    nrm = float(np.linalg.norm(u1_hat))
    if nrm == 0.0:
        raise ValueError("start vector must be nonzero")
    u = u1_hat / nrm
    us, vs, alphas, betas = [u.copy()], [], [], []
    v_prev = 0.0
    beta_prev = 0.0
    for i in range(steps):
        v_hat = at_apply(u) - beta_prev * v_prev
        alpha = float(np.linalg.norm(v_hat))
        if alpha <= _ZERO * nrm:
            break
        v = v_hat / alpha
        alphas.append(alpha)
        vs.append(v.copy())
        if i == steps - 1:
            break
        u_hat = a_apply(v) - alpha * u
        beta = float(np.linalg.norm(u_hat))
        if beta <= _ZERO * nrm:
            break
        betas.append(beta)
        u = u_hat / beta
        us.append(u.copy())
        v_prev, beta_prev = v, beta
    return us, vs, np.array(alphas), np.array(betas)


def bidiag_solve(a, b, x0=None, tol=1e-8, tol_kind="rel_to_b", max_iter=None,
                 c_apply=None, callback=None) -> SolveReport:
    """Solver on the bidiagonalization started from the initial residual.

    The Galerkin conditions give the one-term update x_i = x_{i-1} + xi_i v_i
    with xi_1 = ||r_0||/alpha_1 and xi_i = -xi_{i-1} beta_{i-1}/alpha_i; a
    vanishing beta means the exact solution has been reached.  Equivalent to
    symmetric Lanczos on the normal equations, so the effective condition
    number is kappa(A)**2; of little practical interest but a useful
    cross-check.  History records true residual norms.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, transpose="bidiag_solve",
               callback=callback)
    a_apply, at_apply, x = run.a_apply, run.at_apply, run.x
    beta0 = run.r_norm
    if run.stop(beta0):
        return run.finish(x, 0)
    u = run.r / beta0
    v_prev = 0.0
    beta_prev = 0.0
    xi = None
    for i in range(1, run.max_iter + 1):
        v_hat = at_apply(u) - beta_prev * v_prev
        alpha = float(np.linalg.norm(v_hat))
        if alpha <= _ZERO * beta0:
            return run.breakdown(x, i - 1, "zero-alpha")
        v = v_hat / alpha
        xi = beta0 / alpha if i == 1 else -xi * beta_prev / alpha
        x = x + xi * v
        run.record(float(np.linalg.norm(run.b - a_apply(x))), i, x=x)
        if run.stop(run.history[-1]):
            return run.finish(x, i)
        u_hat = a_apply(v) - alpha * u
        beta = float(np.linalg.norm(u_hat))
        if beta <= _ZERO * beta0:
            return run.finish(x, i, exact=True)  # the iterate is exact
        u = u_hat / beta
        v_prev, beta_prev = v, beta
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
    scale0 = max(run.r_norm ** 2, 1e-300)
    for i in range(1, run.max_iter + 1):
        if run.stop(run.history[-1]):
            return run.finish(x, i - 1)
        if abs(eta) <= _ZERO ** 2 * scale0:
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        v = a_apply(p)
        d = float(r_hat0 @ v)
        if abs(d) <= _ZERO * run.r_norm * float(np.linalg.norm(v)):
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
    Coefficient sequences are recorded for consistency checks.  A vanishing
    t with a nonzero half residual leaves omega undefined (breakdown).
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, c_apply, callback=callback, extras={
        "history_tags": ["initial"], "etas": [], "lambda_hat": [], "omegas": [], "mu": []})
    a_apply, x, r, extras = run.a_apply, run.x, run.r, run.extras
    r_hat0 = r.copy()
    p = r.copy()
    eta = float(r_hat0 @ r)
    extras["etas"].append(eta)
    scale0 = max(run.r_norm ** 2, 1e-300)
    for i in range(1, run.max_iter + 1):
        if run.stop(run.history[-1]):
            return run.finish(x, i - 1)
        if abs(eta) <= _ZERO ** 2 * scale0:
            return run.breakdown(x, i - 1, SERIOUS_BREAKDOWN)
        v = a_apply(p)
        d = float(r_hat0 @ v)
        if abs(d) <= _ZERO * run.r_norm * float(np.linalg.norm(v)):
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
        t_norm2 = float(t @ t)
        if t_norm2 <= (_ZERO * half_norm) ** 2:
            return run.breakdown(x_half, i, "omega-zero")
        omega = float(t @ r_half) / t_norm2
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
