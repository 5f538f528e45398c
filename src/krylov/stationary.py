"""Splitting-based stationary iterations: Jacobi, Gauss-Seidel, SOR, SSOR,
their block versions, plus splitting diagnostics and spectral-radius tools.

A splitting A = M - N (M invertible) defines the iteration
M x_{k+1} = N x_k + b, implemented throughout in the equivalent
residual-update form: solve M u_k = r_k with r_k = b - A x_k, then
x_{k+1} = x_k + u_k.  Point sweeps run level by level on a schedule of
the sparse rows (:class:`krylov.storage._Sweep`) with the results of a
row-by-row loop; block variants factor each diagonal block densely once.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .report import SolveReport, _Run
from .storage import _Panels, _point_parts, _Sweep, operator, to_dense, to_triplets

POINT_METHODS = ("jacobi", "gauss_seidel", "sor")
BLOCK_METHODS = ("block_jacobi", "block_gs")


@dataclass
class Splitting:
    """A = M - N with an invertible M.

    ``m_solve`` solves M u = r, ``a_apply`` is the action of A (used for
    residuals), and ``n_apply`` (optional) is the action of N = M - A.
    """

    m_solve: Callable
    a_apply: Callable
    n_apply: Callable | None = None


@dataclass
class StationaryConfig:
    method: str = "jacobi"
    omega: float | None = None
    block_size: int | None = None
    tol: float = 1e-6
    tol_kind: str = "rel_to_r0"
    max_iter: int | None = None


class _BlockStructure:
    """Dense block partition with factored diagonal blocks (desk scale)."""

    def __init__(self, a, block_size):
        dense = to_dense(a)
        n = dense.shape[0]
        if block_size is None:
            block_size = int(round(math.sqrt(n)))
        if block_size < 1 or n % block_size != 0:
            raise ValueError(f"block size {block_size} does not divide n={n}")
        self.n = n
        self.bs = block_size
        self.nb = n // block_size
        self.dense = dense
        self.factors = []
        for bi in range(self.nb):
            sl = self._slice(bi)
            try:
                self.factors.append(scipy.linalg.lu_factor(dense[sl, sl]))
            except (scipy.linalg.LinAlgError, ValueError) as exc:
                raise ValueError(f"singular diagonal block {bi}") from exc

    def _slice(self, bi):
        return slice(bi * self.bs, (bi + 1) * self.bs)

    def block_diag_solve(self, rhs):
        u = np.empty(self.n)
        for bi in range(self.nb):
            sl = self._slice(bi)
            u[sl] = scipy.linalg.lu_solve(self.factors[bi], rhs[sl])
        return u

    def block_forward_solve(self, rhs):
        u = np.empty(self.n)
        for bi in range(self.nb):
            sl = self._slice(bi)
            s = rhs[sl]
            if bi > 0:
                s = s - self.dense[sl, : bi * self.bs] @ u[: bi * self.bs]
            u[sl] = scipy.linalg.lu_solve(self.factors[bi], s)
        return u


def split(a, method, omega=None, block_size=None) -> Splitting:
    """Splitting for one of jacobi, gauss_seidel, sor, block_jacobi, block_gs.

    Writing A = D - L - U (D diagonal, L/U strictly triangular):

    * jacobi        M = D,                 N = L + U
    * gauss_seidel  M = D - L,             N = U
    * sor           M = (D - omega L)/omega, N = ((1-omega) D + omega U)/omega
    * block forms   the same with the block partition of A

    SOR requires omega in (0, 2); block sizes must divide n.
    """
    a_apply = operator(a)[0]
    if method in POINT_METHODS:
        d, rows, cols, vals = _point_parts(a)
        if np.any(d == 0.0):
            raise ValueError("matrix has a zero diagonal entry")
        if method == "jacobi":
            m_solve = lambda r: r / d
            m_apply = lambda x: d * x
        else:
            if method == "sor" and (omega is None or not (0.0 < omega < 2.0)):
                raise ValueError("sor requires omega in (0, 2)")
            d = d / omega if method == "sor" else d
            lower = _Sweep(d.size, rows, cols, vals, lower=True)
            m_solve = lambda r: lower.solve(d, r)
            m_apply = lambda x: lower.accumulate(d * x, x)
    elif method in BLOCK_METHODS:
        bs = _BlockStructure(a, block_size)
        if method == "block_jacobi":
            m_solve = bs.block_diag_solve
            m_apply = lambda x: _block_diag_apply(bs, x)
        else:
            m_solve = bs.block_forward_solve
            m_apply = lambda x: _block_lower_apply(bs, x)
    else:
        raise ValueError(f"unknown splitting method {method!r}")
    n_apply = lambda x: m_apply(x) - a_apply(x)
    return Splitting(m_solve=m_solve, a_apply=a_apply, n_apply=n_apply)


def _block_diag_apply(bs, x):
    y = np.empty(bs.n)
    for bi in range(bs.nb):
        sl = bs._slice(bi)
        y[sl] = bs.dense[sl, sl] @ x[sl]
    return y


def _block_lower_apply(bs, x):
    y = _block_diag_apply(bs, x)
    for bi in range(1, bs.nb):
        sl = bs._slice(bi)
        y[sl] += bs.dense[sl, : bi * bs.bs] @ x[: bi * bs.bs]
    return y


def iterate(a, b, cfg: StationaryConfig, x0=None) -> SolveReport:
    """Run the stationary iteration described by ``cfg``.

    The history records true residual 2-norms (recomputed every sweep, not
    recurrence estimates), starting with the initial residual.
    """
    if cfg.method == "ssor":
        return ssor_iterate(a, b, cfg.omega, tol=cfg.tol, tol_kind=cfg.tol_kind,
                            max_iter=cfg.max_iter, x0=x0)
    sp = split(a, cfg.method, omega=cfg.omega, block_size=cfg.block_size)
    run = _Run(a, b, x0, cfg.tol, cfg.tol_kind, cfg.max_iter, sweeps=100)
    x, r = run.x, run.r
    for it in range(run.max_iter):
        if run.stop(run.history[-1]):
            return run.finish(x, it)
        try:
            u = sp.m_solve(r)
        except (np.linalg.LinAlgError, ZeroDivisionError, FloatingPointError) as exc:
            return run.breakdown(x, it, str(exc))
        x = x + u
        r = run.b - sp.a_apply(x)
        run.record(float(np.linalg.norm(r)))
    return run.finish(x, run.max_iter)


def ssor_iterate(a, b, omega, tol=1e-6, tol_kind="rel_to_r0", max_iter=None,
                 x0=None) -> SolveReport:
    """Symmetric SOR for a symmetric matrix with positive diagonal.

    Internally the system is scaled to Ahat = D^{-1/2} A D^{-1/2} and each
    iteration performs the forward SOR half-sweep followed by the reversed
    (transposed) one; the report is in the original variables and its
    history holds true residual norms of the original system.
    """
    if omega is None or not (0.0 < omega < 2.0):
        raise ValueError("ssor requires omega in (0, 2)")
    parts = _point_parts(a)
    if np.any(parts[0] == 0.0):
        raise ValueError("matrix has a zero diagonal entry")
    run = _Run(a, b, x0, tol, tol_kind, max_iter, sweeps=100)
    if np.any(parts[0] < 0.0):
        return run.breakdown(run.x, 0, "negative diagonal entry: D^(1/2) undefined")
    hat = _HatStructure(*parts)
    x, b = run.x, run.b
    xhat = hat.sqd * x
    bhat = b / hat.sqd
    diag_hat = np.full(b.size, 1.0 / omega)
    for it in range(run.max_iter):
        if run.stop(run.history[-1]):
            return run.finish(x, it)
        rhat = bhat - hat.apply(xhat)
        xhat = xhat + hat.lower.solve(diag_hat, rhat)
        rhat = bhat - hat.apply(xhat)
        xhat = xhat + hat.upper.solve(diag_hat, rhat)
        x = xhat / hat.sqd
        run.record(float(np.linalg.norm(b - run.a_apply(x))))
    return run.finish(x, run.max_iter)


class _HatStructure:
    """Ahat = D^{-1/2} A D^{-1/2} from the parts of A, for SSOR sweeps."""

    def __init__(self, diag, rows, cols, vals):
        n = diag.size
        self.sqd = np.sqrt(diag)
        inv = 1.0 / self.sqd
        vals = vals * (inv[rows] * inv[cols])
        self.diag = diag * inv * inv  # all ones up to rounding, kept for apply()
        self.lower, self.upper = (_Sweep(n, rows, cols, vals, side) for side in (True, False))
        self._offdiag = _Panels(n, rows, cols, vals, np.zeros(n, dtype=np.int64))

    def apply(self, x):
        """Ahat @ x, each row from its diagonal term through its entries by column."""
        return self._offdiag.accumulate(self.diag * x, x)


def iteration_matrix_applier(a, method, omega=None, block_size=None):
    """Action v -> inv(M) N v of the iteration matrix G for spectral studies.

    Uses G v = v - inv(M) (A v).  For ``method="ssor"`` the returned applier
    acts in the symmetrically scaled variables (the spectrum is similarity
    invariant, so spectral radii are unaffected).
    """
    if method == "ssor":
        if omega is None or not (0.0 < omega < 2.0):
            raise ValueError("ssor requires omega in (0, 2)")
        parts = _point_parts(a)
        if np.any(parts[0] <= 0.0):
            raise ValueError("ssor needs a positive diagonal")
        hat = _HatStructure(*parts)
        diag_hat = np.full(hat.diag.size, 1.0 / omega)

        def g_apply(v):
            w = v - hat.lower.solve(diag_hat, hat.apply(v))
            return w - hat.upper.solve(diag_hat, hat.apply(w))

        return g_apply
    sp = split(a, method, omega=omega, block_size=block_size)
    return lambda v: v - sp.m_solve(sp.a_apply(v))


def optimal_omega_estimate(rho_j: float) -> float:
    """Relaxation parameter minimizing the SOR spectral radius.

    For matrices where the Gauss-Seidel radius is the square of the Jacobi
    radius, the optimum is 1 + (rho_j / (1 + sqrt(1 - rho_j**2)))**2.
    """
    if not (0.0 < rho_j < 1.0):
        raise ValueError("rho_j must lie in (0, 1)")
    rho_gs = rho_j * rho_j
    return 1.0 + (rho_j / (1.0 + math.sqrt(1.0 - rho_gs))) ** 2


def diagnostics(a) -> dict:
    """Structural checks: diagonal dominance, M-matrix sign pattern, symmetry.

    Dominance is reported in the weak sense (no row/column exceeds its
    diagonal, at least one is strictly below), which admits the discrete
    Laplacian family.  The sign-pattern flag (positive diagonal,
    nonpositive off-diagonals) is a necessary condition for an M-matrix,
    not a proof.  With no n x n array, the sums of |A| are the dense
    formulas' (rows summed densely a block of rows at a time, columns in
    row order), so rounding ties resolve alike.
    """
    t = to_triplets(a).coalesced()
    n, mag = t.n, np.abs(t.vals)
    diag = _point_parts(t)[0]
    absd = np.abs(diag)
    row_sum, step = np.empty(n), max(1, (1 << 20) // n)
    for i in range(0, n, step):
        lo, hi = np.searchsorted(t.rows, (i, i + step))
        block = np.zeros((min(step, n - i), n))
        block[t.rows[lo:hi] - i, t.cols[lo:hi]] = mag[lo:hi]
        row_sum[i:i + step] = np.sum(block, axis=1)
    row_off = row_sum - absd
    col_off = np.bincount(t.cols, weights=mag, minlength=n) - absd
    nz = t.vals != 0.0
    rows, cols, vals = t.rows[nz], t.cols[nz], t.vals[nz]
    tr = np.lexsort((rows, cols))  # the transpose's entries, by row
    return {
        "diag_dominant_rows": bool(np.all(absd >= row_off) and np.any(absd > row_off)),
        "diag_dominant_cols": bool(np.all(absd >= col_off) and np.any(absd > col_off)),
        "m_matrix_sign_pattern": bool(np.all(diag > 0) and np.all(vals[rows != cols] <= 0)),
        "symmetric": bool(np.array_equal(rows, cols[tr]) and np.array_equal(cols, rows[tr])
                          and np.array_equal(vals, vals[tr])),
    }
