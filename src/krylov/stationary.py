"""Splitting-based stationary iterations: Jacobi, Gauss-Seidel, SOR, SSOR,
their block versions, plus splitting diagnostics and spectral-radius tools.

A splitting A = M - N (M invertible) defines the iteration
M x_{k+1} = N x_k + b, implemented throughout in the equivalent
residual-update form: solve M u_k = r_k with r_k = b - A x_k, then
x_{k+1} = x_k + u_k.  Point sweeps run level by level on a schedule of
the sparse rows (:class:`krylov.storage._Sweep`) with the results of a
row-by-row loop.  Block variants keep the diagonal blocks dense, each
factored once, and the coupling between blocks as sparse entries
(:class:`krylov.storage._Blocks`); no n x n array is formed.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import SolveReport, _Run
from .storage import (_Blocks, _built, _check_dim, _column, _Panels, _point_parts, _Sweep,
                      operator, to_triplets)

POINT_METHODS = ("jacobi", "gauss_seidel", "sor")
BLOCK_METHODS = ("block_jacobi", "block_gs")


@dataclass
class Splitting:
    """A = M - N with an invertible M.

    ``m_solve`` solves M u = r, ``a_apply`` is the action of A (used for
    residuals), and ``n_apply`` (optional) is the action of N = M - A.

    The splittings :func:`split` builds also take an (n, k) block in
    ``m_solve`` and ``a_apply`` and act on it column by column: each column
    is bitwise the vector result, except that the block methods' diagonal
    blocks are solved by one multi-column LAPACK call, which rounds in its
    own order.  A splitting of the caller's own need only act on vectors.
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


def split(a, method, omega=None, block_size=None) -> Splitting:
    """Splitting for one of jacobi, gauss_seidel, sor, block_jacobi, block_gs.

    Writing A = D - L - U (D diagonal, L/U strictly triangular):

    * jacobi        M = D,                 N = L + U
    * gauss_seidel  M = D - L,             N = U
    * sor           M = (D - omega L)/omega, N = ((1-omega) D + omega U)/omega
    * block forms   the same with the block partition of A

    SOR requires omega in (0, 2).  Block sizes must divide n (None means
    round(sqrt(n))); a singular diagonal block raises ValueError.
    """
    a_apply = operator(a)[0]
    if method in POINT_METHODS:
        d, rows, cols, vals = _point_parts(a)
        if np.any(d == 0.0):
            raise ValueError("matrix has a zero diagonal entry")
        if method == "jacobi":
            def m_solve(r):
                r = _check_dim(r, d.size, block=True)
                return r / _column(d, r)
            m_apply = lambda x: d * x
        else:
            if method == "sor" and (omega is None or not (0.0 < omega < 2.0)):
                raise ValueError("sor requires omega in (0, 2)")
            d = d / omega if method == "sor" else d
            lower = _Sweep(d.size, rows, cols, vals, lower=True)
            m_solve = lambda r: lower.solve(d, r)
            m_apply = lambda x: lower.accumulate(d * x, x)
    elif method in BLOCK_METHODS:
        blocks = _Blocks(a, block_size)
        factors = [blocks.factor(d, i) for i, d in enumerate(blocks.diag)]
        gs = method == "block_gs"
        m_solve = lambda r: blocks.forward(factors, r, gs)
        m_apply = lambda x: blocks.multiply(x, gs)
    else:
        raise ValueError(f"unknown splitting method {method!r}")
    n_apply = lambda x: m_apply(x) - a_apply(x)
    return Splitting(m_solve=m_solve, a_apply=a_apply, n_apply=n_apply)


@np.errstate(over="ignore")  # a diverging run stops as a non-finite breakdown
def iterate(a, b, cfg: StationaryConfig, x0=None) -> SolveReport:
    """Run the stationary iteration described by ``cfg``.

    The history records true residual 2-norms (recomputed every sweep, not
    recurrence estimates), starting with the initial residual.
    """
    if cfg.method == "ssor":
        return ssor_iterate(a, b, cfg.omega, tol=cfg.tol, tol_kind=cfg.tol_kind,
                            max_iter=cfg.max_iter, x0=x0)
    a = _built(a)  # one build serves the splitting and the run
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


@np.errstate(over="ignore")
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
        return self._offdiag.accumulate(_column(self.diag, x) * x, x)


_DENSE_G_BYTES = 2 << 20  # n <= 512; by n = 784, G @ v costs as much as a sweep step


def iteration_matrix_applier(a, method, omega=None, block_size=None):
    """Action v -> inv(M) N v of the iteration matrix G for spectral studies.

    Uses G v = v - inv(M) (A v).  For ``method="ssor"`` the returned applier
    acts in the symmetrically scaled variables (the spectrum is similarity
    invariant, so spectral radii are unaffected).

    The splitting is built, and checked, here.  When a dense G takes at most
    2 MB (n <= 512), the applier forms G on its first call, by one
    application of the splitting's block kernels to the identity, and
    answers G @ v from then on: at that size a dense product costs far less
    than the numpy calls of a sweep's levels.  Column j of G is bitwise the
    vector path's G e_j (for the block methods, up to the rounding of one
    multi-column LAPACK solve), but G @ v sums in its own order, so results
    agree with the vector path to rounding.  Past the bound each call runs
    the vector path on v.
    """
    if method == "ssor":
        if omega is None or not (0.0 < omega < 2.0):
            raise ValueError("ssor requires omega in (0, 2)")
        parts = _point_parts(a)
        if np.any(parts[0] <= 0.0):
            raise ValueError("ssor needs a positive diagonal")
        hat = _HatStructure(*parts)
        n = hat.diag.size
        diag_hat = np.full(n, 1.0 / omega)

        def g_apply(v):
            w = v - hat.lower.solve(diag_hat, hat.apply(v))
            return w - hat.upper.solve(diag_hat, hat.apply(w))
    else:
        a = _built(a)  # one build serves the size and the splitting
        n = operator(a)[2]
        sp = split(a, method, omega=omega, block_size=block_size)
        g_apply = lambda v: v - sp.m_solve(sp.a_apply(v))
    return g_apply if 8 * n * n > _DENSE_G_BYTES else _DenseOnFirstCall(g_apply, n)


class _DenseOnFirstCall:
    """v -> G v by a dense G = g_apply(I), formed on the first call."""

    def __init__(self, g_apply, n):
        self.g_apply, self.n, self.matrix = g_apply, n, None

    def __call__(self, v):
        v = _check_dim(v, self.n)
        if self.matrix is None:
            self.matrix = self.g_apply(np.eye(self.n))
        return self.matrix @ v


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
