"""Splitting-based stationary iterations: Jacobi, Gauss-Seidel, SOR, SSOR,
their block versions, plus splitting diagnostics and spectral-radius tools.

A splitting A = M - N (M invertible) defines the iteration
M x_{k+1} = N x_k + b, implemented throughout in the equivalent
residual-update form: solve M u_k = r_k with r_k = b - A x_k, then
x_{k+1} = x_k + u_k.  SSOR is one more splitting, whose M solve is the
forward SOR sweep followed by the backward one.  Point sweeps run level by
level on a schedule of the sparse rows (:class:`krylov.storage._Sweep`)
with the results of a row-by-row loop.  Block variants keep the diagonal
blocks dense, each factored once, and the coupling between blocks as
sparse entries (:class:`krylov.storage._Blocks`): block GS sweeps the blocks
as groups, block Jacobi solves each block alone; no n x n array is formed.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import SolveReport, _Run
from .storage import (_Blocks, _check_dim, _column, _diagonals, _kernel, _Sweep, operator,
                      to_triplets)

POINT_METHODS = ("jacobi", "gauss_seidel", "sor", "ssor")
BLOCK_METHODS = ("block_jacobi", "block_gs")


@dataclass
class Splitting:
    """A = M - N with an invertible M.

    ``m_solve`` solves M u = r, ``a_apply`` is the action of A (used for
    residuals), and ``n_apply`` (optional) is the action of N = M - A.

    The splittings :func:`split` builds also take an (n, k) block in
    ``m_solve``, ``a_apply`` and ``n_apply`` and act on it column by column:
    each column is bitwise the vector result, except that the block methods
    solve and multiply by their diagonal blocks for all columns at once
    (one LAPACK call, one matmul), which rounds in its own order.  A
    splitting of the caller's own need only act on vectors.
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
    """Splitting for one of jacobi, gauss_seidel, sor, ssor, block_jacobi,
    block_gs.

    Writing A = D - L - U (D diagonal, L/U strictly triangular):

    * jacobi        M = D,                 N = L + U
    * gauss_seidel  M = D - L,             N = U
    * sor           M = (D - omega L)/omega, N = ((1-omega) D + omega U)/omega
    * ssor          M = omega/(2-omega) (D/omega - L) inv(D) (D/omega - U)
      (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed., §4.1);
      M u = r is solved as the forward SOR sweep u = inv(D/omega - L) r
      followed by the backward one, u + inv(D/omega - U) (r - A u)
    * block forms   the same with the block partition of A

    The point methods need a nonzero diagonal, and SOR and SSOR need omega
    in (0, 2).  A storage operand keeps its GS/SOR/SSOR sweeps, one per
    triangle, like its IC pattern: a later split, any omega, builds none.
    D comes from a diag-format operand's own column, so Jacobi, and any
    later split of one, build no triplets.
    Block sizes must divide n (None means round(sqrt(n))); a singular
    diagonal block raises ValueError.
    """
    a_apply, _, n = operator(a)
    if method in ("sor", "ssor") and (omega is None or not (0.0 < omega < 2.0)):
        raise ValueError(f"{method} requires omega in (0, 2)")
    if method in POINT_METHODS:
        (d,), _ = _diagonals(a, (0,))
        if np.any(d == 0.0):
            raise ValueError("matrix has a zero diagonal entry")
        t = functools.cache(lambda: to_triplets(a).coalesced())  # each sweep keeps its triangle
        sweep = lambda lower: _kernel(a, "_lower_sweep" if lower else "_upper_sweep", None,
                                      lambda: _Sweep(n, t().rows, t().cols, t().vals, lower))
        if method == "jacobi":
            def m_solve(r):
                r = _check_dim(r, n, block=True)
                return r / _column(d, r)
            m_apply = lambda x: _column(d, x) * x
        elif method == "ssor":
            dw = d / omega
            lower, upper = (sweep(side) for side in (True, False))
            dl, du = lower.parts(dw), upper.parts(dw)

            def m_solve(r):
                u = lower.solve(dl, r)
                return u + upper.solve(du, r - a_apply(u))

            def m_apply(x):
                y = upper.accumulate(_column(dw, x) * x, x) / _column(d, x)
                return omega / (2.0 - omega) * lower.accumulate(_column(dw, y) * y, y)
        else:
            d = d / omega if method == "sor" else d
            lower = sweep(True)
            parts = lower.parts(d)
            m_solve = lambda r: lower.solve(parts, r)
            m_apply = lambda x: lower.accumulate(_column(d, x) * x, x)
    elif method in BLOCK_METHODS:
        blocks = _Blocks(a, block_size)
        factors = [blocks.factor(d, i) for i, d in enumerate(blocks.diag)]
        gs = method == "block_gs"
        m_solve = lambda r: (blocks.forward if gs else blocks.solve)(factors, r)
        m_apply = lambda x: blocks.multiply(x, gs)
    else:
        raise ValueError(f"unknown splitting method {method!r}")

    def n_apply(x):
        x = _check_dim(x, n, block=True)
        return m_apply(x) - a_apply(x)
    return Splitting(m_solve=m_solve, a_apply=a_apply, n_apply=n_apply)


@np.errstate(over="ignore", invalid="ignore")  # a diverging run stops as a non-finite breakdown
def iterate(a, b, cfg: StationaryConfig, x0=None) -> SolveReport:
    """Run the stationary iteration described by ``cfg``.

    The history records true residual 2-norms (recomputed every sweep, not
    recurrence estimates), starting with the initial residual.
    """
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
    """Symmetric SOR: :func:`iterate` on the ``"ssor"`` splitting.  Each
    iteration is a forward SOR half-sweep followed by a backward one; the
    history holds true residual norms."""
    cfg = StationaryConfig("ssor", omega=omega, tol=tol, tol_kind=tol_kind, max_iter=max_iter)
    return iterate(a, b, cfg, x0=x0)


_DENSE_G_BYTES = 2 << 20  # n <= 512; by n = 784, G @ v costs as much as a sweep step


def iteration_matrix_applier(a, method, omega=None, block_size=None):
    """Action v -> inv(M) N v of the iteration matrix G for spectral studies.

    Uses G v = v - inv(M) (A v), for any method :func:`split` takes.

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
    not a proof.  Row and column sums of |A| are each one `bincount` over
    the coalesced entries: a row adds its |a_ij| in turn from 0.0 in
    column order, a column in row order.  The cost is O(nnz), and a tie
    is decided by those float sums.
    """
    t = to_triplets(a).coalesced()
    n, mag, on = t.n, np.abs(t.vals), t.rows == t.cols
    diag, off = np.bincount(t.rows[on], t.vals[on], n), t.vals[~on]  # ints if no diagonal
    absd = np.abs(diag)
    row_off = np.bincount(t.rows, weights=mag, minlength=n) - absd
    col_off = np.bincount(t.cols, weights=mag, minlength=n) - absd
    return {
        "diag_dominant_rows": bool(np.all(absd >= row_off) and np.any(absd > row_off)),
        "diag_dominant_cols": bool(np.all(absd >= col_off) and np.any(absd > col_off)),
        "m_matrix_sign_pattern": bool(np.all(diag > 0) and np.all(off <= 0)),
        "symmetric": _is_symmetric(t),
    }


def _is_symmetric(t) -> bool:
    """Whether coalesced triplets hold A = A' entry for entry (explicit zeros
    count as absent)."""
    nz = t.vals != 0.0
    rows, cols, vals = t.rows[nz], t.cols[nz], t.vals[nz]
    tr = np.lexsort((rows, cols))  # the transpose's entries, by row
    return bool(np.array_equal(rows, cols[tr]) and np.array_equal(cols, rows[tr])
                and np.array_equal(vals, vals[tr]))
