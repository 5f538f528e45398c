"""Preconditioned CG and the preconditioner families it uses.

The PCG iteration here is the package's only CG loop: plain CG
(:func:`krylov.cg.cg`) is PCG with C = I, and :func:`solve_poly_pcg` is
PCG with C = I on the transformed system p_m(A) x = C(A) b.

A preconditioner is exposed as an applier ``s = C @ r`` with C symmetric
positive definite and C approximately inv(A).  Four families are built
here: the diagonal (Jacobi) scaling, incomplete Cholesky on the
pentadiagonal Stieltjes structure (plain and modified; pivots and
triangular solves run on a level schedule of the rows), a block incomplete
factorization for block-tridiagonal matrices, and the Chebyshev polynomial
approximation of inv(A).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .core import _ZERO, _negligible
from .report import SolveReport, _Run
from .stationary import split
from .storage import _Blocks, _Sweep, operator, to_triplets


class IcBreakdownError(RuntimeError):
    """Nonpositive pivot met while building an incomplete factorization."""


def pcg(a, b, c_apply=None, x0=None, tol=1e-10, tol_kind="abs", max_iter=None,
        callback=None) -> SolveReport:
    """Preconditioned conjugate gradients.

    ``c_apply`` maps a residual to the preconditioned residual s = C r (the
    identity when omitted, which reproduces plain CG).  Per iteration:
    eta_i = r_i' s_i, step length eta_{i-1} / (p_i' A p_i), direction
    p_{i+1} = s_i + mu_i p_i.  A negative eta signals a non-spd
    preconditioner and stops the run as a breakdown.

    History records the Euclidean norms ||r_i|| of the recurrence residual
    (stopping uses these); ``extras["c_norms"]`` records sqrt(eta_i), the
    C-norm of the residual.
    """
    run = _Run(a, b, x0, tol, tol_kind, max_iter, callback=callback, extras={"c_norms": []})
    return _pcg(run, run.a_apply, run.r, c_apply, "c_norms", ("r", "s", "p"))


def _pcg(run, op, r, c_apply, norm_key, keys, true_residual=False):
    """The PCG iteration behind :func:`pcg`, :func:`cg` and :func:`solve_poly_pcg`.

    Iterates on the operator ``op`` from ``run.x`` with residual ``r``
    (``op`` may be a transformed operator, ``r`` its residual), with C =
    ``c_apply`` or the identity, and records into ``run``:
    ``run.extras[norm_key]`` gets sqrt(eta_i), and extras holding
    ``"d_hat"`` also get the coefficients ``lambda_hat``, ``mu`` and
    ``d_hat``.  History records, and stopping reads, ||r_i||, or with
    ``true_residual`` the norm of ``run.b - A x_i`` of the original system
    (one more matvec); eta_i <= 1e-28 eta_0 counts as an exact solve.
    Callback events carry ``x`` and the vectors named in ``keys``.

    ``x``, ``r`` and ``p`` are updated in place through one scratch vector.
    The loop writes only into arrays it allocated (copies of ``run.x`` and
    ``r``, ``p`` and the scratch), never into one that ``op``, ``c_apply``
    or ``run.a_apply`` returned: an identity operator returns its input,
    and another may return a buffer it reuses.
    """
    x, r, extras = run.x.copy(), r.copy(), run.extras
    s = r if c_apply is None else c_apply(r)
    eta = float(r @ s)
    extras[norm_key].append(math.sqrt(max(eta, 0.0)))
    if eta < 0.0:
        return run.breakdown(x, 0, "precond-not-spd")
    eta_scale = _ZERO * eta
    res = run.r_norm
    p = s.copy()
    w = np.empty(x.size)  # scratch: lam p, lam v, then b - A x
    for i in range(1, run.max_iter + 1):
        exact = _negligible(eta, eta_scale)
        if run.stop(res, exact):
            return run.finish(x, i - 1, res, exact)
        v = op(p)
        d = float(p @ v)
        if d <= 0.0:
            return run.breakdown(x, i - 1, "not-spd")
        lam = eta / d
        x += np.multiply(p, lam, out=w)
        r -= np.multiply(v, lam, out=w)
        s = r if c_apply is None else c_apply(r)
        eta_new = float(r @ s)
        if eta_new < 0.0:
            return run.breakdown(x, i, "precond-not-spd")
        mu = eta_new / eta
        p *= mu
        p += s
        eta = eta_new
        if "d_hat" in extras:
            extras["lambda_hat"].append(lam)
            extras["mu"].append(mu)
            extras["d_hat"].append(d)
        extras[norm_key].append(math.sqrt(eta))
        if true_residual:
            res = float(np.linalg.norm(np.subtract(run.b, run.a_apply(x), out=w)))
        else:  # with C = I, sqrt(eta) is ||r|| without a second reduction
            res = math.sqrt(eta) if c_apply is None else float(np.linalg.norm(r))
        vecs = {"r": r, "s": s, "p": p}
        run.record(res, i, x=x, **{k: vecs[k] for k in keys})
    return run.finish(x, run.max_iter, res)


def jacobi_preconditioner(a):
    """Diagonal scaling C = inv(diag(A)): the Jacobi splitting's ``m_solve``,
    which takes an (n,) vector or an (n, k) block."""
    return split(a, "jacobi").m_solve


# ---------------------------------------------------------------------------
# Incomplete Cholesky on the pentadiagonal Stieltjes structure
# ---------------------------------------------------------------------------

@dataclass
class IcFactors:
    """Incomplete LDL' factors of a pentadiagonal matrix with band offset N.

    Only the pivot vector ``dt`` is new storage: the factored form
    (L D)(inv(D))(L D)' reuses the matrix's own sub-band entries ``b``
    (first subdiagonal) and ``c`` (N-th subdiagonal) as the strict lower
    triangle of (L D), kept as level-scheduled sweeps ``lower``/``upper``.
    """

    n: int
    band: int  # offset of the outer band
    a: np.ndarray   # diagonal of A
    b: np.ndarray   # b[i] = A[i, i-1] (b[0] = 0)
    c: np.ndarray   # c[i] = A[i, i-N] (c[i] = 0 for i < N)
    dt: np.ndarray  # pivots
    lower: _Sweep
    upper: _Sweep


def _pentadiagonal_bands(a, band):
    """Extract (diag, sub1, subN) from a pentadiagonal Stieltjes matrix."""
    if band < 1:
        raise ValueError(f"band offset must be at least 1, got {band}")
    t = to_triplets(a).coalesced()
    off = t.cols - t.rows
    outside = np.flatnonzero(~np.isin(off, (0, -1, -band, 1, band)))
    if outside.size:
        k = outside[0]
        raise ValueError(f"entry ({t.rows[k]}, {t.cols[k]}) off the pentadiagonal pattern")
    diag, b, c = np.zeros((3, t.n))
    for v, mask in zip((diag, b, c), (off == 0, off == -1, (off == -band) & (off != -1))):
        v[t.rows[mask]] = t.vals[mask]
    if np.any(diag <= 0.0) or np.any(b > 0.0) or np.any(c > 0.0):
        raise ValueError("expected positive diagonal and nonpositive bands")
    return diag, b, c


def ic0_pentadiagonal(a, band) -> IcFactors:
    """Incomplete Cholesky keeping exactly the sparsity pattern of A.

    Pivot recurrence: dt_i = a_i - b_i**2/dt_{i-1} - c_i**2/dt_{i-band}
    (terms with out-of-range indices dropped).  For a Stieltjes matrix all
    pivots stay positive; a nonpositive pivot raises IcBreakdownError.
    """
    return _ic_factor(a, band, modified=False)


def mic_pentadiagonal(a, band) -> IcFactors:
    """Modified incomplete Cholesky: dropped fill compensated on the diagonal.

    Pivot recurrence:

        dt_i = a_i - b_i (b_i + c_{i+band-1}) / dt_{i-1}
                   - c_i (c_i + b_{i-band+1}) / dt_{i-band}

    with out-of-range b/c read as zero.  The compensation makes the error
    matrix R = M - A have zero row sums and nonpositive eigenvalues, so the
    smallest eigenvalue of inv(M) A is exactly 1 (constant eigenvector).
    """
    return _ic_factor(a, band, modified=True)


def _ic_factor(a, band, modified):
    """Pivots of IC(0) or MIC: one recurrence, the MIC compensation terms
    zero for IC (exact, as b*(b + 0.0) == b*b).

    Row i reads row i-1 through b_i, then row i-band through c_i; pivots
    and sweeps run on the levels of that triangle without its zero entries
    (the 2N-1 anti-diagonals of the five-point grid).  Pivots stay bitwise
    the same (each starts from a positive a_i); in a sweep 0.0 * y_j could
    only flip a zero's sign or spread a non-finite y_j.  The first
    nonpositive pivot in row order is the loop's: rows read earlier rows.
    """
    diag, b, c = _pentadiagonal_bands(a, band)
    n = diag.size
    b_comp = np.zeros(n)  # c_{i+band-1}, the fill dropped beside b_i
    c_comp = np.zeros(n)  # b_{i-band+1}, the fill dropped beside c_i
    if modified and n > band:
        b_comp[1:n - band + 1] = c[band:]
        c_comp[band:] = b[1:n - band + 1]
    rows = np.tile(np.arange(n), 2)
    cols = rows - np.repeat((1, band), n)
    vals, nums = np.concatenate((b, c)), np.concatenate((b * (b + b_comp), c * (c + c_comp)))
    keep = vals != 0.0  # b_0 and c_i, i < band, are zero: kept columns are in range
    rows, cols, vals, nums = rows[keep], cols[keep], vals[keep], nums[keep]
    lower = _Sweep(n, rows, cols, vals, lower=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        dt = lower.pivots(diag, nums)
    bad = np.flatnonzero(dt <= 0.0)
    if bad.size:
        raise IcBreakdownError(f"ic-pivot: nonpositive pivot {dt[bad[0]]:g} at row {bad[0]}")
    return IcFactors(n, band, diag, b, c, dt, lower, _Sweep(n, cols, rows, vals, lower=False))


def apply_ic_solve(f: IcFactors, r):
    """Solve M s = r with M = (L D) inv(D) (L D)'.

    Forward sweep with (L D) (diagonal dt, strict lower = the b and c bands
    of A), scaling by dt, then the transposed backward sweep.
    """
    y = f.lower.solve(f.dt, r)
    y *= f.dt  # w = D y
    return f.upper.solve(f.dt, y)


def ic_matrix_apply(f: IcFactors, x):
    """Multiply M x for the factored M (used to check identities like M @ 1)."""
    u = f.upper.accumulate(f.dt * x, x) / f.dt
    return f.lower.accumulate(f.dt * u, u)


# ---------------------------------------------------------------------------
# Block incomplete factorization for block-tridiagonal matrices
# ---------------------------------------------------------------------------

@dataclass
class BlockFactors:
    blocks: _Blocks       # the partition of A; its coupling entries are the B_i
    d_blocks: np.ndarray  # approximate pivot blocks D_i, (nb, bs, bs)
    factors: list         # LU factorizations of the pivot blocks


def block_precond(a, block_size, sigma_rule="tridiagonal") -> BlockFactors:
    """Block incomplete factorization M = L inv(D) L' of a block-tridiagonal A
    (Concus, Golub & Meurant, *Block preconditioning for the conjugate
    gradient method*, SIAM J. Sci. Stat. Comput. 6, 1985).

    A must be block-tridiagonal at ``block_size`` (None means
    round(sqrt(n)); a five-point grid of side N is at block size N): an
    entry outside that band raises ValueError naming it.  Only the diagonal
    blocks A_i and the sub-diagonal blocks B_i (block i coupled to block
    i-1) are read, B_i straight from the partition's block-lower entries
    (``coupling``).  The pivot blocks follow D_i = A_i - B_i S_{i-1} B_i'
    where S_{i-1} approximates inv(D_{i-1}): with
    ``sigma_rule="tridiagonal"`` it is the tridiagonal part of the exact
    block inverse (computed column by column from solves against unit
    vectors); ``sigma_rule="full"`` keeps the whole inverse, which
    reproduces the exact block factorization and hence M = A.  A singular
    or non-finite pivot block raises IcBreakdownError naming it.
    """
    if sigma_rule not in ("tridiagonal", "full"):
        raise ValueError(f"unknown sigma rule {sigma_rule!r}")
    blocks = _Blocks(a, block_size, band=1)
    bs, d_blocks, factors = blocks.bs, blocks.diag.copy(), []
    rows, cols, vals = blocks.coupling  # at band 1, every one lies in some B_i
    for i, d_i in enumerate(d_blocks):
        if i:
            on = rows // bs == i
            sub = np.zeros((bs, bs))
            sub[rows[on] % bs, cols[on] % bs] = vals[on]
            d_i -= sub @ sigma @ sub.T
        try:
            factors.append(blocks.factor(d_i, i))
        except ValueError as exc:
            raise IcBreakdownError(f"block pivot failure at block {i}") from exc
        sigma = scipy.linalg.lu_solve(factors[-1], np.eye(bs))
        if sigma_rule == "tridiagonal":
            sigma = np.triu(np.tril(sigma, 1), -1)
    return BlockFactors(blocks, d_blocks, factors)


def apply_block_solve(f: BlockFactors, r):
    """Solve M s = r with M = L inv(D) L': a forward block sweep with L
    (pivot blocks D_i, sub-diagonal blocks B_i), a multiply by each D_i,
    then a backward block sweep with L', whose off-diagonal blocks B_i' are
    the transpose of the block-lower part of A."""
    y = f.blocks.forward(f.factors, r).reshape(-1, f.blocks.bs, 1)
    return f.blocks.backward(f.factors, (f.d_blocks @ y).ravel())


# ---------------------------------------------------------------------------
# Chebyshev polynomial preconditioner
# ---------------------------------------------------------------------------

@dataclass
class PolyPrecond:
    """Degree-(m-1) Chebyshev approximation C of inv(A) on [lmin, lmax].

    The preconditioned operator is p_m(A) = C(A) A = I - T_m(mu(A))/T_m(mu(0))
    with mu the affine map sending [lmin, lmax] to [-1, 1]; its spectrum lies
    in [1 - eps_m, 1 + eps_m] with eps_m = 1/T_m(mu(0)).
    """

    m: int
    lmin: float
    lmax: float
    t_mu0: np.ndarray   # T_k(mu(0)), k = 0..m
    gammas: np.ndarray  # expansion coefficients of C in second-kind polynomials

    @property
    def eps(self) -> float:
        return 1.0 / float(self.t_mu0[self.m])


def poly_precond_build(m, lmin, lmax) -> PolyPrecond:
    """Coefficients of the degree-(m-1) Chebyshev inverse approximation.

    All gammas lie in (0, 4/(lmax - lmin)) because the T_k(mu(0)) sequence
    is positive and strictly increasing.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (0.0 < lmin < lmax):
        raise ValueError("need 0 < lmin < lmax")
    span = lmax - lmin
    mu0 = (lmax + lmin) / span
    t = np.empty(m + 1)
    t[0] = 1.0
    t[1] = mu0
    for k in range(1, m):
        t[k + 1] = 2.0 * mu0 * t[k] - t[k - 1]
    gammas = np.empty(m)
    gammas[0] = 2.0 / (span * t[m])
    for k in range(1, m):
        gammas[k] = 4.0 * t[k] / (span * t[m])
    return PolyPrecond(m, lmin, lmax, t, gammas)


def _g_apply(p: PolyPrecond, a_apply):
    """Action of G = 2 mu(A): v -> (2 (lmax+lmin) v - 4 A v)/(lmax - lmin)."""
    span = p.lmax - p.lmin
    shift = 2.0 * (p.lmax + p.lmin) / span
    return lambda v: shift * v - 4.0 / span * a_apply(v)


def poly_apply_pmA(p: PolyPrecond, a, v):
    """Product p_m(A) v = v - T_m(mu(A)) v / T_m(mu(0)), at m matvec cost.

    T_m(mu(A)) v is built by the three-term recurrence y_0 = v,
    y_1 = G v / 2, y_{k+1} = G y_k - y_{k-1} on G = 2 mu(A).
    """
    g = _g_apply(p, operator(a)[0])
    v = np.asarray(v, dtype=float)
    y_prev = v
    y = 0.5 * g(v)
    for _ in range(1, p.m):
        y, y_prev = g(y) - y_prev, y
    return v - y / p.t_mu0[p.m]


def poly_apply_Cb(p: PolyPrecond, a, b):
    """Product C(A) b by the Clenshaw recurrence, at m - 1 matvec cost.

    y_{-1} = 0, y_0 = gamma_0 b, y_k = G y_{k-1} - y_{k-2} + gamma_k b;
    the result is y_{m-1}.
    """
    g = _g_apply(p, operator(a)[0])
    b = np.asarray(b, dtype=float)
    y_prev = np.zeros_like(b)
    y = p.gammas[0] * b
    for k in range(1, p.m):
        y, y_prev = g(y) - y_prev + p.gammas[k] * b, y
    return y


def poly_monomial_coeffs(m, lmin, lmax):
    """Monomial coefficients of p_m: p_m(x) = sum_i c[i] x**(m-i).

    Computed in exact rational arithmetic and returned as floats.  The
    coefficients are huge and of alternating sign even for modest m, which
    is exactly why the power basis is not used for evaluation; this routine
    exists to demonstrate that ill-conditioning.
    """
    lo, hi = Fraction(lmin), Fraction(lmax)
    mu = ((hi + lo) / (hi - lo), Fraction(-2) / (hi - lo))  # mu(x) = mu[0] + mu[1] x
    # Ascending-power coefficients of T_k(mu(x)) from T_-1 = T_1 = mu and T_0 = 1.
    t_prev = [*mu] + [Fraction(0)] * m
    t = [Fraction(1)] + [Fraction(0)] * (m + 1)
    for _ in range(m):
        t_prev, t = t, [2 * (mu[0] * c + mu[1] * s) - q
                        for c, s, q in zip(t, [0] + t[:-1], t_prev)]
    # p_m(x) = 1 - T_m(mu(x))/T_m(mu(0)); T_m(mu(0)) is the constant coefficient.
    return np.array([float(-c / t[0]) for c in reversed(t[1:m + 1])] + [0.0])


def solve_poly_pcg(a, b, m, lmin, lmax, x0=None, tol=1e-10, tol_kind="abs",
                   max_iter=None, callback=None) -> SolveReport:
    """CG on the polynomially preconditioned system p_m(A) x = C(A) b.

    Plain CG runs with the formal substitutions A <- p_m(A) (m matvecs per
    application) and b <- C(A) b (computed once by Clenshaw); the solution
    of the original system is unchanged.  History and stopping use the true
    residual of the *original* system, one extra matvec per iteration, so
    runs are comparable with other preconditioners.  If the supplied
    [lmin, lmax] fails to enclose the spectrum the preconditioned operator
    may be indefinite and the run can break down or diverge.
    """
    p = poly_precond_build(m, lmin, lmax)
    run = _Run(a, b, x0, tol, tol_kind, max_iter, callback=callback,
               extras={"transformed_residuals": [], "eps_m": p.eps})
    pm = lambda v: poly_apply_pmA(p, run.a_apply, v)
    r_t = poly_apply_Cb(p, run.a_apply, run.b) - pm(run.x)
    return _pcg(run, pm, r_t, None, "transformed_residuals", (), true_residual=True)
