"""Dense vector/matrix primitives: norms, Givens rotations, Sturm bisection
for symmetric tridiagonal eigen-extremes, and spectral-radius estimation.

Vectors are 1-D arrays.  A matrix needed only through its action may be any
operand the solvers take, read by :func:`krylov.storage.operator`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .storage import operator


def vec_norm(v, kind="two"):
    """Vector norm: ``kind`` is one of "one", "two", "inf"."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("empty vector")
    if kind == "one":
        return float(np.sum(np.abs(v)))
    if kind == "two":
        return float(np.linalg.norm(v))
    if kind == "inf":
        return float(np.max(np.abs(v)))
    raise ValueError(f"unknown norm kind {kind!r}")


def a_norm(v, a_apply):
    """Energy norm sqrt(v' A v) induced by a symmetric positive definite A.

    ``a_apply`` is any operand of :func:`krylov.storage.operator`.

    Raises
    ------
    ValueError
        If the quadratic form comes out negative, i.e. A is not positive
        definite on this vector.
    """
    v = np.asarray(v, dtype=float)
    quad = float(v @ operator(a_apply)[0](v))
    if quad < 0.0:
        raise ValueError(f"quadratic form is negative ({quad:g}): matrix is not spd")
    return math.sqrt(quad)


def induced_matrix_norm(a, kind):
    """Induced matrix norm: max absolute column sum ("one") or row sum ("inf")."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("empty matrix")
    if kind == "one":
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if kind == "inf":
        return float(np.max(np.sum(np.abs(a), axis=1)))
    raise ValueError(f"unknown norm kind {kind!r}")


@dataclass(frozen=True)
class GivensRotation:
    """Plane rotation [c s; -s c] with c**2 + s**2 = 1."""

    c: float
    s: float

    def apply(self, w, beta):
        """Rotate the pair (w, beta): returns (c*w + s*beta, -s*w + c*beta)."""
        return self.c * w + self.s * beta, -self.s * w + self.c * beta


def make_givens(w, beta):
    """Rotation zeroing the second component of (w, beta).

    Returns ``(GivensRotation(c, s), r)`` with r = hypot(w, beta) >= 0 and
    [c s; -s c] @ [w, beta] = [r, 0].  The degenerate pair (0, 0) yields the
    identity rotation with r = 0.
    """
    r = math.hypot(w, beta)
    if r == 0.0:
        return GivensRotation(1.0, 0.0), 0.0
    return GivensRotation(w / r, beta / r), r


class _TridiagQR:
    """Updated QR factorization of a tridiagonal projection (MINRES, QMR).

    Step i takes column i of the tridiagonal matrix -- superdiagonal
    beta_{i-1}, diagonal gamma_i, subdiagonal beta_i -- and the basis
    vector u_i.  The rotations of steps i-2 and i-1 and a new one zeroing
    beta_i reduce the column to R; the direction p_i = (u_i - r_{i-2,i}
    p_{i-2} - r_{i-1,i} p_{i-1}) / r_ii then advances the iterate.  ``g``
    is the rotated right-hand side: |g| is the (quasi-)residual norm.
    """

    def __init__(self, g, n):
        self.g = g
        self.rots = []                         # rotations of steps i-2, i-1
        self.ps = [np.zeros(n), np.zeros(n)]   # p_{i-2}, p_{i-1}

    def step(self, x, u, beta_prev, gamma, beta):
        """The next iterate x + xi_i p_i, or None when r_ii vanishes."""
        rots, ps = self.rots, self.ps
        r_im1, r_ii = beta_prev, gamma
        p = u.copy()
        if len(rots) == 2:
            r_im2, r_im1 = rots[0].apply(0.0, beta_prev)
            p -= r_im2 * ps[0]
        if rots:
            r_im1, r_ii = rots[-1].apply(r_im1, gamma)
            p -= r_im1 * ps[1]
        rot, r_ii = make_givens(r_ii, beta)
        if r_ii == 0.0:
            return None
        p /= r_ii
        xi, self.g = rot.apply(self.g, 0.0)
        self.rots = rots[-1:] + [rot]
        self.ps = [ps[1], p]
        return x + xi * p


@dataclass
class TridiagSym:
    """Symmetric tridiagonal matrix stored as its diagonal and off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.offdiag = np.asarray(self.offdiag, dtype=float)
        if self.offdiag.shape != (max(self.diag.size - 1, 0),):
            raise ValueError("offdiag must have length len(diag) - 1")

    @property
    def n(self):
        return self.diag.size

    def to_dense(self):
        t = np.diag(self.diag)
        if self.offdiag.size:
            idx = np.arange(self.offdiag.size)
            t[idx, idx + 1] = self.offdiag
            t[idx + 1, idx] = self.offdiag
        return t

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        y = self.diag * x
        if self.offdiag.size:
            y[:-1] += self.offdiag * x[1:]
            y[1:] += self.offdiag * x[:-1]
        return y


def sturm_count(tri, x):
    """Number of eigenvalues of ``tri`` strictly below ``x``.

    Counts sign changes of the sequence of leading-minor pivots of T - x I
    (the Sturm sequence evaluated by the stable pivot recurrence).
    """
    d = tri.diag
    e = tri.offdiag
    scale = float(np.max(np.abs(d))) + (float(np.max(np.abs(e))) if e.size else 0.0)
    tiny = 1e-300 + 1e-30 * scale
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    for i in range(1, d.size):
        if abs(q) < tiny:
            q = -tiny
        q = (d[i] - x) - e[i - 1] * e[i - 1] / q
        if q < 0:
            count += 1
    return count


def sturm_extreme_eigs(tri, tol=1e-12):
    """Extreme eigenvalues of a symmetric tridiagonal matrix by bisection.

    The initial bracket comes from Gershgorin row sums; bisection on the
    Sturm count then pins the smallest and largest eigenvalues to within
    ``tol`` (absolute).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = tri.diag
    e = tri.offdiag
    n = d.size
    radius = np.zeros(n)
    if e.size:
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    if lo == hi:
        return lo, hi

    def bisect(target_count):
        # Smallest x with sturm_count(x) >= target_count.
        a, b = lo, hi + tol
        while b - a > tol:
            mid = 0.5 * (a + b)
            if sturm_count(tri, mid) >= target_count:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    lam_min = bisect(1)
    lam_max = bisect(n)
    return lam_min, lam_max


def spectral_radius_estimate(g_apply, n, m_max=1000, seed=1234, rtol=1e-5):
    """Estimate the spectral radius of a linear map by norm growth.

    Runs the renormalized power recurrence ``v <- G v / ||G v||`` from a
    deterministic seeded start vector and returns the geometric mean of the
    step norms over the trailing half of the run, i.e. the limit estimate of
    ``||G^m v||**(1/m)``.  Using only norm growth makes the estimate robust
    to complex or plus/minus dominant eigenvalue pairs (the tail window is
    kept even-length so a two-cycle in the step norms averages out).

    Parameters
    ----------
    g_apply : operand
        The matrix whose spectral radius is sought (see ``a_norm``).
    n : int
        Dimension of the space.
    m_max : int
        Maximum number of applications (at least 100).
    seed : int
        Seed for the start vector.
    rtol : float
        Early-exit tolerance on the stabilization of the tail estimate.
    """
    if m_max < 100:
        raise ValueError("m_max must be at least 100")
    apply_ = operator(g_apply)[0]
    v = np.random.default_rng(seed).standard_normal(n)
    v /= np.linalg.norm(v)
    logs = []
    previous = None
    for m in range(1, m_max + 1):
        w = apply_(v)
        s = float(np.linalg.norm(w))
        if s <= 1e-300:
            return 0.0
        logs.append(math.log(s))
        v = w / s
        if m >= 100 and m % 20 == 0:
            window = (m // 2) & ~1  # even-length tail window
            estimate = math.exp(float(np.mean(logs[-window:])))
            if previous is not None and abs(estimate - previous) <= rtol * max(estimate, 1e-30):
                return estimate
            previous = estimate
    window = (len(logs) // 2) & ~1
    return math.exp(float(np.mean(logs[-window:])))
