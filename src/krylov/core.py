"""Dense vector/matrix primitives: norms, the zero test of the Krylov
processes, Givens rotations, Sturm bisection for symmetric tridiagonal
eigen-extremes, and spectral-radius estimation.

Vectors are 1-D arrays.  A matrix needed only through its action may be any
operand the solvers take, read by :func:`krylov.storage.operator`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .storage import operator

_ZERO = 1e-14


def _negligible(value, scale):
    """The zero test of every Krylov process: |value| <= 1e-14 * scale, with
    ``scale`` a norm in the units of ``value`` that the step already has,
    e.g. ||A u_i|| = hypot(beta_{i-1}, gamma_i, beta_i) for Lanczos' beta_i.
    Scaling A or b by a power of two scales both sides alike."""
    return abs(value) <= _ZERO * scale


def _unit(v):
    """v / ||v|| for the start vector v of a Krylov process; ValueError if v = 0."""
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("start vector must be nonzero")
    return v / nrm


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
    if not 0.0 < tol < math.inf:  # NaN too
        raise ValueError(f"tol must be positive and finite, got {tol}")
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


_POWER_SEED = 1234  # of the start vector: every estimate starts alike
_POWER_RTOL = 1e-5  # early exit once the tail estimate, checked every 20 steps, settles
_POWER_STEPS = 1000  # applications of G at most


def spectral_radius_estimate(g_apply, n):
    """Estimate the spectral radius of a linear map by norm growth.

    Runs the renormalized power recurrence ``v <- G v / ||G v||`` from a
    deterministic seeded start vector and returns the geometric mean of the
    step norms over the trailing half of the run, i.e. the limit estimate of
    ``||G^m v||**(1/m)``.  Using only norm growth makes the estimate robust
    to complex or plus/minus dominant eigenvalue pairs (the tail window is
    kept even-length so a two-cycle in the step norms averages out).
    ``g_apply`` is any operand (see ``a_norm``) on a space of dimension
    ``n``.  The run stops once the estimate settles, or after
    ``_POWER_STEPS`` applications.
    """
    apply_ = operator(g_apply)[0]
    v = np.random.default_rng(_POWER_SEED).standard_normal(n)
    v /= np.linalg.norm(v)
    logs = np.empty(_POWER_STEPS)  # log of each step norm, step m at m - 1
    previous = None
    for m in range(1, _POWER_STEPS + 1):
        w = apply_(v)
        s = math.sqrt(w @ w)  # np.linalg.norm of a 1-D float array, bit for bit
        if s <= 1e-300:
            return 0.0
        logs[m - 1] = math.log(s)
        v = w / s
        if m >= 100 and m % 20 == 0:
            window = (m // 2) & ~1  # even-length tail window
            estimate = math.exp(float(np.mean(logs[m - window:m])))
            if previous is not None and (abs(estimate - previous)
                                         <= _POWER_RTOL * max(estimate, 1e-30)):
                return estimate
            previous = estimate
    window = (_POWER_STEPS // 2) & ~1
    return math.exp(float(np.mean(logs[_POWER_STEPS - window:])))
