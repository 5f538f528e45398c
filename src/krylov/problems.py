"""Generators for the test systems exercised throughout the package.

All generators return a :class:`ProblemInstance` holding the matrix (sparse
diagonal format where the structure warrants it, dense for the Hilbert
family), the right-hand side, and the exact solution when one is built in.
"""

import math
from dataclasses import dataclass

import numpy as np

from .storage import Triplets, build


@dataclass
class ProblemInstance:
    a: object
    b: np.ndarray
    x_true: np.ndarray | None
    label: str

    @property
    def n(self):
        return self.b.size


def _kron_sum(N, t_diag):
    """A = T (x) I_N + I_N (x) T, T = tridiag(-1, t_diag, -1), in diag format.

    This is the five-point stencil with center 2 t_diag on an N x N grid,
    the first grid index fastest.
    """
    center = 2.0 * t_diag
    rows, cols, vals = [], [], []
    for j in range(1, N + 1):
        for i in range(1, N + 1):
            p = (j - 1) * N + (i - 1)
            rows.append(p)
            cols.append(p)
            vals.append(center)
            if i > 1:
                rows.append(p)
                cols.append(p - 1)
                vals.append(-1.0)
            if i < N:
                rows.append(p)
                cols.append(p + 1)
                vals.append(-1.0)
            if j > 1:
                rows.append(p)
                cols.append(p - N)
                vals.append(-1.0)
            if j < N:
                rows.append(p)
                cols.append(p + N)
                vals.append(-1.0)
    return build(Triplets(N * N, rows, cols, vals), "diag")


def poisson_test(N: int) -> ProblemInstance:
    """Five-point Poisson model problem on the unit square.

    Discretizing -lap(u) = x + y with zero boundary values on an N x N
    interior grid with step h = 1/(N+1), after scaling by h**2, gives the
    N**2 x N**2 system with matrix

        A = T_N (x) I_N + I_N (x) T_N,      T_N = tridiag(-1, 2, -1),

    and right-hand side b = h**3 * (i + j) ordered with the first grid index
    fastest: (u_11, ..., u_N1, ..., u_1N, ..., u_NN).  A is pentadiagonal
    with offsets {-N, -1, 0, 1, N} and is a Stieltjes matrix.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    n = N * N
    h = 1.0 / (N + 1)
    a = _kron_sum(N, 2.0)
    ij = np.add.outer(np.arange(1, N + 1), np.arange(1, N + 1))  # [j, i] -> i + j
    b = (h ** 3) * ij.reshape(n).astype(float)
    return ProblemInstance(a, b, None, f"poisson(N={N})")


def cavity_laplace(N: int, delta: float) -> ProblemInstance:
    """Pressure equation for flow through a porous cavity with outlet width delta.

    Five-point discretization of -lap(p) = 0 on the unit square, step
    h = 1/(N+1), with p = 1 on the left wall, p = 0 on the bottom-right
    outlet segment x in (1-delta, 1), and homogeneous Neumann conditions
    elsewhere.  Ghost nodes are eliminated: a Neumann face replaces the
    ghost value with the adjacent interior one, lowering the diagonal
    coefficient from 4 to 3 (2 in corners), while Dirichlet data moves to
    the right-hand side.  Rows keep the 1/h**2 scaling of the stencil.

    The number of Neumann nodes on the bottom wall is nu = floor((1-delta)/h),
    i.e. the count of grid abscissae with i*h <= 1 - delta; it must land in
    [1, N-1] so both boundary regimes are present.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    n = N * N
    h = 1.0 / (N + 1)
    nu = math.floor((1.0 - delta) / h + 1e-12)
    if not (1 <= nu <= N - 1):
        raise ValueError(f"outlet parameter gives nu={nu}, outside [1, {N - 1}]")
    scale = 1.0 / (h * h)
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    for j in range(1, N + 1):
        for i in range(1, N + 1):
            p = (j - 1) * N + (i - 1)
            diag = 4.0
            if i > 1:
                rows.append(p)
                cols.append(p - 1)
                vals.append(-scale)
            else:
                b[p] += scale  # left wall: p(0, y) = 1
            if i < N:
                rows.append(p)
                cols.append(p + 1)
                vals.append(-scale)
            else:
                diag -= 1.0  # right wall Neumann
            if j > 1:
                rows.append(p)
                cols.append(p - N)
                vals.append(-scale)
            elif i <= nu:
                diag -= 1.0  # bottom wall, closed part: Neumann
            # bottom-right outlet (i > nu): Dirichlet p = 0, nothing to add
            if j < N:
                rows.append(p)
                cols.append(p + N)
                vals.append(-scale)
            else:
                diag -= 1.0  # top wall Neumann
            rows.append(p)
            cols.append(p)
            vals.append(diag * scale)
    a = build(Triplets(n, rows, cols, vals), "diag")
    return ProblemInstance(a, b, None, f"cavity(N={N}, delta={delta})")


def hilbert(n: int, shift: float = 0.0) -> ProblemInstance:
    """Hilbert matrix a_ij = 1/(i+j-1), optionally diagonally shifted, kept dense.

    The right-hand side is the row-sum vector so the exact solution is the
    all-ones vector.  The unshifted matrix is famously ill-conditioned
    (||inv(A)|| ~ 1e13 at n = 10); shift = 1 brings the condition number
    down to about 2.8.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    idx = np.arange(1, n + 1)
    a = 1.0 / np.add.outer(idx, idx - 1)
    if shift:
        a = a + shift * np.eye(n)
    x_true = np.ones(n)
    return ProblemInstance(a, a @ x_true, x_true, f"hilbert(n={n}, shift={shift})")


def indefinite_kron(N: int) -> ProblemInstance:
    """Symmetric indefinite Kronecker-sum system.

    A = T (x) I_N + I_N (x) T with T the N x N tridiagonal matrix with unit
    diagonal and -1 off-diagonals; b = A @ ones so the exact solution is the
    all-ones vector.  The spectrum of A straddles zero.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    n = N * N
    a = _kron_sum(N, 1.0)
    x_true = np.ones(n)
    return ProblemInstance(a, a.matvec(x_true), x_true, f"indefinite_kron(N={N})")


class _Lcg:
    """64-bit linear congruential generator (Knuth MMIX multiplier).

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64;
    uniform doubles take the top 53 bits.  Fully specified here so any other
    implementation can reproduce the same matrices from the same seed.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_uniform(self) -> float:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return (self.state >> 11) / float(1 << 53)


def random_sparse(n: int, density: float, seed: int = 0) -> ProblemInstance:
    """Seeded random sparse matrix with the requested nonzero density.

    Every diagonal entry is stored; each off-diagonal cell is included with
    the probability that makes the expected nonzero count density * n**2,
    with values uniform in [-1, 1).  The diagonal is then set to
    1 + (absolute off-diagonal row sum), which enforces strict diagonal
    dominance and hence nonsingularity.  b = A @ ones.

    The same (n, density, seed) always produces the same matrix; the cell
    scan order is row-major and the generator is the documented 64-bit LCG.
    """
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    lcg = _Lcg(seed)
    target = density * n * n
    p_off = (target - n) / (n * n - n) if n > 1 else 0.0
    p_off = min(max(p_off, 0.0), 1.0)
    rows, cols, vals = [], [], []
    offdiag_abs = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if lcg.next_uniform() < p_off:
                v = 2.0 * lcg.next_uniform() - 1.0
                rows.append(i)
                cols.append(j)
                vals.append(v)
                offdiag_abs[i] += abs(v)
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(1.0 + offdiag_abs[i])
    a = build(Triplets(n, rows, cols, vals), "row")
    x_true = np.ones(n)
    return ProblemInstance(a, a.matvec(x_true), x_true,
                           f"random_sparse(n={n}, density={density}, seed={seed})")
