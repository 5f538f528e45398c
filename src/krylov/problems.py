"""Generators for the test systems exercised throughout the package.

All generators return a :class:`ProblemInstance` holding the matrix (sparse
diagonal format where the structure warrants it, dense for the Hilbert
family), the right-hand side, and the exact solution when one is built in.
The five-point generators (Poisson, cavity, indefinite Kronecker sum) know
their five diagonals and write them straight into the diag format's grid
(:func:`_five_point`); only :func:`random_sparse` assembles from triplets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .storage import DiagCompressed, Triplets, build


@dataclass
class ProblemInstance:
    a: object
    b: np.ndarray
    x_true: np.ndarray | None
    label: str

    @property
    def n(self):
        return self.b.size


def _five_point(N, center, off):
    """The five-point stencil on an N x N grid, the first grid index fastest,
    as its diagonals (offsets -N, -1, 0, 1, N): ``center`` (a scalar or one
    value per node) on the main one, ``off`` on the others where the
    neighbour lies on the grid and +0.0 where it does not, as :func:`build`
    leaves it.  N = 1 has no neighbours: the main diagonal alone."""
    n = N * N  # node p = i + N j, i = p % N
    vals = np.zeros((n, 5), order="F")
    vals[N:, 0] = vals[:n - N, 4] = off  # offsets -N and N: p >= N and p < n - N
    vals[:, 1] = vals[:, 3] = off  # offsets -1 and 1: i > 0 and i < N - 1
    vals[::N, 1] = vals[N - 1::N, 3] = 0.0
    vals[:, 2] = center
    offsets = np.array([-N, -1, 0, 1, N], dtype=np.int64)
    if N == 1:
        return DiagCompressed(1, 1, vals[:, 2:3], offsets[2:3])
    return DiagCompressed(n, 5, vals, offsets)


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
    a = _five_point(N, 4.0, -1.0)
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
    [1, N-1] so both boundary regimes are present.  The matrix is written
    as its five diagonals by :func:`_five_point`.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    n = N * N
    h = 1.0 / (N + 1)
    nu = math.floor((1.0 - delta) / h + 1e-12)
    if not (1 <= nu <= N - 1):
        raise ValueError(f"outlet parameter gives nu={nu}, outside [1, {N - 1}]")
    scale = 1.0 / (h * h)
    i, j = np.arange(n) % N + 1, np.arange(n) // N + 1
    # Neumann faces: the right wall, the closed part of the bottom wall (the
    # outlet i > nu is Dirichlet p = 0) and the top wall.
    diag = 4.0 - (i == N) - ((j == 1) & (i <= nu)) - (j == N)
    b = np.where(i == 1, scale, 0.0)  # left wall: p(0, y) = 1
    a = _five_point(N, diag * scale, -scale)
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
    a = _five_point(N, 2.0, -1.0)
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


# Draws per jump-ahead block in random_sparse.  Larger blocks run slightly
# faster but leave more memory with the allocator: 2**16-draw blocks took the
# general-random2000 workload's set-up from 11.3-11.9 to 10.6-11.0 ms and
# raised its peak RSS from 69.0-69.1 to 71.5-72.2 MB (two 8 s runs each on
# a shared 2-vCPU host).
_LCG_BLOCK = 1 << 13


def _lcg_tables(size):
    """Jump-ahead tables of :class:`_Lcg`: s_{k+j} = a_j s_k + c_j mod 2**64.

    Entry j-1 holds a_j = a**j and c_j = c (1 + a + ... + a**(j-1)), for
    j = 1..size.  Doubling builds them: s_{m+j} = a_j (a_m s_k + c_m) + c_j.
    numpy's uint64 array arithmetic wraps mod 2**64.
    """
    a_tab = np.array([_Lcg.MULT], dtype=np.uint64)
    c_tab = np.array([_Lcg.INC], dtype=np.uint64)
    while a_tab.size < size:
        a_tab, c_tab = (np.concatenate([a_tab, a_tab * a_tab[-1]]),
                        np.concatenate([c_tab, a_tab * c_tab[-1] + c_tab]))
    return a_tab[:size], c_tab[:size]


def _accepted(t):
    """Which candidates t (ascending positions of draws below p_off) are
    accepted tests: a run of consecutive ones opens on a test, and an accepted
    test's successor is its value draw, so those an even distance from their
    run's first."""
    first = np.where(np.diff(t, prepend=-2) != 1, t, 0)
    np.maximum.accumulate(first, out=first)
    return ((t - first) & 1) == 0


def random_sparse(n: int, density: float, seed: int = 0) -> ProblemInstance:
    """Seeded random sparse matrix with the requested nonzero density.

    Every diagonal entry is stored; each off-diagonal cell is included with
    the probability p_off that makes the expected nonzero count
    density * n**2, with values uniform in [-1, 1).  The diagonal is then
    set to 1 + (absolute off-diagonal row sum), which enforces strict
    diagonal dominance and hence nonsingularity.  b = A @ ones.

    The same (n, density, seed) always produces the same matrix.  The draws
    come from one stream of the documented 64-bit LCG (:class:`_Lcg`) seeded
    with ``seed``.  The off-diagonal cells are visited row-major, the
    diagonal skipped; each cell takes one test draw u and, when u < p_off,
    one value draw w that makes the entry 2 w - 1.  The stream is produced
    in blocks by jump-ahead,

        s_{k+j} = a**j s_k + c (1 + a + ... + a**(j-1))  mod 2**64

    (Knuth, TAOCP Vol. 2, section 3.2.1; F. Brown, "Random number generation
    with arbitrary strides", Trans. Am. Nucl. Soc. 71, 1994), and the result
    is bitwise that of calling ``_Lcg.next_uniform`` cell by cell.  A block is
    one multiply, one add and one compare of raw states; its candidates (draws
    below p_off) and their successors, a look-ahead state included, are kept
    for one scan (:func:`_accepted`) that tells tests from value draws.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    target = density * n * n
    p_off = (target - n) / (n * n - n) if n > 1 else 0.0
    p_off = min(max(p_off, 0.0), 1.0)
    cells = n * (n - 1)
    a_tab, c_tab = _lcg_tables(_LCG_BLOCK + 1)
    state = np.uint64(seed & _Lcg.MASK)
    # A draw (state >> 11) / 2**53 is below p_off exactly when state >> 11 <
    # L = ceil(p_off 2**53), that is when state <= 2**11 L - 1 (2**64 - 1 at p_off = 1).
    bound = np.uint64(max(0, (math.ceil(p_off * 2.0 ** 53) << 11) - 1))
    t, w, ok = np.zeros(0, np.int64), np.zeros(0, np.uint64), np.zeros(0, bool)
    picked, after = [t], [w]
    # Tests are counted past the expected length (m short, again 2 m draws on,
    # where at least m are tests: each value draw but a first follows its test).
    drawn, need = 0, math.ceil(cells * (1.0 + p_off))
    draws = np.empty(_LCG_BLOCK + 1, np.uint64)
    while p_off:  # p_off = 0 draws nothing
        np.multiply(a_tab, state, out=draws)
        draws += c_tab
        state = draws[-2]
        c = (draws[:-1] <= bound).nonzero()[0]
        picked.append(c + drawn)
        after.append(draws[c + 1])  # a test's value draw, if it is accepted
        drawn += _LCG_BLOCK
        if drawn >= need:  # tests: the draws less the value draws among them
            picked, after = [t := np.concatenate(picked)], [w := np.concatenate(after)]
            ok = _accepted(t)
            short = cells - drawn + np.count_nonzero(ok & (t < drawn - 1))
            if short <= 0:
                break
            need = drawn + 2 * short
    del picked, after  # the candidates go once t and w hold the accepted tests
    t, w = t[ok], w[ok] >> np.uint64(11)
    cell = t - np.arange(t.size)  # a test's position less the value draws before it
    keep = np.count_nonzero(cell < cells)
    cell, vals = cell[:keep], 2.0 * (w[:keep].astype(float) / float(1 << 53)) - 1.0
    rows, j = np.divmod(cell, max(n - 1, 1))  # n = 1: no off-diagonal cell
    cols = j + (j >= rows)  # the j-th off-diagonal column of the row
    diag = 1.0 + np.bincount(rows, weights=np.abs(vals), minlength=n)
    idx = np.arange(n)
    a = build(Triplets(n, np.concatenate([rows, idx]), np.concatenate([cols, idx]),
                       np.concatenate([vals, diag])), "row")
    x_true = np.ones(n)
    return ProblemInstance(a, a.matvec(x_true), x_true,
                           f"random_sparse(n={n}, density={density}, seed={seed})")
