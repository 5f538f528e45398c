"""Correctness oracle for the benchmark, independent of the solvers under test.

Residuals and errors are computed with scipy.sparse, never with the
library's own kernels.  The Poisson matrix is rebuilt here as the Kronecker
sum kron(I, T) + kron(T, I); the random matrix, which only the library's
generator defines, is taken through ``to_triplets`` into a scipy CSR matrix.

Every check returns None on success or a one-line reason.  Thresholds are
fixed before any run and come from the repository's acceptance criteria
where one exists:

* true residual: ||b - A x|| <= 10 * tol * ||b||, one decade of allowance for
  the drift between a solver's recurrence residual (which it stops on) and
  the true residual.  This is the whole solve check: with b = A x*, the
  error x - x* is -A^{-1} r, so any bound on ||x - x*|| derived from r
  would hold whenever the residual check does;
* spectral radii: rho_J = cos(pi h), rho_GS = rho_J**2, the line-Jacobi
  radius cos(pi h) / (2 - cos(pi h)) and its square for line Gauss-Seidel,
  each within acceptance criteria 02/03's +-0.01; SOR radii within 1e-3 of
  Young's closed form;
* Chebyshev: ||x_j - x*|| / ||x*|| within acceptance criterion 04's factor 10
  of the a-priori bound 1/T_j(mu(1)).
"""

import math

import numpy as np
import scipy.sparse as sp

RESIDUAL_GAP = 10.0
RADIUS_TOL = 0.01
YOUNG_TOL = 1e-3
CHEB_FACTOR = 10.0


def poisson_csr(N):
    """Five-point Poisson matrix kron(I, T) + kron(T, I), T = tridiag(-1, 2, -1)."""
    t = sp.diags([-np.ones(N - 1), 2.0 * np.ones(N), -np.ones(N - 1)], [-1, 0, 1])
    eye = sp.identity(N)
    return (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()


def csr_from_triplets(t):
    """scipy CSR matrix of a ``krylov.storage.Triplets`` (duplicates summed)."""
    return sp.csr_matrix((t.vals, (t.rows, t.cols)), shape=(t.n, t.n))


class SolveCheck:
    """Checks the true residual of a SolveReport for b = A x*."""

    def __init__(self, a_csr, b, x_star, tol):
        self.a, self.b, self.x_star, self.tol = a_csr, b, x_star, tol

    def __call__(self, rep):
        x = rep.x
        if x.shape != self.b.shape or not np.all(np.isfinite(x)):
            return "iterate is not a finite vector of the right size"
        r = self.b - self.a @ x
        rel = float(np.linalg.norm(r) / np.linalg.norm(self.b))
        if not rel <= RESIDUAL_GAP * self.tol:
            return f"true residual {rel:.3e} > {RESIDUAL_GAP:g} * tol"
        return None


def young_sor_radius(omega, rho_j):
    """Young's SOR spectral radius for a consistently ordered matrix."""
    w_opt = 1.0 + (rho_j / (1.0 + math.sqrt(1.0 - rho_j * rho_j))) ** 2
    if omega >= w_opt:
        return omega - 1.0
    root = omega * rho_j + math.sqrt(max(omega * omega * rho_j * rho_j - 4.0 * (omega - 1.0), 0.0))
    return (root / 2.0) ** 2


def poisson_radius(method, N, omega=None):
    """Closed-form spectral radius of a stationary iteration on Poisson(N)."""
    c = math.cos(math.pi / (N + 1))
    if method == "sor":
        return young_sor_radius(omega, c)
    line = c / (2.0 - c)  # line (block) Jacobi with one grid line per block
    return {"jacobi": c, "gauss_seidel": c * c, "block_jacobi": line, "block_gs": line * line}[method]


class RadiusCheck:
    def __init__(self, expected, tol):
        self.expected, self.tol = expected, tol

    def __call__(self, rho):
        if rho is None or not abs(rho - self.expected) <= self.tol:
            return f"radius {rho} not within {self.tol:g} of {self.expected:.6f}"
        return None


def chebyshev_bound(alpha, beta, j):
    """a-priori error reduction 1/T_j(mu(1)) of the semi-iterative method."""
    mu1 = 1.0 + 2.0 * (1.0 - beta) / (beta - alpha)
    return 1.0 / math.cosh(j * math.acosh(mu1))


class ChebyshevCheck:
    """Residual check plus the a-priori Chebyshev error bound (zero start)."""

    def __init__(self, solve_check, alpha, beta):
        self.solve_check, self.alpha, self.beta = solve_check, alpha, beta

    def __call__(self, rep):
        err = self.solve_check(rep)
        if err:
            return err
        x_star = self.solve_check.x_star
        reduction = float(np.linalg.norm(rep.x - x_star) / np.linalg.norm(x_star))
        bound = chebyshev_bound(self.alpha, self.beta, rep.iterations)
        if not reduction <= CHEB_FACTOR * bound:
            return f"error reduction {reduction:.3e} > {CHEB_FACTOR:g} x bound {bound:.3e}"
        return None
