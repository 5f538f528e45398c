"""Sparse iterative linear solvers: padded sparse storage, stationary
iterations with Chebyshev acceleration, the CG family with incomplete
Cholesky / block / polynomial preconditioning, MINRES, and the
nonsymmetric Krylov suite (GMRES, Bi-CG, QMR, CGS, Bi-CGStab)."""

from .cg import (assemble_tbar, cg, cg_basic, convergence_bound,
                 estimate_extremes_by_cg, factorize_aut, stopping_check)
from .chebyshev import (cheb_T, cheb_U, estimate_interval,
                        minimax_error_bound, semi_iterative)
from .core import (GivensRotation, TridiagSym, a_norm, induced_matrix_norm,
                   make_givens, spectral_radius_estimate, sturm_extreme_eigs,
                   vec_norm)
from .nonsymmetric import (arnoldi, bicg, bicgstab, bidiag_solve,
                           bidiagonalize, cgs, gmres, qmr, qmr_alt)
from .precond import (apply_block_solve, apply_ic_solve, block_precond,
                      ic0_pentadiagonal, jacobi_preconditioner,
                      mic_pentadiagonal, pcg, poly_apply_Cb, poly_apply_pmA,
                      poly_monomial_coeffs, poly_precond_build,
                      solve_poly_pcg)
from .problems import (ProblemInstance, cavity_laplace, hilbert,
                       indefinite_kron, poisson_test, random_sparse)
from .report import SolveReport
from .stationary import (Splitting, StationaryConfig, diagnostics,
                         iteration_matrix_applier, iterate,
                         optimal_omega_estimate, split, ssor_iterate)
from .storage import (ColCompressed, DiagCompressed, RowCompressed, Triplets,
                      build, read_matrix_market, to_dense, to_triplets,
                      write_matrix_market)
from .symmetric import LanczosState, lanczos, minres

__all__ = [
    "ProblemInstance", "SolveReport", "Splitting", "StationaryConfig",
    "GivensRotation", "TridiagSym",
    "ColCompressed", "DiagCompressed", "RowCompressed", "Triplets",
    "LanczosState",
    "a_norm", "apply_block_solve", "apply_ic_solve", "arnoldi",
    "assemble_tbar", "bicg", "bicgstab", "bidiag_solve", "bidiagonalize",
    "block_precond", "build", "cavity_laplace", "cg", "cg_basic", "cgs",
    "cheb_T", "cheb_U", "convergence_bound", "diagnostics",
    "estimate_extremes_by_cg", "estimate_interval", "factorize_aut",
    "gmres", "hilbert",
    "ic0_pentadiagonal", "indefinite_kron", "induced_matrix_norm",
    "iterate", "iteration_matrix_applier", "jacobi_preconditioner",
    "lanczos", "make_givens", "mic_pentadiagonal", "minimax_error_bound", "minres",
    "optimal_omega_estimate", "pcg", "poisson_test", "poly_apply_Cb",
    "poly_apply_pmA", "poly_monomial_coeffs", "poly_precond_build", "qmr",
    "qmr_alt", "random_sparse", "read_matrix_market", "semi_iterative",
    "solve_poly_pcg", "spectral_radius_estimate", "split", "ssor_iterate",
    "stopping_check", "sturm_extreme_eigs", "to_dense", "to_triplets",
    "vec_norm", "write_matrix_market",
]
