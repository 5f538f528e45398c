"""Per-call layer microbenchmarks and scipy reference kernels (traced run only).

Times are the median of repeated calls after one warm-up call.  Flop and
byte figures are computed from the stored format, not measured: one
multiply-add (2 flops) per stored entry, 8-byte values and indices, one x
read per stored entry, and y read and written once per stored entry for the
diagonal format (once per row for the row format and CSR).  No bandwidth or
roofline ratio is derived from them.
"""

import statistics

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

import krylov as K

import oracle
from tracing import perf

BUDGET_S = 0.25


def per_call(fn, budget=BUDGET_S, max_reps=500):
    """Median seconds per call of ``fn`` over at least three timed calls."""
    fn()
    times = []
    end = perf() + budget
    while len(times) < 3 or (perf() < end and len(times) < max_reps):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    return statistics.median(times)


def _stored(a):
    """Stored entries of a padded format (padding included)."""
    if isinstance(a, K.DiagCompressed):
        return int(sum(a.n - abs(int(nu)) for nu in a.offsets))
    return a.n * a.k


def _matvec_model(a):
    stored = _stored(a)
    if isinstance(a, K.DiagCompressed):
        return 2 * stored, 8 * (stored + stored + 2 * stored)
    return 2 * stored, 8 * (stored + stored + stored + a.n)


def _csr_bytes(a_csr):
    nnz, n = a_csr.nnz, a_csr.shape[0]
    return 8 * nnz + a_csr.indices.itemsize * nnz + a_csr.indptr.itemsize * (n + 1) + 8 * nnz + 8 * n


def _storage(a, a_csr, rng):
    x = rng.standard_normal(a.n)
    at = a_csr.T.tocsr()
    flops, nbytes = _matvec_model(a)
    return {
        "storage.matvec_us": per_call(lambda: a.matvec(x)) * 1e6,
        "storage.rmatvec_us": per_call(lambda: a.rmatvec(x)) * 1e6,
        "storage.matvec_flops": flops,
        "storage.matvec_bytes": nbytes,
        "ref.csr_matvec_us": per_call(lambda: a_csr @ x) * 1e6,
        "ref.csr_rmatvec_us": per_call(lambda: at @ x) * 1e6,
        "ref.csr_matvec_bytes": _csr_bytes(a_csr),
    }


def _triangular_pair(lower, upper, scale, rng):
    """scipy forward then backward triangular solve, as one preconditioner apply."""
    r = rng.standard_normal(lower.shape[0])

    def apply():
        y = spsolve_triangular(lower, r, lower=True)
        return spsolve_triangular(upper, y * scale, lower=False)

    return {"ref.spsolve_triangular_us": per_call(apply) * 1e6,
            "ref.spsolve_triangular_flops": 2 * (lower.nnz + upper.nnz)}


def poisson_kernels(a, N):
    """Matvecs, and the IC(0) factor pair M = (LD) inv(D) (LD)' solved by scipy."""
    rng = np.random.default_rng(0)
    out = _storage(a, oracle.poisson_csr(N), rng)
    f = K.ic0_pentadiagonal(a, N)
    ld = sp.diags([f.c[N:], f.b[1:], f.dt], [-N, -1, 0], format="csr")
    out.update(_triangular_pair(ld, ld.T.tocsr(), f.dt, rng))
    return out


def general_kernels(a):
    """Matvecs, the Gauss-Seidel sweep, and scipy on the (D + L, D + U) pair of A."""
    rng = np.random.default_rng(0)
    n = a.n
    a_csr = oracle.csr_from_triplets(K.to_triplets(a))
    out = _storage(a, a_csr, rng)
    gs = K.split(a, "gauss_seidel")
    r = rng.standard_normal(n)
    out["stationary.sweep_us"] = per_call(lambda: gs.m_solve(r)) * 1e6
    out.update(_triangular_pair(sp.tril(a_csr, format="csr"), sp.triu(a_csr, format="csr"),
                                a_csr.diagonal(), rng))
    return out


def stationary_kernels(a, N):
    """Poisson kernels plus the Gauss-Seidel sweep."""
    out = poisson_kernels(a, N)
    gs = K.split(a, "gauss_seidel")
    r = np.random.default_rng(0).standard_normal(N * N)
    out["stationary.sweep_us"] = per_call(lambda: gs.m_solve(r)) * 1e6
    return out


def cli_kernels(a, N):
    """Poisson kernels plus the CLI's diagnostics and MatrixMarket I/O."""
    out = poisson_kernels(a, N)
    t = K.to_triplets(a)
    text = K.write_matrix_market(t)
    out["stationary.diagnostics_s"] = per_call(lambda: K.diagnostics(a), max_reps=5)
    out["storage.mm_write_s"] = per_call(lambda: K.write_matrix_market(t), max_reps=20)
    out["storage.mm_read_s"] = per_call(lambda: K.read_matrix_market(text), max_reps=20)
    return out
