"""Scaling A or b by a power of two is exact in floating point, so it must
change no status and no iteration count, and must scale x exactly: every
zero test compares a quantity with a norm in the same units."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krylov import (Triplets, bicg, bicgstab, bidiag_solve, build, cg, cgs, gmres,
                    jacobi_preconditioner, minres, pcg, poisson_test, qmr, qmr_alt,
                    random_sparse, to_triplets)

POISSON, RANDOM = poisson_test(8), random_sparse(60, 0.1, seed=3)
KW = dict(tol=1e-8, tol_kind="rel_to_b", max_iter=200)
SOLVERS = {  # name -> (problem, solver taking (a, b, **KW))
    "cg": (POISSON, cg),
    "pcg": (POISSON, lambda a, b, **kw: pcg(a, b, jacobi_preconditioner(a), **kw)),
    "minres": (POISSON, minres),
    "gmres": (RANDOM, gmres),
    "gmres-restart5": (RANDOM, functools.partial(gmres, restart=5)),
    "bicg": (RANDOM, bicg),
    "qmr": (RANDOM, qmr),
    "qmr_alt": (RANDOM, qmr_alt),
    "cgs": (RANDOM, cgs),
    "bicgstab": (RANDOM, bicgstab),
    "bidiag_solve": (RANDOM, bidiag_solve),
}


def _scaled(inst, s):
    t = to_triplets(inst.a)
    return build(Triplets(t.n, t.rows, t.cols, s * t.vals), "row")


@functools.lru_cache(maxsize=None)
def _unscaled(name):
    inst, solve = SOLVERS[name]
    return solve(_scaled(inst, 1.0), inst.b, **KW)


def _check_scaled(name, k, scale_a):
    inst, solve = SOLVERS[name]
    base, s = _unscaled(name), 2.0 ** k
    if scale_a:
        rep, x = solve(_scaled(inst, s), inst.b, **KW), base.x / s
    else:
        rep, x = solve(_scaled(inst, 1.0), s * inst.b, **KW), base.x * s
    assert (rep.status, rep.iterations) == (base.status, base.iterations)
    assert rep.x.tobytes() == x.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SOLVERS)), st.integers(-60, 60), st.booleans())
@example(name="minres", k=60, scale_a=False)
def test_power_of_two_scaling_changes_no_outcome(name, k, scale_a):
    _check_scaled(name, k, scale_a)


@pytest.mark.parametrize("k", [-60, 60])
@pytest.mark.parametrize("scale_a", [True, False], ids=["A", "b"])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_extreme_power_of_two_scaling_changes_no_outcome(name, scale_a, k):
    _check_scaled(name, k, scale_a)


# case -> (solver, problem, scale of A, scale of b), each with the false status
# that a zero test against a norm in other units reports
FALSE_STATUSES = {
    "minres-2^70b": (minres, POISSON, 1.0, 2.0 ** 70),          # converged at iteration 1
    "qmr-2^-70A": (qmr, POISSON, 2.0 ** -70, 1.0),              # converged at iteration 1
    "qmr_alt-2^-70A": (qmr_alt, POISSON, 2.0 ** -70, 1.0),      # converged at iteration 1
    "gmres-2^-70A": (gmres, POISSON, 2.0 ** -70, 1.0),          # breakdown at iteration 1
    "bicgstab-2^-70A": (bicgstab, POISSON, 2.0 ** -70, 1.0),    # breakdown at iteration 1
    "bidiag-2^70b": (bidiag_solve, POISSON, 1.0, 2.0 ** 70),    # breakdown at iteration 0
    "bidiag-2^-70A": (bidiag_solve, POISSON, 2.0 ** -70, 1.0),  # breakdown at iteration 0
    "bidiag-1e12b": (bidiag_solve, POISSON, 1.0, 1e12),         # converged at 4.3e-8
}


@pytest.mark.parametrize("case", sorted(FALSE_STATUSES))
def test_scaled_poisson_status_tells_the_truth(case):
    solve, inst, sa, sb = FALSE_STATUSES[case]
    a, b = _scaled(inst, sa), sb * inst.b
    rep = solve(a, b, **KW)
    assert rep.converged and rep.iterations > 1
    assert np.linalg.norm(b - a.matvec(rep.x)) <= 1e-8 * np.linalg.norm(b)
