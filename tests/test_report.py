import numpy as np
import pytest

from krylov import (bicg, bicgstab, bidiag_solve, cg, cg_basic, cgs, gmres,
                    minres, pcg, qmr, qmr_alt, solve_poly_pcg)

SOLVERS = {
    "cg": cg, "cg_basic": cg_basic, "pcg": pcg, "minres": minres,
    "gmres": gmres, "bicg": bicg, "qmr": qmr, "qmr_alt": qmr_alt,
    "bidiag_solve": bidiag_solve, "cgs": cgs, "bicgstab": bicgstab,
    "solve_poly_pcg": lambda a, b, **kw: solve_poly_pcg(a, b, 3, 1.0, 3.0, **kw),
}


def _inf_in_b():
    b = np.ones(4)
    b[1] = np.inf
    return 2.0 * np.eye(4), b


def _nan_in_a():
    a = 2.0 * np.eye(4) + np.diag(np.full(3, -0.5), 1) + np.diag(np.full(3, -0.5), -1)
    a[2, 2] = np.nan
    return a, np.ones(4)


@pytest.mark.parametrize("problem", [_inf_in_b, _nan_in_a], ids=["inf-in-b", "nan-in-a"])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_non_finite_residual_is_a_breakdown(name, problem):
    a, b = problem()
    with np.errstate(invalid="ignore", over="ignore"):
        rep = SOLVERS[name](a, b, tol=1e-8, tol_kind="abs", max_iter=16)
    assert rep.status == "breakdown" and rep.reason == "non-finite"
    assert not rep.converged
    assert rep.iterations < 16
    assert not np.isfinite(rep.final_residual)
