import pickle
import re

import numpy as np
import pytest

from krylov import (StationaryConfig, Triplets, bicg, bicgstab, bidiag_solve, build, cg,
                    cg_basic, cgs, gmres, iterate, iteration_matrix_applier, minres, pcg,
                    poisson_test, qmr, qmr_alt, random_sparse, semi_iterative,
                    solve_poly_pcg, split, ssor_iterate, storage, to_dense, to_triplets)

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


# Every solver behind the shared scaffold, each taking (a, b, **kw).  The
# stationary ones run their own splitting of a.
ALL_SOLVERS = {
    **SOLVERS,
    "iterate": lambda a, b, **kw: iterate(a, b, StationaryConfig("gauss_seidel", max_iter=40)),
    "ssor_iterate": lambda a, b, **kw: ssor_iterate(a, b, 1.3, max_iter=40),
    "semi_iterative": lambda a, b, **kw: semi_iterative(split(a, "jacobi"), b, -0.95, 0.95,
                                                        max_iter=40),
}


def _bits(rep):
    """Everything a report holds, as bytes: equal bytes mean bitwise-equal reports."""
    return pickle.dumps((rep.x.tobytes(), rep.iterations, rep.history, rep.status,
                         rep.reason, rep.extras))


@pytest.mark.parametrize("shape", [(16, 1), (15,), (4, 4)], ids=str)
@pytest.mark.parametrize("name", sorted(ALL_SOLVERS))
def test_right_hand_side_of_wrong_shape_is_rejected(name, shape):
    a = poisson_test(4).a  # n = 16
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        ALL_SOLVERS[name](a, np.ones(shape))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_callback_events_are_copies_and_change_nothing(name):
    inst = poisson_test(5)
    kw = dict(tol=1e-10, tol_kind="rel_to_b", max_iter=40)
    plain = _bits(SOLVERS[name](inst.a, inst.b, **kw))
    events = []
    assert _bits(SOLVERS[name](inst.a, inst.b, callback=events.append, **kw)) == plain
    assert [ev["i"] for ev in events] == list(range(1, len(events) + 1)) and events

    def vandal(ev):
        for v in ev.values():
            if isinstance(v, np.ndarray):
                v[...] = np.nan
    assert _bits(SOLVERS[name](inst.a, inst.b, callback=vandal, **kw)) == plain


def _with_duplicates(t):
    """The same matrix with every off-diagonal entry split into two halves."""
    off = t.rows != t.cols
    return Triplets(t.n, np.concatenate((t.rows, t.rows[off])), np.concatenate((t.cols, t.cols[off])),
                    np.concatenate((np.where(off, 0.5 * t.vals, t.vals), 0.5 * t.vals[off])))


TRIPLET_SETS = {
    "poisson": lambda: to_triplets(poisson_test(4).a),
    "poisson-duplicates": lambda: _with_duplicates(to_triplets(poisson_test(4).a)),
    "random-duplicates": lambda: _with_duplicates(to_triplets(random_sparse(16, 0.3, seed=5).a)),
}
STATIONARY_METHODS = ("jacobi", "gauss_seidel", "sor", "block_jacobi", "block_gs", "ssor")


@pytest.mark.parametrize("case", sorted(TRIPLET_SETS))
def test_triplets_solve_like_their_row_build(case):
    t = TRIPLET_SETS[case]()
    row = build(t, "row")
    b = row.matvec(np.linspace(1.0, 2.0, t.n))
    for name, solve in ALL_SOLVERS.items():
        assert _bits(solve(t, b, max_iter=30)) == _bits(solve(row, b, max_iter=30)), name
    v = np.linspace(-1.0, 1.0, t.n)
    for method in STATIONARY_METHODS:
        cfg = StationaryConfig(method, omega=1.2, block_size=4, max_iter=20)
        assert _bits(iterate(t, b, cfg)) == _bits(iterate(row, b, cfg)), method
        g_t, g_row = (iteration_matrix_applier(m, method, omega=1.2, block_size=4)
                      for m in (t, row))
        assert g_t(v).tobytes() == g_row(v).tobytes(), method


X0_SOLVERS = {
    **SOLVERS,
    "iterate": lambda a, b, x0: iterate(a, b, StationaryConfig("gauss_seidel", max_iter=40), x0=x0),
    "ssor_iterate": lambda a, b, x0: ssor_iterate(a, b, 1.3, max_iter=40, x0=x0),
    "semi_iterative": lambda a, b, x0: semi_iterative(split(a, "jacobi"), b, -0.95, 0.95,
                                                      max_iter=40, x0=x0),
}


@pytest.mark.parametrize("shape", [(16, 1), (15,)], ids=str)
@pytest.mark.parametrize("name", sorted(X0_SOLVERS))
def test_initial_guess_of_wrong_shape_is_rejected(name, shape):
    a = to_dense(poisson_test(4).a)  # n = 16; a dense A broadcasts an (n, 1) guess
    message = f"initial guess has shape {shape}, expected (16,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        X0_SOLVERS[name](a, np.ones(16), x0=np.zeros(shape))


@pytest.mark.parametrize("name", ["bicg", "qmr", "qmr_alt", "bidiag_solve", "solve_poly_pcg"])
def test_triplets_are_built_once_per_solve(name, monkeypatch):
    built, real = [], storage.build
    monkeypatch.setattr(storage, "build", lambda t, target: built.append(target) or real(t, target))
    t = to_triplets(poisson_test(4).a)
    SOLVERS[name](t, np.ones(t.n), max_iter=10)
    assert built == ["row"]


def test_bare_callable_has_no_transpose_for_bicg():
    with pytest.raises(ValueError, match="bicg needs the transpose action of the operator"):
        bicg(lambda x: 2.0 * x, np.ones(3))
