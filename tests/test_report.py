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


# Every solver behind the shared scaffold, passing tol, tol_kind and max_iter on.
KW_SOLVERS = {
    **SOLVERS,
    "iterate": lambda a, b, **kw: iterate(a, b, StationaryConfig("gauss_seidel", **kw)),
    "ssor_iterate": lambda a, b, **kw: ssor_iterate(a, b, 1.3, **kw),
    "semi_iterative": lambda a, b, **kw: semi_iterative(split(a, "jacobi"), b, -0.95, 0.95, **kw),
}


@pytest.mark.parametrize("name", sorted(KW_SOLVERS))
def test_negative_iteration_cap_is_rejected(name):
    inst = poisson_test(4)
    with pytest.raises(ValueError, match=r"^max_iter must be nonnegative, got -1$"):
        KW_SOLVERS[name](inst.a, inst.b, max_iter=-1)


@pytest.mark.parametrize("tol", [-1e-8, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("name", sorted(KW_SOLVERS))
def test_negative_or_nan_tolerance_is_rejected(name, tol):
    inst = poisson_test(4)
    with pytest.raises(ValueError, match=f"^tol must be nonnegative, got {tol}$"):
        KW_SOLVERS[name](inst.a, inst.b, tol=tol, max_iter=5)


@pytest.mark.parametrize("kw", [{"tol": -1e-8}, {"tol": np.nan}, {"tol_kind": "rel"},
                                {"max_iter": -1}], ids=["negative", "nan", "kind", "cap"])
@pytest.mark.parametrize("solve", [gmres, bicg, bicgstab], ids=["gmres", "bicg", "bicgstab"])
def test_a_bad_setting_is_rejected_before_any_work(solve, kw):
    calls = []

    class Counting:
        n = 4

        def matvec(self, x):
            calls.append("matvec")
            return 2.0 * x

        def rmatvec(self, x):
            calls.append("rmatvec")
            return 2.0 * x

    def c_apply(v):
        calls.append("c_apply")
        return v

    with pytest.raises(ValueError):
        solve(Counting(), np.ones(4), c_apply=c_apply, **kw)
    assert calls == []


@pytest.mark.parametrize("name", sorted(KW_SOLVERS))
def test_zero_iteration_cap_takes_no_step(name):
    inst = poisson_test(4)
    rep = KW_SOLVERS[name](inst.a, inst.b, tol=1e-8, tol_kind="abs", max_iter=0)
    assert (rep.status, rep.iterations, rep.history) == ("max_iter", 0, [np.linalg.norm(inst.b)])
    assert rep.x.tobytes() == np.zeros(inst.n).tobytes()


def test_gmres_with_a_restart_takes_no_step_at_a_zero_cap():
    inst = poisson_test(4)
    rep = gmres(inst.a, inst.b, max_iter=0, restart=5)
    assert (rep.status, rep.iterations, len(rep.history)) == ("max_iter", 0, 1)
    with pytest.raises(ValueError, match="restart must be at least 1"):
        gmres(inst.a, inst.b, max_iter=5, restart=0)


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


def _reused_buffer():
    """Poisson N=5 as a callable that returns the same array on every call."""
    a, buf = poisson_test(5).a, np.empty(25)

    def matvec(v):
        buf[...] = a.matvec(v)
        return buf
    return matvec


def _identity(v):
    return v


def _isolated(f):
    """``f`` on a copy of its input, its result copied: nothing can alias."""
    return lambda v: f(np.array(v)).copy()


_POISSON5_BOX = (4.0 - 4.0 * np.cos(np.pi / 6), 4.0 + 4.0 * np.cos(np.pi / 6))  # extreme eigenvalues
ALIASING_SOLVERS = {
    "cg": lambda a, b, x0, c, box: cg(a, b, x0=x0, max_iter=60),
    "pcg": lambda a, b, x0, c, box: pcg(a, b, c, x0=x0, max_iter=60),
    "solve_poly_pcg": lambda a, b, x0, c, box: solve_poly_pcg(a, b, 3, *box, x0=x0, max_iter=60),
    "minres": lambda a, b, x0, c, box: minres(a, b, x0=x0, max_iter=60),
}
ALIASING_OPERANDS = {  # () -> (operator, preconditioner, interval enclosing the spectrum)
    # pcg takes the scaling, so its run on the identity lasts more than one step
    "operator-returns-input": lambda: (_identity, lambda r: r * np.linspace(0.5, 2.0, 25),
                                       (0.5, 1.5)),
    "operator-reuses-buffer": lambda: (_reused_buffer(), None, _POISSON5_BOX),
    "preconditioner-returns-input": lambda: (_reused_buffer(), _identity, _POISSON5_BOX),
}


@pytest.mark.parametrize("operand", sorted(ALIASING_OPERANDS))
@pytest.mark.parametrize("name", sorted(ALIASING_SOLVERS))
def test_solvers_never_write_into_arrays_they_do_not_own(name, operand):
    op, c_apply, box = ALIASING_OPERANDS[operand]()
    b, x0 = np.linspace(1.0, 2.0, 25), np.linspace(-0.5, 0.5, 25)
    b_in, x0_in = b.copy(), x0.copy()
    solve = ALIASING_SOLVERS[name]
    want = solve(_isolated(op), b_in.copy(), x0_in.copy(), c_apply and _isolated(c_apply), box)
    rep = solve(op, b, x0, c_apply, box)
    assert _bits(rep) == _bits(want) and rep.iterations > 0
    assert b.tobytes() == b_in.tobytes() and x0.tobytes() == x0_in.tobytes()
