import math
import warnings

import numpy as np
import pytest
from conftest import make_spd

from krylov.cg import (assemble_tbar, cg, cg_basic, convergence_bound,
                       estimate_extremes_by_cg, factorize_aut, stopping_check)
from krylov.core import TridiagSym, sturm_extreme_eigs
from krylov.precond import pcg
from krylov.problems import hilbert, poisson_test
from krylov.report import residual_threshold
from krylov.storage import to_dense


def test_factorize_aut_identity_terminates_immediately():
    f = factorize_aut(np.eye(4), np.eye(4), np.ones(4))
    assert len(f.us) == 1
    assert f.gammas[0] == pytest.approx(1.0)


def test_factorize_aut_b_orthogonality(rng):
    a = make_spd(6, rng)
    f = factorize_aut(a, a, rng.standard_normal(6))
    u = np.column_stack(f.us)
    gram = u.T @ a @ u
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-8 * np.abs(np.diag(gram)).max()


def test_factorize_aut_reproduces_factorization(rng):
    a = np.diag([1.0, 2.0, 3.0])
    f = factorize_aut(a, a, np.array([1.0, 1.0, 1.0]))
    u = np.column_stack(f.us)
    m = len(f.us)
    t = np.zeros((m, m))
    for i in range(m):
        t[i, i] = f.gammas[i]
        if i + 1 < m:
            t[i, i + 1] = f.betas[i]
            t[i + 1, i] = 1.0
    np.testing.assert_allclose(a @ u, u @ t, atol=1e-12)


def test_factorize_aut_general_b(rng):
    # B = A**2 is spd and commutes with A: columns must be B-orthogonal
    a = make_spd(6, rng)
    b_op = a @ a
    f = factorize_aut(a, b_op, rng.standard_normal(6))
    u = np.column_stack(f.us)
    gram = u.T @ b_op @ u
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-7 * np.abs(np.diag(gram)).max()


def test_factorize_aut_stops_before_non_finite_step():
    # The unnormalized vectors grow like powers of 2**40 A and overflow after
    # 13 steps: no non-finite coefficient comes back, and numpy does not warn.
    inst = poisson_test(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = factorize_aut(2.0 ** 40 * to_dense(inst.a), np.eye(64), inst.b)
    assert len(f.us) == f.gammas.size == f.ds.size == f.betas.size + 1 == 13
    for seq in (f.gammas, f.betas, f.ds, np.concatenate(f.us)):
        assert np.all(np.isfinite(seq))


@pytest.mark.parametrize("a,b_op,u1", [
    (np.eye(3), np.zeros((3, 3)), np.ones(3)),
    (np.diag([1.0, 2.0, 3.0]), np.diag([1.0, -1.0, 0.0]), np.array([1.0, 1.0, 0.0])),
    (np.diag([1.0, 2.0]), -np.eye(2), np.array([1.0, 1.0])),
], ids=["zero", "indefinite", "negative"])
def test_factorize_aut_rejects_b_op_that_is_not_positive_definite(a, b_op, u1):
    with pytest.raises(ValueError, match="b_op is not positive definite"):
        factorize_aut(a, b_op, u1)


def test_cg_basic_overflow_is_a_quiet_breakdown():
    inst = poisson_test(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = cg_basic(2.0 ** 40 * to_dense(inst.a), inst.b, tol=1e-8, tol_kind="rel_to_b")
    assert (rep.status, rep.reason, rep.iterations) == ("breakdown", "non-finite", 14)


def test_cg_basic_identity_one_iteration(rng):
    b = rng.standard_normal(5)
    rep = cg_basic(np.eye(5), b, tol=1e-14)
    assert rep.converged and rep.iterations == 1


def test_cg_basic_exact_at_desk_scale(rng):
    a = make_spd(12, rng)
    b = rng.standard_normal(12)
    rep = cg_basic(a, b, tol=1e-13, tol_kind="rel_to_b", max_iter=12)
    x_star = np.linalg.solve(a, b)
    assert np.abs(rep.x - x_star).max() <= 1e-10


def test_cg_basic_breaks_down_on_indefinite(rng):
    a = np.diag([1.0, -1.0, 2.0])
    rep = cg_basic(a, np.array([1.0, 1.0, 1.0]), tol=0.0, max_iter=3)
    assert rep.status == "breakdown" and rep.reason == "not-spd"


def test_cg_matches_cg_basic_per_iterate(rng):
    for _ in range(20):
        n = int(rng.integers(4, 12))
        a = make_spd(n, rng)
        b = rng.standard_normal(n)
        xs1, xs2 = [], []
        cg_basic(a, b, tol=0.0, max_iter=n,
                 callback=lambda d: xs1.append(d["x"]))
        cg(a, b, tol=0.0, max_iter=n, callback=lambda d: xs2.append(d["x"]))
        for u, v in zip(xs1, xs2):
            assert np.abs(u - v).max() <= 1e-11 * max(1.0, np.abs(u).max())


def test_cg_is_pcg_without_a_preconditioner_bit_for_bit(rng):
    for _ in range(20):
        n = int(rng.integers(1, 30))
        a, b = make_spd(n, rng, lo=0.1, hi=10.0), rng.standard_normal(n)
        events = [], []
        rep_cg = cg(a, b, tol=1e-12, max_iter=2 * n, callback=events[0].append)
        rep_pcg = pcg(a, b, None, tol=1e-12, max_iter=2 * n, callback=events[1].append)
        assert rep_cg.x.tobytes() == rep_pcg.x.tobytes()
        assert np.array(rep_cg.history).tobytes() == np.array(rep_pcg.history).tobytes()
        assert (rep_cg.iterations, rep_cg.status) == (rep_pcg.iterations, rep_pcg.status)
        assert rep_cg.extras["recurrence_residuals"] == rep_pcg.extras["c_norms"]
        assert [(e["i"], e["x"].tobytes()) for e in events[0]] == \
            [(e["i"], e["x"].tobytes()) for e in events[1]]


def test_cg_hilbert_shifted_fast():
    inst = hilbert(10, shift=1.0)
    rep = cg(inst.a, inst.b, tol=1e-12, tol_kind="abs", max_iter=10)
    assert rep.converged and rep.iterations <= 10


def test_cg_hilbert_error_exceeds_residual():
    inst = hilbert(10)
    rep = cg(inst.a, inst.b, tol=1e-10, tol_kind="abs", max_iter=40)
    res = np.linalg.norm(inst.b - inst.a @ rep.x)
    err = np.linalg.norm(rep.x - inst.x_true)
    assert res <= 1e-10
    assert err / res >= 1e4


def test_cg_residual_orthogonality_and_conjugacy(rng):
    for _ in range(10):
        n = int(rng.integers(6, 16))
        a = make_spd(n, rng, lo=1.0, hi=10.0)
        b = rng.standard_normal(n)
        rs, ps = [b.copy()], []
        cg(a, b, tol=0.0, max_iter=min(n, 15),
           callback=lambda d: (rs.append(d["r"]), ps.append(d["p"])))
        floor = 1e-12 * np.linalg.norm(b)
        live_r = [k for k in range(len(rs)) if np.linalg.norm(rs[k]) > floor]
        for i in live_r:
            for j in (j for j in live_r if j < i):
                ri, rj = rs[i], rs[j]
                assert abs(ri @ rj) <= 1e-8 * max(np.linalg.norm(ri) * np.linalg.norm(rj), 1e-30)
        live_p = [k for k in range(len(ps)) if np.linalg.norm(ps[k]) > floor]
        for i in live_p:
            for j in (j for j in live_p if j < i):
                pi, pj = ps[i], ps[j]
                scale = np.linalg.norm(a @ pi) * np.linalg.norm(pj)
                assert abs(pi @ a @ pj) <= 1e-8 * max(scale, 1e-30)


def test_cg_krylov_nesting(rng):
    a = make_spd(10, rng)
    b = rng.standard_normal(10)
    rs = [b.copy()]
    cg(a, b, tol=0.0, max_iter=6, callback=lambda d: rs.append(d["r"]))
    for i in range(1, 7):
        krylov = np.column_stack([np.linalg.matrix_power(a, k) @ b for k in range(i + 1)])
        stacked = np.column_stack(rs[: i + 1])
        assert np.linalg.matrix_rank(np.column_stack([krylov, stacked]),
                                     tol=1e-8) == i + 1


def test_cg_energy_norm_monotone(rng):
    a = make_spd(12, rng, lo=0.5, hi=20.0)
    b = rng.standard_normal(12)
    x_star = np.linalg.solve(a, b)
    energies = []
    cg(a, b, tol=0.0, max_iter=12,
       callback=lambda d: energies.append((x_star - d["x"]) @ a @ (x_star - d["x"])))
    for e_prev, e_next in zip(energies, energies[1:]):
        assert e_next <= e_prev * (1.0 + 1e-10) + 1e-14


def test_assemble_tbar_single_step_rayleigh(rng):
    a = make_spd(6, rng)
    b = rng.standard_normal(6)
    rep = cg(a, b, tol=0.0, max_iter=1)
    tbar = assemble_tbar(rep)
    assert tbar.n == 1
    assert tbar.diag[0] == pytest.approx((b @ a @ b) / (b @ b))


def test_assemble_tbar_exact_termination_eigenvalues():
    a = np.diag([1.0, 4.0])
    b = np.array([1.0, 1.0])
    rep = cg(a, b, tol=0.0, max_iter=2)
    tbar = assemble_tbar(rep)
    lo, hi = sturm_extreme_eigs(tbar, tol=1e-13)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(4.0, abs=1e-9)


def test_tbar_extremes_after_25_steps_poisson20():
    inst = poisson_test(20)
    rep = cg(inst.a, inst.b, tol=0.0, max_iter=25)
    lo, hi = sturm_extreme_eigs(assemble_tbar(rep), tol=1e-12)
    assert lo == pytest.approx(4.4682e-2, abs=2e-3)
    assert hi == pytest.approx(7.8636, abs=2e-3)


def test_tbar_interlacing_extremes_monotone():
    inst = poisson_test(8)
    rep = cg(inst.a, inst.b, tol=0.0, max_iter=20)
    lam_min = 4.0 - 4.0 * math.cos(math.pi / 9.0)
    lam_max = 4.0 + 4.0 * math.cos(math.pi / 9.0)
    prev = (np.inf, -np.inf)
    for steps in (4, 8, 12, 16, 20):
        lo, hi = sturm_extreme_eigs(assemble_tbar(rep, steps=steps), tol=1e-12)
        assert lam_min - 1e-9 <= lo <= prev[0] + 1e-9
        assert prev[1] - 1e-9 <= hi <= lam_max + 1e-9
        prev = (lo, hi)


def test_stopping_check_kinds():
    stop, _ = stopping_check(np.array([1e-7]), 1e-6, "rel_to_b", b_norm=1.0)
    assert stop
    stop, bound = stopping_check(np.full(1, 1e-3), 1e-6, "abs",
                                 lambda_min_est=4.4677e-2)
    assert not stop
    assert bound == pytest.approx(1e-3 / 4.4677e-2, rel=1e-12)
    with pytest.raises(ValueError):
        stopping_check(np.ones(2), 1e-6, "abs", lambda_min_est=-1.0)
    with pytest.raises(ValueError):
        stopping_check(np.ones(2), 1e-6, "error_bound")


@pytest.mark.parametrize("kind", ["abs", "rel_to_b", "rel_to_r0"])
def test_stopping_check_shares_the_solvers_tol_kinds(kind):
    threshold = residual_threshold(1e-6, kind, 2.0, 0.5)
    assert stopping_check(0.99 * threshold, 1e-6, kind, b_norm=2.0, r0_norm=0.5) == (True, None)
    assert stopping_check(1.01 * threshold, 1e-6, kind, b_norm=2.0, r0_norm=0.5) == (False, None)


def test_stopping_check_rejects_unknown_kind_like_the_solvers():
    with pytest.raises(ValueError, match="unknown tol_kind 'bogus'"):
        stopping_check(np.ones(2), 1e-6, "bogus")


def test_stopping_error_bound_explains_hilbert_gap():
    inst = hilbert(10)
    rep = cg(inst.a, inst.b, tol=1e-10, tol_kind="abs", max_iter=40)
    r = inst.b - inst.a @ rep.x
    lam_min = np.linalg.eigvalsh(inst.a).min()
    _, bound = stopping_check(r, 1e-10, "abs", lambda_min_est=lam_min)
    err = np.linalg.norm(rep.x - inst.x_true)
    assert bound >= err
    assert bound / np.linalg.norm(r) >= 1e6


def test_convergence_bound_values():
    assert convergence_bound(1.0, 3) == 0.0
    assert convergence_bound(2.8, 6) <= 1e-6
    with pytest.raises(ValueError):
        convergence_bound(0.5, 1)


def test_energy_error_below_convergence_bound(rng):
    # spd instance built as a tridiagonal so the condition number comes from
    # the Sturm extremes, independently of any dense eigensolver
    diag = rng.uniform(2.0, 6.0, 14)
    off = rng.uniform(-1.0, 1.0, 13)
    tri = TridiagSym(diag, off)
    lo, hi = sturm_extreme_eigs(tri, tol=1e-12)
    assert lo > 0
    kappa = hi / lo
    a = tri.to_dense()
    b = rng.standard_normal(14)
    x_star = np.linalg.solve(a, b)
    e0 = (x_star @ a @ x_star)
    ratios = []
    cg(a, b, tol=0.0, max_iter=14,
       callback=lambda d: ratios.append(
           ((x_star - d["x"]) @ a @ (x_star - d["x"])) / e0))
    for i, ratio in enumerate(ratios, start=1):
        assert ratio <= convergence_bound(kappa, i) + 1e-12


def test_estimate_extremes_by_cg_brackets_spectrum():
    inst = poisson_test(12)
    lo, hi = estimate_extremes_by_cg(inst.a, inst.b, iters=25)
    lam_min = 4.0 - 4.0 * math.cos(math.pi / 13.0)
    lam_max = 4.0 + 4.0 * math.cos(math.pi / 13.0)
    assert lam_min <= lo <= lam_min + 0.05
    assert lam_max - 0.2 <= hi <= lam_max + 1e-9
