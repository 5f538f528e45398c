import numpy as np
import pytest
from conftest import (make_general, make_spd, make_symmetric_indefinite, poisson_dense,
                      with_true_residuals)
from hypothesis import given, settings
from hypothesis import strategies as st

from krylov.cg import cg
from krylov.chebyshev import semi_iterative
from krylov.core import _negligible, make_givens
from krylov.nonsymmetric import (BiLanczosState, arnoldi, bicg, bicgstab,
                                 bidiag_solve, bidiagonalize, cgs, gmres, qmr,
                                 qmr_alt)
from krylov.precond import jacobi_preconditioner, pcg
from krylov.problems import hilbert, poisson_test, random_sparse
from krylov.report import _Run
from krylov.stationary import Splitting, split
from krylov.symmetric import minres
from krylov.storage import Triplets, to_dense, to_triplets


def test_arnoldi_identity_stops_immediately(rng):
    u1 = rng.standard_normal(5)
    u1 /= np.linalg.norm(u1)
    basis = arnoldi(np.eye(5), u1, 5)
    assert basis.invariant_at == 1
    assert basis.h.shape == (2, 1)


def test_arnoldi_symmetric_gives_tridiagonal(rng):
    a = make_symmetric_indefinite(12, rng)
    u1 = rng.standard_normal(12)
    u1 /= np.linalg.norm(u1)
    basis = arnoldi(a, u1, 12)
    h = basis.h
    for i in range(h.shape[1]):
        for j in range(max(i - 1, 0)):
            assert abs(h[j, i]) <= 1e-8


def test_arnoldi_factorization_residual(rng):
    a = rng.standard_normal((12, 12))
    u1 = rng.standard_normal(12)
    u1 /= np.linalg.norm(u1)
    basis = arnoldi(a, u1, 12)
    u = np.column_stack(basis.us)
    m = basis.h.shape[1]
    resid = a @ u[:, :m] - u @ basis.h[: u.shape[1], :]
    assert np.abs(resid).max() <= 1e-9 * np.abs(a).max()
    gram = u.T @ u
    assert np.abs(gram - np.eye(u.shape[1])).max() <= 1e-8


def test_gmres_identity_one_iteration(rng):
    b = rng.standard_normal(6)
    rep = gmres(np.eye(6), b, tol=1e-12, tol_kind="abs")
    assert rep.converged and rep.iterations == 1


def test_gmres_monotone_and_exact_on_random_sparse():
    inst = random_sparse(100, 0.04, seed=1)
    rep = gmres(inst.a, inst.b, tol=1e-10, tol_kind="rel_to_b", max_iter=100)
    assert rep.converged
    h = rep.history
    for prev, nxt in zip(h, h[1:]):
        assert nxt <= prev * (1.0 + 1e-12) + 1e-12 * h[0]
    assert np.linalg.norm(inst.b - inst.a.matvec(rep.x)) <= 1e-9 * np.linalg.norm(inst.b)


def test_gmres_residual_identity_at_checkpoints():
    inst = random_sparse(60, 0.08, seed=4)
    for i in (3, 7, 12):
        rep = gmres(inst.a, inst.b, tol=0.0, tol_kind="abs", max_iter=i)
        true = np.linalg.norm(inst.b - inst.a.matvec(rep.x))
        assert abs(rep.history[-1] - true) <= 1e-8 * max(true, 1e-30)


def test_gmres_restart_converges_no_faster(rng):
    a = make_general(20, rng, contraction=0.8)
    b = rng.standard_normal(20)
    full = gmres(a, b, tol=1e-10, tol_kind="rel_to_b", max_iter=200)
    restarted = gmres(a, b, tol=1e-10, tol_kind="rel_to_b", max_iter=400, restart=5)
    assert full.converged and restarted.converged
    assert restarted.iterations >= full.iterations


def test_gmres_breakdown_on_singular_inconsistent():
    a = np.diag([1.0, 0.0])
    rep = gmres(a, np.array([1.0, 1.0]), tol=1e-8, tol_kind="rel_to_b", max_iter=5)
    assert rep.status == "breakdown"


def test_bilanczos_reduces_to_lanczos_on_symmetric(rng):
    a = make_symmetric_indefinite(10, rng)
    r0 = rng.standard_normal(10)
    state = BiLanczosState(a, r0)
    us, ws = [state.u_curr.copy()], [state.w_curr.copy()]
    for _ in range(9):
        if state.a_half()[2] or state.at_half():
            break
        us.append(state.u_curr.copy())
        ws.append(state.w_curr.copy())
    for u, w in zip(us, ws):
        assert np.abs(u - w / np.linalg.norm(w) * np.linalg.norm(u)).max() <= 1e-8


def test_bilanczos_biorthogonality(rng):
    a = rng.standard_normal((10, 10)) + 3.0 * np.eye(10)
    state = BiLanczosState(a, rng.standard_normal(10))
    us, ws = [state.u_curr.copy()], [state.w_curr.copy()]
    for _ in range(9):
        if state.a_half()[2] or state.at_half():
            break
        us.append(state.u_curr.copy())
        ws.append(state.w_curr.copy())
    u = np.column_stack(us)
    w = np.column_stack(ws)
    assert np.abs(w.T @ u - np.eye(u.shape[1])).max() <= 1e-6


def test_bilanczos_serious_breakdown_detected():
    a = np.array([[1.0, 0.0], [1.0, 1.0]])
    state = BiLanczosState(a, np.array([1.0, 0.0]))
    assert not state.a_half()[2]
    assert state.at_half() == "serious_breakdown"


def test_bicg_equals_cg_on_spd(rng):
    a = make_spd(12, rng)
    b = rng.standard_normal(12)
    xs_cg, xs_bicg = [], []
    rs_hat, rs, ps, ps_hat = [], [], [], []
    cg(a, b, tol=0.0, max_iter=10, callback=lambda d: xs_cg.append(d["x"]))
    bicg(a, b, tol=0.0, tol_kind="abs", max_iter=10,
         callback=lambda d: (xs_bicg.append(d["x"]), rs_hat.append(d["r_hat"]),
                             rs.append(d["r"]), ps.append(d["p"]),
                             ps_hat.append(d["p_hat"])))
    for u, v in zip(xs_cg, xs_bicg):
        assert np.abs(u - v).max() <= 1e-10
    for r, rh in zip(rs, rs_hat):
        assert np.abs(r - rh).max() <= 1e-10
    for q, qh in zip(ps, ps_hat):
        assert np.abs(q - qh).max() <= 1e-10


def test_bicg_finite_termination(rng):
    a = make_general(15, rng)
    b = rng.standard_normal(15)
    rep = bicg(a, b, tol=1e-10, tol_kind="rel_to_b", max_iter=15)
    assert np.linalg.norm(b - a @ rep.x) <= 1e-9 * np.linalg.norm(b)


def test_bicg_direction_biconjugacy(rng):
    a = make_general(10, rng)
    b = rng.standard_normal(10)
    ps, ps_hat = [], []
    bicg(a, b, tol=0.0, tol_kind="abs", max_iter=8,
         callback=lambda d: (ps.append(d["p"]), ps_hat.append(d["p_hat"])))
    for i in range(1, len(ps)):
        for j in range(i):
            scale = np.linalg.norm(a @ ps[i]) * np.linalg.norm(ps_hat[j])
            assert abs(ps_hat[j] @ a @ ps[i]) <= 1e-7 * max(scale, 1e-30)


def test_bicg_oscillates_on_ill_conditioned_instance(rng):
    q1, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    q2, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    a = q1 @ np.diag(np.logspace(0, 5, 40)) @ q2.T
    b = rng.standard_normal(40)
    rep = bicg(a, b, tol=1e-10, tol_kind="rel_to_b", max_iter=200)
    assert max(rep.history) / rep.history[0] > 10.0


def test_qmr_equals_minres_on_symmetric(rng):
    a = make_symmetric_indefinite(12, rng)
    b = rng.standard_normal(12)
    xs_m, xs_q = [], []
    minres(a, b, tol=0.0, tol_kind="abs", max_iter=10,
           callback=lambda d: xs_m.append(d["x"]))
    qmr(a, b, tol=0.0, tol_kind="abs", max_iter=10,
        callback=lambda d: xs_q.append(d["x"]))
    for u, v in zip(xs_m, xs_q):
        assert np.abs(u - v).max() <= 1e-8 * max(1.0, np.abs(u).max())


def test_qmr_quasi_residual_bounds_and_smoothness(rng):
    a = make_general(20, rng, contraction=0.9)
    b = rng.standard_normal(20)
    rep_q, true = with_true_residuals(qmr, a, b, tol=1e-10, tol_kind="rel_to_b", max_iter=20)
    for i, (g, t) in enumerate(zip(rep_q.history, true)):
        assert g >= t / np.sqrt(i + 1.0) - 1e-12 * true[0]
    rep_b = bicg(a, b, tol=1e-10, tol_kind="rel_to_b", max_iter=20)
    ups_q = sum(1 for x, y in zip(rep_q.history, rep_q.history[1:]) if y > x)
    ups_b = sum(1 for x, y in zip(rep_b.history, rep_b.history[1:]) if y > x)
    assert ups_q <= max(ups_b, 1)


def test_qmr_quasi_residual_vs_gmres(rng):
    # GMRES minimizes the true residual over the same variety, and the
    # quasi-residual under-reports it by at most the basis norm, which for
    # i+1 unit columns is bounded by sqrt(i+1)
    a = make_general(15, rng, contraction=0.8)
    b = rng.standard_normal(15)
    rep_q = qmr(a, b, tol=0.0, tol_kind="abs", max_iter=12)
    rep_g = gmres(a, b, tol=0.0, tol_kind="abs", max_iter=12)
    for i, (gq, gg) in enumerate(zip(rep_q.history, rep_g.history)):
        assert gq >= gg / np.sqrt(i + 1.0) - 1e-10 * rep_g.history[0]


def test_qmr_identity_one_step(rng):
    b = rng.standard_normal(4)
    rep = qmr(np.eye(4), b, tol=1e-12, tol_kind="abs")
    assert rep.converged and rep.iterations == 1


def test_qmr_alt_matches_qmr(rng):
    a = make_general(12, rng)
    b = rng.standard_normal(12)
    xs1, xs2 = [], []
    qmr(a, b, tol=0.0, tol_kind="abs", max_iter=9,
        callback=lambda d: xs1.append(d["x"]))
    qmr_alt(a, b, tol=0.0, tol_kind="abs", max_iter=9,
            callback=lambda d: xs2.append(d["x"]))
    for u, v in zip(xs1, xs2):
        assert np.abs(u - v).max() <= 1e-8 * max(1.0, np.abs(u).max())


def test_qmr_alt_lu_breakdown_where_qmr_proceeds():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, 0.0])
    rep_alt = qmr_alt(a, b, tol=1e-10, tol_kind="abs", max_iter=2)
    assert rep_alt.status == "breakdown" and rep_alt.reason == "lu_breakdown"
    rep = qmr(a, b, tol=1e-10, tol_kind="abs", max_iter=2)
    assert rep.converged


def test_qmr_alt_identity_one_step(rng):
    b = rng.standard_normal(4)
    rep = qmr_alt(np.eye(4), b, tol=1e-12, tol_kind="abs")
    assert rep.converged and rep.iterations == 1


def _qmr_alt_reference(a, b, tol=1e-8, tol_kind="rel_to_b", max_iter=None, callback=None):
    """QMR on the LU-normalized two-sided factorization, written as one loop
    with its own rotation cascade: the reference for qmr_alt, which runs the
    quasi-minimal loop of minres and qmr on :class:`LUBiLanczosState`."""
    run = _Run(a, b, None, tol, tol_kind, max_iter, transpose="qmr_alt", callback=callback)
    a_apply, at_apply, x = run.a_apply, run.at_apply, run.x
    beta0 = run.r_norm
    if run.stop(beta0):
        return run.finish(x, 0)
    u = run.r / beta0
    v, q, z = u.copy(), u.copy(), u.copy()
    f, g = 1.0, beta0
    p_prev, rot_prev = np.zeros(u.size), None
    for i in range(1, run.max_iter + 1):
        q_hat = a_apply(q)
        num = float(z @ q_hat)
        if _negligible(num, float(np.linalg.norm(z)) * float(np.linalg.norm(q_hat))):
            return run.breakdown(x, i - 1, "lu_breakdown")
        ell = num / f
        u_hat = q_hat - ell * u
        alpha = float(np.linalg.norm(u_hat))
        r_im1, r_ii = 0.0, ell
        p = q.copy()
        if i > 1:
            r_im1, r_ii = rot_prev.apply(0.0, ell)
            p -= r_im1 * p_prev
        rot, r_ii = make_givens(r_ii, alpha)
        if r_ii == 0.0:
            return run.breakdown(x, i - 1, "singular-R")
        p /= r_ii
        xi, g = rot.apply(g, 0.0)
        x = x + xi * p
        run.record(abs(g), i, x=x, g=g)
        invariant = _negligible(alpha, float(np.linalg.norm(q_hat)))
        exact = invariant and _negligible(g, beta0)
        if run.stop(run.history[-1], exact):
            return run.finish(x, i, exact=exact)
        if invariant:
            return run.breakdown(x, i, "invariant_subspace")
        u = u_hat / alpha
        v = (at_apply(z) - ell * v) / alpha
        f_next = float(v @ u)
        if _negligible(f_next, 1.0):
            return run.breakdown(x, i, "serious_breakdown")
        phi = alpha * f_next / (ell * f)
        q = u - phi * q
        z = v - phi * z
        f = f_next
        p_prev, rot_prev = p, rot
    return run.finish(x, run.max_iter)


def _report_bits(solver, a, b, **kw):
    """Every bit of a run: the report and the callback's iterates.
    Overflow is part of the run, not an error."""
    events = []
    with np.errstate(all="ignore"):
        rep = solver(a, b, callback=events.append, **kw)
    return (rep.x.tobytes(), np.array(rep.history).tobytes(), rep.status, rep.reason,
            rep.iterations, rep.extras,
            [(e["i"], e["x"].tobytes(), np.float64(e["g"]).tobytes()) for e in events])


ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                    st.floats(-4.0, 4.0).map(lambda v: round(v, 3)))


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 5))
    a = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5]),
                               min_size=n, max_size=n)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(small_systems(), st.sampled_from([0.0, 1e-8]), st.integers(1, 8))
def test_qmr_alt_is_the_reference_loop_bit_for_bit(system, tol, max_iter):
    a, b = system
    kw = dict(tol=tol, tol_kind="abs", max_iter=max_iter)
    assert _report_bits(qmr_alt, a, b, **kw) == _report_bits(_qmr_alt_reference, a, b, **kw)


E1 = np.array([1.0, 0.0])
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
SHEAR = np.array([[1.0, 0.0], [1.0, 1.0]])
EXITS = {  # case -> (solver, A, b, (status, reason, iterations)) at max_iter=2
    "zero-b-qmr_alt": (qmr_alt, np.eye(2), np.zeros(2), ("converged", None, 0)),
    "zero-A-qmr": (qmr, np.zeros((2, 2)), E1, ("breakdown", "singular-R", 0)),
    "zero-A-minres": (minres, np.zeros((2, 2)), E1, ("breakdown", "singular-R", 0)),
    "rotation-qmr": (qmr, ROTATION, E1, ("converged", None, 2)),
    "rotation-qmr_alt": (qmr_alt, ROTATION, E1, ("breakdown", "lu_breakdown", 0)),
    "shear-qmr": (qmr, SHEAR, E1, ("breakdown", "serious_breakdown", 1)),
    "shear-qmr_alt": (qmr_alt, SHEAR, E1, ("breakdown", "serious_breakdown", 1)),
    "identity-qmr_alt": (qmr_alt, np.eye(3), np.ones(3), ("converged", None, 1)),
    "max-iter-qmr_alt": (qmr_alt, np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]]),
                         np.ones(3), ("max_iter", None, 2)),
}


@pytest.mark.parametrize("case", sorted(EXITS))
def test_each_exit_of_the_quasi_minimal_loop(case):
    solver, a, b, want = EXITS[case]
    kw = dict(tol=1e-10, tol_kind="abs", max_iter=2)
    rep = solver(a, b, **kw)
    assert (rep.status, rep.reason, rep.iterations) == want
    if solver is qmr_alt:
        assert _report_bits(qmr_alt, a, b, **kw) == _report_bits(_qmr_alt_reference, a, b, **kw)


def test_bidiagonalize_normal_equations_equivalence(rng):
    a = rng.standard_normal((20, 20))
    us, vs, al, be = bidiagonalize(a, rng.standard_normal(20), 11)
    assert len(vs) == 11 and len(al) == 11 and len(be) == 10
    v = np.column_stack(vs)
    ell = np.diag(al) + np.diag(be, -1)[: len(al), : len(al)]
    t = ell.T @ ell
    resid = a.T @ (a @ v[:, :10]) - (v @ t)[:, :10]
    ata = a.T @ a
    assert np.abs(resid).max() <= 1e-8 * np.abs(ata).max()


def test_bidiag_squares_condition_number():
    a = np.diag([1.0, 10.0])
    kappa = np.linalg.cond(a)
    assert np.linalg.cond(a.T @ a) == pytest.approx(kappa ** 2)


def test_bidiag_solve_orthogonal_matrix_fast(rng):
    th = 0.9
    a = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    b = rng.standard_normal(2)
    rep = bidiag_solve(a, b, tol=1e-11, tol_kind="abs", max_iter=4)
    assert rep.converged and rep.iterations <= 2
    np.testing.assert_allclose(a @ rep.x, b, atol=1e-10)


def test_bidiag_solve_general(rng):
    a = make_general(12, rng)
    b = rng.standard_normal(12)
    rep = bidiag_solve(a, b, tol=1e-9, tol_kind="rel_to_b", max_iter=40)
    assert rep.converged
    assert np.linalg.norm(b - a @ rep.x) <= 1e-8 * np.linalg.norm(b)


def test_cgs_squared_polynomial_replay(rng):
    for _ in range(5):
        a = make_general(8, rng)
        b = rng.standard_normal(8)
        r_bicg, r_cgs = [], []
        rep_b = bicg(a, b, tol=0.0, tol_kind="abs", max_iter=6,
                     callback=lambda d: r_bicg.append(d["r"]))
        cgs(a, b, tol=0.0, tol_kind="abs", max_iter=6,
            callback=lambda d: r_cgs.append(d["r"]))
        lam = rep_b.extras["lambda_hat"]
        mu = rep_b.extras["mu"]

        def phi_apply(i, v):
            f = v.copy()
            p = v.copy()
            for k in range(i):
                f = f - lam[k] * (a @ p)
                if k + 1 < i:
                    p = f + mu[k] * p
            return f

        for i in range(1, min(len(r_bicg), len(r_cgs)) + 1):
            pred = phi_apply(i, r_bicg[i - 1])
            scale = max(np.linalg.norm(r_cgs[i - 1]), 1e-12)
            assert np.abs(pred - r_cgs[i - 1]).max() <= 1e-6 * scale


def test_cgs_faster_than_bicg_when_well_conditioned(rng):
    a = make_general(30, rng, contraction=0.6)
    b = rng.standard_normal(30)
    rep_b = bicg(a, b, tol=1e-10, tol_kind="rel_to_b", max_iter=60)
    rep_c = cgs(a, b, tol=1e-10, tol_kind="rel_to_b", max_iter=60)
    assert rep_b.converged and rep_c.converged
    assert rep_c.iterations <= rep_b.iterations


def test_cgs_identity_one_step(rng):
    b = rng.standard_normal(5)
    rep = cgs(np.eye(5), b, tol=1e-12, tol_kind="abs")
    assert rep.converged and rep.iterations == 1


def test_bicgstab_omega_is_local_minimum(rng):
    a = make_general(12, rng)
    b = rng.standard_normal(12)
    count = 0

    def probe(d):
        nonlocal count
        r_half, t, omega = d["r_half"], d["t"], d["omega"]
        base = np.linalg.norm(r_half - omega * t)
        assert np.linalg.norm(r_half - 1.1 * omega * t) >= base - 1e-12
        assert np.linalg.norm(r_half - 0.9 * omega * t) >= base - 1e-12
        count += 1

    bicgstab(a, b, tol=0.0, tol_kind="abs", max_iter=12, callback=probe)
    assert count >= 8


def test_bicgstab_mu_consistency(rng):
    a = make_general(10, rng)
    b = rng.standard_normal(10)
    rep = bicgstab(a, b, tol=1e-12, tol_kind="abs", max_iter=10)
    etas = rep.extras["etas"]
    lams = rep.extras["lambda_hat"]
    omegas = rep.extras["omegas"]
    mus = rep.extras["mu"]
    for i, mu in enumerate(mus):
        recomputed = (etas[i + 1] / etas[i]) * (lams[i] / omegas[i])
        assert mu == pytest.approx(recomputed, rel=1e-12)


def test_bicgstab_history_interleaves_half_steps(rng):
    a = make_general(8, rng)
    b = rng.standard_normal(8)
    rep = bicgstab(a, b, tol=1e-12, tol_kind="abs", max_iter=8)
    tags = rep.extras["history_tags"]
    assert tags[0] == "initial"
    assert all(t in ("half", "full") for t in tags[1:])
    assert len(tags) == len(rep.history)


def test_bicgstab_identity_one_step(rng):
    b = rng.standard_normal(5)
    rep = bicgstab(np.eye(5), b, tol=1e-12, tol_kind="abs")
    assert rep.converged and rep.iterations == 1


def test_left_preconditioning_formal_substitution(rng):
    inst = random_sparse(40, 0.1, seed=9)
    c_apply = jacobi_preconditioner(inst.a)
    dense = to_dense(inst.a)
    x_star = np.linalg.solve(dense, inst.b)
    for solver in (gmres, bicg, qmr, cgs, bicgstab):
        rep = solver(inst.a, inst.b, tol=1e-12, tol_kind="rel_to_b",
                     max_iter=80, c_apply=c_apply)
        assert rep.converged, solver.__name__
        assert np.abs(rep.x - x_star).max() <= 1e-7


def test_solvers_report_converged_only_when_residual_small(rng):
    a = make_general(10, rng)
    b = rng.standard_normal(10)
    for solver in (gmres, bicg, qmr, qmr_alt, cgs, bicgstab, bidiag_solve):
        rep = solver(a, b, tol=1e-8, tol_kind="rel_to_b", max_iter=40)
        if rep.converged:
            assert np.linalg.norm(b - a @ rep.x) <= 1e-6 * np.linalg.norm(b)


class Counted:
    """A dense operand that counts its matvecs and rmatvecs: the count tells
    which test of an iteration fired, one before its first matvec or one
    after it."""

    def __init__(self, a):
        self.a, self.n = np.asarray(a, dtype=float), len(a)
        self.matvecs = self.rmatvecs = 0

    def matvec(self, x):
        self.matvecs += 1
        return self.a @ x

    def rmatvec(self, x):
        self.rmatvecs += 1
        return self.a.T @ x


SWAP = [[0.0, 1.0], [1.0, 0.0]]
NEG = [[-1.0, -1.0], [-1.0, 0.0]]
# Matvecs: 1 for r_0, then per iteration 1 for bicg, 2 for cgs and bicgstab.
BREAKDOWNS = {  # case -> (solver, A, b, max_iter, (status, reason, iterations), matvecs)
    # d = p_hat' A p vanishes at the first step: 1 + 1 matvecs
    "d-test-bicg": (bicg, SWAP, E1, None, ("breakdown", "serious_breakdown", 0), 2),
    "d-test-cgs": (cgs, SWAP, E1, None, ("breakdown", "serious_breakdown", 0), 2),
    "d-test-bicgstab": (bicgstab, SWAP, E1, None, ("breakdown", "serious_breakdown", 0), 2),
    # eta = r_hat' r vanishes before the next step's matvec
    "eta-test-bicg": (bicg, NEG, np.ones(2), 10, ("breakdown", "serious_breakdown", 2), 1 + 2),
    "eta-test-cgs": (cgs, NEG, np.ones(2), 10, ("breakdown", "serious_breakdown", 4), 1 + 8),
    "eta-test-bicgstab": (bicgstab, [[-1.0, -1.0, -1.0], [-1.0, -1.0, 0.0], [1.0, 0.0, 0.0]],
                          np.array([1.0, 0.0, 0.0]), 10, ("breakdown", "serious_breakdown", 1),
                          1 + 2),
    # t' r_half vanishes after the half step's t = A r_half
    "omega-zero-bicgstab": (bicgstab, NEG, E1, None, ("breakdown", "omega-zero", 1), 1 + 2),
}


@pytest.mark.parametrize("case", sorted(BREAKDOWNS))
def test_each_breakdown_test_of_the_lanczos_descendants(case):
    solver, a, b, max_iter, want, matvecs = BREAKDOWNS[case]
    op = Counted(a)
    rep = solver(op, b, tol=0.0, max_iter=max_iter)
    assert (rep.status, rep.reason, rep.iterations) == want
    assert op.matvecs == matvecs


ONE_MATVEC = {  # solver -> (run on a Counted operand and a right-hand side, A symmetric)
    "cg": (cg, True),
    "pcg": (lambda op, b: pcg(op, b, jacobi_preconditioner(op.a)), True),
    "minres": (minres, True),
    "semi_iterative": (lambda op, b: semi_iterative(
        Splitting(split(op.a, "jacobi").m_solve, op.matvec), b, -0.81, 0.81), True),
    "gmres": (gmres, False),
    "qmr": (qmr, False),
    "qmr_alt": (qmr_alt, False),
}


@pytest.mark.parametrize("name", sorted(ONE_MATVEC))
def test_a_solver_applies_a_once_for_r0_and_once_per_iteration(name):
    # no residual b - A x_i is formed only to be recorded; Jacobi's radius
    # on Poisson N=4 is cos(pi/5) = 0.809, inside semi_iterative's interval
    solve, spd = ONE_MATVEC[name]
    op = Counted(poisson_dense(4) if spd else make_general(16, np.random.default_rng(17)))
    rep = solve(op, np.arange(1.0, 17.0))
    assert rep.converged and rep.iterations > 1
    assert op.matvecs == 1 + rep.iterations
    if name.startswith("qmr"):  # A' in each iteration but the one that stopped
        assert op.rmatvecs == rep.iterations - 1


@pytest.mark.parametrize("inst", [poisson_test(4), random_sparse(50, 0.1, 3)],
                         ids=["poisson4", "random50"])
def test_bicgstab_ends_as_omega_zero_when_t_t_underflows(inst):
    # at A * 2**-550, t = A r_half has t't = 0.0 while t'r_half is not negligible
    t = to_triplets(inst.a)
    tiny = Triplets(t.n, t.rows, t.cols, t.vals * 2.0**-550)
    rep = bicgstab(tiny, np.ones(t.n))
    assert (rep.status, rep.reason, rep.iterations) == ("breakdown", "omega-zero", 1)
    assert np.all(np.isfinite(rep.x))


def test_each_exit_of_bidiag_solve():
    zero_alpha = bidiag_solve(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))  # A' u_1 = 0
    assert (zero_alpha.status, zero_alpha.reason, zero_alpha.iterations) == \
        ("breakdown", "zero-alpha", 0)
    capped = bidiag_solve(hilbert(8).a, np.ones(8), tol=0.0, max_iter=2)
    assert (capped.status, capped.iterations, len(capped.history)) == ("max_iter", 2, 3)
    # beta_3 vanishes with the residual above a zero threshold: the exact exit
    exact = bidiag_solve(np.diag([1.0, 2.0, 3.0]), np.ones(3), tol=0.0)
    assert (exact.status, exact.iterations) == ("converged", 3)
    assert 0.0 < exact.history[-1] < 1e-14


# The rule for an invariant Krylov space above the threshold: an exact solve
# when |g| is negligible next to ||r_0||, else an invariant_subspace breakdown.
SINGULAR = {  # (A, b) inconsistent: minres and qmr stop at the invariant step
    "diag(1,0)": (np.diag([1.0, 0.0]), np.ones(2), 2),
    "diag(1,2,0)": (np.diag([1.0, 2.0, 0.0]), np.ones(3), 3),
}


@pytest.mark.parametrize("case", sorted(SINGULAR))
@pytest.mark.parametrize("solver", [minres, qmr], ids=["minres", "qmr"])
def test_an_inconsistent_singular_system_is_not_converged(solver, case):
    a, b, at = SINGULAR[case]
    rep = solver(a, b, tol=1e-10)
    assert (rep.status, rep.reason, rep.iterations) == ("breakdown", "invariant_subspace", at)
    assert np.linalg.norm(b - a @ rep.x) > 1.0


def test_gmres_reports_an_invariant_space_without_the_solution():
    rep = gmres(np.diag([1.0, 2.0, 0.0]), np.ones(3), tol=1e-10)
    assert (rep.status, rep.reason, rep.iterations) == ("breakdown", "invariant_subspace", 3)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("solver", [gmres, minres, qmr, qmr_alt, bidiag_solve],
                         ids=lambda s: s.__name__)
def test_an_invariant_space_with_the_solution_converges_at_zero_tol(solver, n):
    a, b = np.diag(np.arange(1.0, n + 1.0)), np.ones(n)
    rep = solver(a, b, tol=0.0)
    assert (rep.status, rep.iterations) == ("converged", n)
    assert 0.0 < rep.history[-1] < 1e-14  # above the threshold: the invariant step ended it
