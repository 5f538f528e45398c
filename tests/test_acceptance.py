"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance is pinned here; nothing is recalibrated at run time.
"""

import math
import time

import numpy as np
from conftest import make_general, make_spd, make_symmetric_indefinite

import krylov as K
from krylov.chebyshev import cheb_T
from krylov.precond import apply_ic_solve, ic_matrix_apply
from krylov.stationary import iteration_matrix_applier, split
from krylov.storage import Triplets, build, to_dense


def _criterion(num, name, checks):
    failed = [msg for ok, msg in checks if not ok]
    print(f"[criterion {num:02d}] {'PASS' if not failed else 'FAIL'}: {name}")
    for msg in failed:
        print(f"    failed: {msg}")
    assert not failed, f"criterion {num} ({name}): " + "; ".join(failed)


def test_criterion_01_sparse_format_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 33))
        mask = rng.random((n, n)) < rng.uniform(0.05, 0.6)
        dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
        r, c = np.nonzero(dense)
        t = Triplets(n, r, c, dense[r, c])
        x = rng.standard_normal(n)
        y_ref = dense @ x
        scale = max(np.abs(dense).max() * np.abs(x).max(), 1e-30)
        for fmt in ("row", "col", "diag"):
            y = build(t, fmt).matvec(x)
            worst = max(worst, float(np.abs(y - y_ref).max() / scale))
    elapsed = time.perf_counter() - t0
    _criterion(1, "sparse-format equivalence", [
        (worst <= 1e-13, f"relative error {worst:.2e} > 1e-13"),
        (elapsed < 5.0, f"runtime {elapsed:.1f}s >= 5s"),
    ])


def test_criterion_02_spectral_radii_poisson10():
    t0 = time.perf_counter()
    inst = K.poisson_test(10)
    n = inst.n
    rho_j = K.spectral_radius_estimate(iteration_matrix_applier(inst.a, "jacobi"), n)
    rho_gs = K.spectral_radius_estimate(
        iteration_matrix_applier(inst.a, "gauss_seidel"), n)
    # The SOR radius has a cusp at the optimum (square-root decay on the
    # left, omega - 1 on the right), so resolving the 0.57 +/- 0.02 target
    # needs a step of 0.01; the CLI keeps 0.05 as its coarse default.
    best_omega, best_rho = None, np.inf
    for omega in np.arange(0.05, 1.99, 0.01):
        g = iteration_matrix_applier(inst.a, "sor", omega=float(omega))
        rho = K.spectral_radius_estimate(g, n)
        if rho < best_rho:
            best_omega, best_rho = float(omega), rho
    elapsed = time.perf_counter() - t0
    _criterion(2, "spectral radii on the Poisson test, N=10", [
        (abs(rho_j - 0.96) <= 0.01, f"rho_J {rho_j:.4f} not 0.96 +/- 0.01"),
        (abs(rho_gs - 0.92) <= 0.01, f"rho_GS {rho_gs:.4f} not 0.92 +/- 0.01"),
        (abs(rho_gs - rho_j ** 2) <= 5e-3,
         f"|rho_GS - rho_J^2| = {abs(rho_gs - rho_j**2):.1e} > 5e-3"),
        (abs(best_omega - 1.56) <= 0.03,
         f"sweep argmin omega {best_omega:.2f} not 1.56 +/- 0.03"),
        (abs(best_rho - 0.57) <= 0.02,
         f"sweep min rho {best_rho:.4f} not 0.57 +/- 0.02"),
        (elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"),
    ])


def test_criterion_03_block_methods_poisson10():
    inst = K.poisson_test(10)
    n = inst.n
    rho_j = K.spectral_radius_estimate(iteration_matrix_applier(inst.a, "jacobi"), n)
    rho_gs = K.spectral_radius_estimate(
        iteration_matrix_applier(inst.a, "gauss_seidel"), n)
    rho_bj = K.spectral_radius_estimate(
        iteration_matrix_applier(inst.a, "block_jacobi", block_size=10), n)
    rho_bgs = K.spectral_radius_estimate(
        iteration_matrix_applier(inst.a, "block_gs", block_size=10), n)
    _criterion(3, "block Jacobi / Gauss-Seidel radii, N=10", [
        (abs(rho_bj - 0.92) <= 0.01, f"block Jacobi {rho_bj:.4f} not 0.92 +/- 0.01"),
        (abs(rho_bgs - 0.85) <= 0.01, f"block GS {rho_bgs:.4f} not 0.85 +/- 0.01"),
        (rho_bj <= rho_j + 1e-3, "block Jacobi radius above point Jacobi"),
        (rho_bgs <= rho_gs + 1e-3, "block GS radius above point GS"),
    ])


def test_criterion_04_chebyshev_error_bound():
    inst = K.poisson_test(10)
    dense = to_dense(inst.a)
    x_star = np.linalg.solve(dense, inst.b)
    e0 = np.linalg.norm(x_star)  # zero start vector
    rho = math.cos(math.pi / 11.0)
    base = split(inst.a, "jacobi")
    checks = []
    worst = 0.0
    for j in range(1, 61):
        rep = K.semi_iterative(base, inst.b, -rho, rho, tol=0.0, max_iter=j)
        reduction = np.linalg.norm(x_star - rep.x) / e0
        bound = K.minimax_error_bound(-rho, rho, j)
        worst = max(worst, reduction / bound)
    checks.append((worst <= 10.0,
                   f"worst reduction/bound ratio {worst:.2f} > 10"))
    _criterion(4, "Chebyshev semi-iteration within 10x of 1/T_j bound", checks)


def test_criterion_05_cg_eigenvalue_estimates_poisson20():
    # Extremes of A = T (+) T are twice those of the tridiagonal factor, so
    # the Sturm bisection runs on T_20 and the results are doubled.
    t = K.TridiagSym(np.full(20, 2.0), np.full(19, -1.0))
    lo_t, hi_t = K.sturm_extreme_eigs(t, tol=1e-13)
    lam_min, lam_max = 2.0 * lo_t, 2.0 * hi_t
    inst = K.poisson_test(20)
    rep = K.cg(inst.a, inst.b, tol=0.0, max_iter=25)
    lo, hi = K.sturm_extreme_eigs(K.assemble_tbar(rep), tol=1e-12)
    _criterion(5, "CG eigenvalue estimates, Poisson N=20", [
        (abs(lam_min - 4.4677e-2) <= 1e-4,
         f"Sturm lambda_min {lam_min:.6e} not within 1e-4 of 4.4677e-2"),
        (abs(lam_max - 7.9553) <= 1e-4,
         f"Sturm lambda_max {lam_max:.6f} not within 1e-4 of 7.9553"),
        (abs(lo - 4.4682e-2) <= 2e-3,
         f"Tbar_25 lambda_min {lo:.6e} not within 2e-3 of 4.4682e-2"),
        (abs(hi - 7.8636) <= 2e-3,
         f"Tbar_25 lambda_max {hi:.6f} not within 2e-3 of 7.8636"),
    ])


def test_criterion_06_cg_conditioning_study():
    shifted = K.hilbert(10, shift=1.0)
    rep1 = K.cg(shifted.a, shifted.b, tol=1e-12, tol_kind="abs", max_iter=10)
    res1 = np.linalg.norm(shifted.b - shifted.a @ rep1.x)
    plain = K.hilbert(10)
    rep2 = K.cg(plain.a, plain.b, tol=1e-10, tol_kind="abs", max_iter=40)
    res2 = np.linalg.norm(plain.b - plain.a @ rep2.x)
    err2 = np.linalg.norm(rep2.x - plain.x_true)
    # energy-norm bound on an instance whose condition number is known
    rng = np.random.default_rng(606)
    tri = K.TridiagSym(rng.uniform(2.0, 6.0, 14), rng.uniform(-1.0, 1.0, 13))
    lo, hi = K.sturm_extreme_eigs(tri, tol=1e-12)
    kappa = hi / lo
    a = tri.to_dense()
    b = rng.standard_normal(14)
    x_star = np.linalg.solve(a, b)
    e0 = x_star @ a @ x_star
    ratios = []
    K.cg(a, b, tol=0.0, max_iter=14,
         callback=lambda d: ratios.append(
             ((x_star - d["x"]) @ a @ (x_star - d["x"])) / e0))
    bound_ok = all(r <= K.convergence_bound(kappa, i) + 1e-12
                   for i, r in enumerate(ratios, start=1))
    _criterion(6, "CG conditioning study (Hilbert family)", [
        (rep1.converged and rep1.iterations <= 10 and res1 <= 1e-12,
         f"shifted Hilbert: {rep1.iterations} iterations, ||r||={res1:.1e}"),
        (res2 <= 1e-10, f"plain Hilbert residual {res2:.1e} > 1e-10"),
        (err2 / res2 >= 1e4, f"error/residual ratio {err2 / res2:.1e} < 1e4"),
        (lo > 0, "known-kappa instance not positive definite"),
        (bound_ok, "energy-norm ratio exceeded the convergence bound"),
    ])


def test_criterion_07_preconditioner_ladder():
    checks = []
    for N in (10, 20, 30, 40, 50):
        inst = K.poisson_test(N)
        n = inst.n
        rep_cg = K.cg(inst.a, inst.b, tol=1e-6, tol_kind="abs", max_iter=100 * n)
        f_ic = K.ic0_pentadiagonal(inst.a, N)
        rep_ic = K.pcg(inst.a, inst.b, lambda r: apply_ic_solve(f_ic, r),
                       tol=1e-6, tol_kind="abs", max_iter=100 * n)
        f_mic = K.mic_pentadiagonal(inst.a, N)
        rep_mic = K.pcg(inst.a, inst.b, lambda r: apply_ic_solve(f_mic, r),
                        tol=1e-6, tol_kind="abs", max_iter=100 * n)
        ok = rep_mic.iterations < rep_ic.iterations < rep_cg.iterations
        checks.append((ok, f"N={N}: mic={rep_mic.iterations} ic={rep_ic.iterations} "
                           f"cg={rep_cg.iterations} not strictly ordered"))
    inst = K.poisson_test(10)
    f = K.mic_pentadiagonal(inst.a, 10)
    ones = np.ones(inst.n)
    rowsum_dev = float(np.abs(ic_matrix_apply(f, ones) - inst.a.matvec(ones)).max())
    dense = to_dense(inst.a)
    minv_a = np.column_stack([apply_ic_solve(f, dense[:, j]) for j in range(inst.n)])
    lam_min = float(np.linalg.eigvals(minv_a).real.min())
    checks += [
        (rowsum_dev <= 1e-11, f"MIC row-sum identity deviates {rowsum_dev:.1e}"),
        (abs(lam_min - 1.0) <= 1e-6,
         f"MIC smallest preconditioned eigenvalue {lam_min:.8f} != 1"),
    ]
    _criterion(7, "MIC < IC < CG iteration ladder", checks)


def test_criterion_08_polynomial_preconditioner():
    inst = K.poisson_test(6)
    lmin = 4.0 - 4.0 * math.cos(math.pi / 7.0)
    lmax = 4.0 + 4.0 * math.cos(math.pi / 7.0)
    checks = []
    for m in (3, 9, 11):
        p = K.poly_precond_build(m, lmin, lmax)
        mu0 = (lmax + lmin) / (lmax - lmin)
        lam = np.linspace(lmin, lmax, 2001)
        mu = (lmax + lmin - 2.0 * lam) / (lmax - lmin)
        sampled = max(abs(cheb_T(m, t)) for t in mu) / cheb_T(m, mu0)
        checks.append((abs(sampled - p.eps) <= 1e-10,
                       f"m={m}: eps {p.eps:.3e} vs sampled {sampled:.3e}"))
        pm = np.column_stack([K.poly_apply_pmA(p, inst.a, e) for e in np.eye(inst.n)])
        ev = np.linalg.eigvalsh(0.5 * (pm + pm.T))
        kappa = ev.max() / ev.min()
        checks.append((kappa <= (1.0 + p.eps) / (1.0 - p.eps) + 1e-9,
                       f"m={m}: kappa {kappa:.6f} above (1+eps)/(1-eps)"))
        lhs = inst.a.matvec(K.poly_apply_Cb(p, inst.a, inst.b))
        rhs = K.poly_apply_pmA(p, inst.a, inst.b)
        dev = float(np.abs(lhs - rhs).max()) / np.linalg.norm(inst.b)
        checks.append((dev <= 1e-11, f"m={m}: Clenshaw identity off by {dev:.1e}"))
    coeffs = K.poly_monomial_coeffs(11, 1e-3, 1.001)
    quoted = [1.6752660329527138e+06, -9.2323911076024063e+06,
              2.1975394326889034e+07, -2.9566871007963315e+07,
              2.4710334661370583e+07, -1.3273250212561980e+07,
              4.5826267022750815e+06, -9.8775156863499968e+05,
              1.2453502849456538e+05, -8.1003898374282262e+03,
              2.0914774360373008e+02, 0.0]
    for k, (got, want) in enumerate(zip(coeffs, quoted)):
        if want == 0.0:
            checks.append((abs(got) <= 1e-9, f"c_{k} = {got:.3e}, expected 0"))
        else:
            rel = abs(got - want) / abs(want)
            checks.append((rel <= 5e-7,
                           f"c_{k} = {got:.10e} differs from quoted by {rel:.1e}"))
    _criterion(8, "Chebyshev polynomial preconditioner identities", checks)


def test_criterion_09_minres_indefinite():
    # The reference count of about 35 iterations for this system belongs
    # to a machine-precision stop: the right-hand side has Krylov grade 15,
    # so the 1e-12 level itself is crossed around iteration 17, and the
    # grind to the 1e-15 floor through the ghost-eigenvalue regime is what
    # lands in the quoted window.
    inst = K.indefinite_kron(10)
    true = []  # ||b - A x_i|| for i >= 1, then ||r_0|| in front
    rep = K.minres(inst.a, inst.b, tol=0.0, tol_kind="abs", max_iter=80,
                   callback=lambda d: true.append(np.linalg.norm(inst.b - inst.a.matvec(d["x"]))))
    h = rep.history
    first_12 = next((i for i, g in enumerate(h) if g <= 1e-12), None)
    machine = next((i for i, g in enumerate(h) if g <= 1e-15), None)
    r0 = h[0]
    true.insert(0, r0)
    identity_global = max(abs(g - t) for g, t in zip(h, true)) <= 1e-8 * r0
    identity_pointwise = all(abs(g - t) <= 1e-8 * t
                             for g, t in zip(h, true) if t >= 1e-8 * r0)
    _criterion(9, "MINRES on the indefinite Kronecker problem", [
        (first_12 is not None and 0 < first_12 <= 45,
         f"first ||r|| <= 1e-12 at {first_12}, beyond 45"),
        (machine is not None and 30 <= machine <= 45,
         f"machine-precision count {machine} outside [30, 45] (reference: 35)"),
        (identity_global, "|g_i| drifted from true residual by > 1e-8 * ||r_0||"),
        (identity_pointwise, "|g_i| vs true residual > 1e-8 relative above the floor"),
    ])


def test_criterion_10_finite_termination():
    rng = np.random.default_rng(42)
    solvers = [("cg", K.cg, "spd"), ("minres", K.minres, "sym"),
               ("gmres", K.gmres, "gen"), ("bicg", K.bicg, "gen"),
               ("qmr", K.qmr, "gen"), ("cgs", K.cgs, "gen"),
               ("bicgstab", K.bicgstab, "gen")]
    failures = []
    for trial in range(20):
        n = int(rng.integers(6, 16))
        b = rng.standard_normal(n)
        mats = {"spd": make_spd(n, rng), "sym": make_symmetric_indefinite(n, rng),
                "gen": make_general(n, rng, contraction=0.4)}
        for name, solver, kind in solvers:
            a = mats[kind]
            rep = solver(a, b, tol=1e-9, tol_kind="rel_to_b", max_iter=n)
            res = np.linalg.norm(b - a @ rep.x) / np.linalg.norm(b)
            if res > 1e-9:
                failures.append(f"{name} trial {trial}: rel residual {res:.1e}")
    _criterion(10, "finite termination of all Krylov solvers at desk scale",
               [(not failures, "; ".join(failures[:4]))])


def test_criterion_11_reductions():
    rng = np.random.default_rng(1111)
    a_spd = make_spd(12, rng)
    b = rng.standard_normal(12)
    xs_cg, xs_bicg = [], []
    K.cg(a_spd, b, tol=0.0, max_iter=10, callback=lambda d: xs_cg.append(d["x"]))
    K.bicg(a_spd, b, tol=0.0, tol_kind="abs", max_iter=10,
           callback=lambda d: xs_bicg.append(d["x"]))
    dev_cg = max(float(np.abs(u - v).max()) for u, v in zip(xs_cg, xs_bicg))
    a_sym = make_symmetric_indefinite(12, rng)
    xs_m, xs_q = [], []
    K.minres(a_sym, b, tol=0.0, tol_kind="abs", max_iter=10,
             callback=lambda d: xs_m.append(d["x"]))
    K.qmr(a_sym, b, tol=0.0, tol_kind="abs", max_iter=10,
          callback=lambda d: xs_q.append(d["x"]))
    dev_qm = max(float(np.abs(u - v).max()) for u, v in zip(xs_m, xs_q))
    u1 = rng.standard_normal(12)
    u1 /= np.linalg.norm(u1)
    h = K.arnoldi(a_sym, u1, 12).h
    off = max((abs(h[j, i]) for i in range(h.shape[1]) for j in range(max(i - 1, 0))),
              default=0.0)
    _criterion(11, "structural reductions on symmetric input", [
        (dev_cg <= 1e-8, f"Bi-CG vs CG iterate deviation {dev_cg:.1e} > 1e-8"),
        (dev_qm <= 1e-8, f"QMR vs MINRES iterate deviation {dev_qm:.1e} > 1e-8"),
        (off <= 1e-8, f"Arnoldi H not numerically tridiagonal ({off:.1e})"),
    ])


def test_criterion_12_cgs_squared_polynomial():
    rng = np.random.default_rng(1212)
    checks = []
    for trial in range(5):
        a = make_general(8, rng)
        b = rng.standard_normal(8)
        r_bicg, r_cgs = [], []
        rep_b = K.bicg(a, b, tol=0.0, tol_kind="abs", max_iter=6,
                       callback=lambda d: r_bicg.append(d["r"]))
        K.cgs(a, b, tol=0.0, tol_kind="abs", max_iter=6,
              callback=lambda d: r_cgs.append(d["r"]))
        lam, mu = rep_b.extras["lambda_hat"], rep_b.extras["mu"]

        def phi_apply(i, v):
            f, p = v.copy(), v.copy()
            for k in range(i):
                f = f - lam[k] * (a @ p)
                if k + 1 < i:
                    p = f + mu[k] * p
            return f

        for i in range(1, min(len(r_bicg), len(r_cgs)) + 1):
            pred = phi_apply(i, r_bicg[i - 1])
            dev = float(np.abs(pred - r_cgs[i - 1]).max())
            scale = max(float(np.linalg.norm(r_cgs[i - 1])), 1e-12)
            checks.append((dev <= 1e-6 * scale,
                           f"trial {trial} step {i}: deviation {dev:.1e}"))
    _criterion(12, "CGS residual equals Bi-CG polynomial replay", checks)


def test_criterion_13_bidiagonalization():
    rng = np.random.default_rng(1313)
    a = rng.standard_normal((20, 20))
    us, vs, al, be = K.bidiagonalize(a, rng.standard_normal(20), 11)
    v = np.column_stack(vs)
    m = len(al)
    ell = np.zeros((m, m))
    ell[np.arange(m), np.arange(m)] = al
    ell[np.arange(1, m), np.arange(m - 1)] = be[: m - 1]
    t = ell.T @ ell
    resid = a.T @ (a @ v[:, :10]) - (v @ t)[:, :10]
    ata_norm = float(np.abs(a.T @ a).sum(axis=1).max())
    d = np.diag([1.0, 10.0])
    kappa2 = np.linalg.cond(d.T @ d)
    _criterion(13, "bidiagonalization equals Lanczos on the normal equations", [
        (float(np.abs(resid).max()) <= 1e-8 * ata_norm,
         f"normal-equations residual {np.abs(resid).max():.1e}"),
        (abs(kappa2 - 100.0) <= 1e-9, f"kappa(A'A) = {kappa2} != kappa(A)^2"),
    ])


def test_criterion_14_substituted_properties():
    # The quoted iteration counts for the harder random instances are not
    # reproducible (the matrices are unspecified); the substituted
    # properties below are asserted instead.
    inst = K.random_sparse(100, 0.04, seed=1)
    rep = K.gmres(inst.a, inst.b, tol=1e-10, tol_kind="rel_to_b", max_iter=100)
    h = rep.history
    monotone = all(nxt <= prev * (1.0 + 1e-12) + 1e-12 * h[0]
                   for prev, nxt in zip(h, h[1:]))
    rng = np.random.default_rng(3)
    q1, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    q2, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    a_ill = q1 @ np.diag(np.logspace(0, 5, 40)) @ q2.T
    rep_b = K.bicg(a_ill, rng.standard_normal(40), tol=1e-10,
                   tol_kind="rel_to_b", max_iter=200)
    ratio = max(rep_b.history) / rep_b.history[0]
    probes_ok = []

    def probe(d):
        r_half, t, omega = d["r_half"], d["t"], d["omega"]
        base = np.linalg.norm(r_half - omega * t)
        probes_ok.append(
            np.linalg.norm(r_half - 1.1 * omega * t) >= base - 1e-12
            and np.linalg.norm(r_half - 0.9 * omega * t) >= base - 1e-12)

    a_gen = make_general(12, np.random.default_rng(77))
    K.bicgstab(a_gen, np.random.default_rng(78).standard_normal(12),
               tol=0.0, tol_kind="abs", max_iter=12, callback=probe)
    _criterion(14, "substituted properties for non-reproducible counts", [
        (monotone, "GMRES residual history not monotone"),
        (ratio > 10.0, f"Bi-CG oscillation ratio {ratio:.1f} <= 10"),
        (len(probes_ok) >= 10 and all(probes_ok),
         "Bi-CGStab omega not a local minimizer at sampled steps"),
    ])
