"""The five benchmark workloads.

Each workload is a closed loop with one caller: a pass runs its operations
one after another, each starting when the previous one returns.  Every solve
stops at tol=1e-8 relative to ||b||; each right-hand side is b = A x* with x*
drawn from the workload seed, which reaches the library only as generated
inputs.  The CLI workload solves the CLI's own right-hand sides and passes the
seed to its random problem.

A workload provides ``prepare(seed, scale, workdir)`` (untimed inputs),
``run(p, state)`` (one pass, timed through the ``Pass`` object) and
``micro(state)`` (per-call layer microbenchmarks and reference kernels for
the traced run).  ``repeat_setup`` says whether ``run`` can time its set-up
alone, in a pass that skips the solves.
"""

import contextlib
import functools
import hashlib
import io
import math
import os

import numpy as np

import krylov as K
from krylov import cli as kcli

import micro
import oracle

TOL = 1e-8
KW = {"tol": TOL, "tol_kind": "rel_to_b"}
# Generator seed of general-random2000's matrix.  It is fixed, not the
# workload seed: full GMRES costs grow with the square of its iteration
# count, so a matrix drawn per seed moved solve_s by about 20 % between
# seeds.  The seed still draws the right-hand sides.
MATRIX_SEED = 1


def _x_star(rng, n):
    """Exact solution with entries uniform in [0, 1).

    Its mean gives every right-hand side the same smooth component, which
    keeps the iteration counts to 1e-8 steadier across seeds than a
    zero-mean draw does (about 6 % against 10 % quartile spread at N=316).
    """
    return rng.uniform(0.0, 1.0, n)


def _poisson(p, N, x_star):
    """Generate Poisson(N) (timed) and its oracle pieces (untimed)."""
    inst = p.setup("problems.generate", K.poisson_test, N)
    a_csr = oracle.poisson_csr(N)
    b = a_csr @ x_star
    check = oracle.SolveCheck(a_csr, b, x_star, TOL)
    return inst.a, b, check


class Ladder:
    """CG and PCG with Jacobi, IC(0), MIC and Chebyshev polynomial preconditioners."""

    name = "ladder-poisson100"
    repeat_setup = True
    calibrated = ("setup", "solve")  # reference seconds, see tracing.SpeedClock
    why = ("the paper's MIC < IC < CG ladder at n=10^4; IC/MIC triangular sweeps "
           "take most of the solve, so sweep and preconditioner changes show here")

    def prepare(self, seed, scale, workdir):
        N, Nb = (100, 32) if scale == "full" else (20, 8)
        rng = np.random.default_rng(seed)
        return {"N": N, "Nb": Nb, "x": _x_star(rng, N * N), "xb": _x_star(rng, Nb * Nb)}

    def run(self, p, st):
        N, Nb = st["N"], st["Nb"]
        a, b, check = _poisson(p, N, st["x"])
        op = p.op(a)
        p.solve(f"cg.N{N}", "cg.cg", K.cg, op, b, check=check, **KW)
        jac = p.setup("precond.build", K.jacobi_preconditioner, a)
        p.solve(f"pcg-jacobi.N{N}", "precond.pcg", K.pcg, op, b,
                p.wrap("precond.apply.jacobi", jac), check=check, **KW)
        for kind, factory in (("ic", K.ic0_pentadiagonal), ("mic", K.mic_pentadiagonal)):
            f = p.setup("precond.build", factory, a, N)
            apply = p.wrap(f"precond.apply.{kind}", functools.partial(K.apply_ic_solve, f))
            p.solve(f"pcg-{kind}.N{N}", "precond.pcg", K.pcg, op, b, apply, check=check, **KW)
        lmin, lmax = p.setup("precond.build", K.estimate_extremes_by_cg, op, b, iters=25)
        p.solve(f"pcg-poly5.N{N}", "precond.poly_pcg", K.solve_poly_pcg, op, b, 5, lmin, lmax,
                check=check, **KW)
        # block_precond densifies A, so the block case stays at desk scale.
        ab, bb, check_b = _poisson(p, Nb, st["xb"])
        fb = p.setup("precond.build", K.block_precond, ab, Nb)
        p.solve(f"pcg-block.N{Nb}", "precond.pcg", K.pcg, p.op(ab), bb,
                p.wrap("precond.apply.block", functools.partial(K.apply_block_solve, fb)),
                check=check_b, **KW)

    def micro(self, st):
        return micro.poisson_kernels(K.poisson_test(st["N"]).a, st["N"])


class CgLarge:
    """CG, Jacobi-PCG and MINRES on the largest working set."""

    name = "cg-poisson316"
    repeat_setup = True
    # Set-up is the generator's Python loops; the solves are numpy-bound, their
    # speed does not follow the interpreter loop's, and reference seconds
    # doubled their seed-to-seed spread.
    calibrated = ("setup",)
    why = ("largest working set (n=99,856): diag-format matvec and per-iteration vector "
           "updates dominate; no triangular sweeps, so sweep changes should not move it")

    def prepare(self, seed, scale, workdir):
        N = 316 if scale == "full" else 40
        return {"N": N, "x": _x_star(np.random.default_rng(seed), N * N)}

    def run(self, p, st):
        N = st["N"]
        a, b, check = _poisson(p, N, st["x"])
        op = p.op(a)
        p.solve(f"cg.N{N}", "cg.cg", K.cg, op, b, check=check, **KW)
        jac = p.setup("precond.build", K.jacobi_preconditioner, a)
        p.solve(f"pcg-jacobi.N{N}", "precond.pcg", K.pcg, op, b,
                p.wrap("precond.apply.jacobi", jac), check=check, **KW)
        p.solve(f"minres.N{N}", "symmetric.minres", K.minres, op, b, check=check, **KW)

    def micro(self, st):
        return micro.poisson_kernels(K.poisson_test(st["N"]).a, st["N"])


NONSYMMETRIC = (
    ("gmres", K.gmres, {}),
    ("gmres20", K.gmres, {"restart": 20}),
    ("bicg", K.bicg, {}),
    ("qmr", K.qmr, {}),
    ("qmr-alt", K.qmr_alt, {}),
    ("cgs", K.cgs, {}),
    ("bicgstab", K.bicgstab, {}),
    ("bidiag", K.bidiag_solve, {}),
)


class General:
    """The nonsymmetric suite and point stationary sweeps on a random row-format matrix."""

    name = "general-random2000"
    repeat_setup = True
    calibrated = ("setup", "solve")  # reference seconds, see tracing.SpeedClock
    why = ("only row-format matrix and only rmatvec user; Gauss-Seidel on an unstructured "
           "pattern; set-up is the pure-Python LCG generator")

    def prepare(self, seed, scale, workdir):
        n, density = (2000, 0.003) if scale == "full" else (300, 0.02)
        rng = np.random.default_rng(seed)
        return {"n": n, "density": density, "xs": [_x_star(rng, n) for _ in range(4)]}

    def run(self, p, st):
        n = st["n"]
        inst = p.setup("problems.generate", K.random_sparse, n, st["density"], MATRIX_SEED)
        st["a"] = inst.a  # kept for the microbenchmarks, which skip the slow generator
        a_csr = oracle.csr_from_triplets(K.to_triplets(inst.a))
        op = p.op(inst.a)
        for x_star in st["xs"]:
            b = a_csr @ x_star
            check = oracle.SolveCheck(a_csr, b, x_star, TOL)
            for label, solver, extra in NONSYMMETRIC:
                if extra.get("restart"):
                    extra = dict(extra, max_iter=10 * n)  # restarts forfeit finite termination
                p.solve(f"{label}.R{n}", f"nonsymmetric.{label}", solver, op, b,
                        check=check, **KW, **extra)
            for label, method in (("gs", "gauss_seidel"), ("jacobi", "jacobi")):
                cfg = K.StationaryConfig(method, **KW)
                p.solve(f"{label}.R{n}", "stationary.iterate", K.iterate, inst.a, b, cfg,
                        check=check)

    def micro(self, st):
        return micro.general_kernels(st["a"])


class Stationary:
    """Spectral radii, an SOR omega sweep, Chebyshev acceleration, SOR and SSOR."""

    name = "stationary-poisson10"
    repeat_setup = True
    calibrated = ("setup", "solve")  # reference seconds, see tracing.SpeedClock
    why = ("tiny n: per-call overhead and stationary sweeps do the work; only user of "
           "chebyshev, spectral-radius estimates, SSOR and block splittings")

    def prepare(self, seed, scale, workdir):
        N2, omegas = (32, [0.05 * k for k in range(1, 40)]) if scale == "full" \
            else (12, [0.5, 1.0, 1.5])
        rng = np.random.default_rng(seed)
        return {"N": 10, "N2": N2, "omegas": omegas,
                "x": _x_star(rng, 100), "x2": _x_star(rng, N2 * N2)}

    def run(self, p, st):
        N, n = st["N"], st["N"] ** 2
        a = p.setup("problems.generate", K.poisson_test, N).a
        for label, method, bs in (("jacobi", "jacobi", None), ("gs", "gauss_seidel", None),
                                  ("bj", "block_jacobi", N), ("bgs", "block_gs", N)):
            g = p.setup("stationary.split", K.iteration_matrix_applier, a, method, block_size=bs)
            p.radius(f"rho-{label}.N{N}", K.spectral_radius_estimate, g, n,
                     check=oracle.RadiusCheck(oracle.poisson_radius(method, N), oracle.RADIUS_TOL))
        for omega in st["omegas"]:
            g = p.setup("stationary.split", K.iteration_matrix_applier, a, "sor", omega=omega)
            p.radius(f"sor-sweep.N{N}", K.spectral_radius_estimate, g, n,
                     check=oracle.RadiusCheck(oracle.poisson_radius("sor", N, omega),
                                              oracle.YOUNG_TOL))
        for M, x_star in ((N, st["x"]), (st["N2"], st["x2"])):
            am, b, check = _poisson(p, M, x_star)
            base = p.setup("stationary.split", K.split, am, "jacobi")
            base = K.Splitting(m_solve=p.wrap("stationary.sweep", base.m_solve),
                               a_apply=p.wrap("storage.matvec", base.a_apply),
                               n_apply=base.n_apply)
            rho = math.cos(math.pi / (M + 1))
            p.solve(f"cheb-jacobi.N{M}", "chebyshev.semi_iterative", K.semi_iterative,
                    base, b, -rho, rho, check=oracle.ChebyshevCheck(check, -rho, rho), **KW)
        M = st["N2"]
        omega = K.optimal_omega_estimate(math.cos(math.pi / (M + 1)))
        p.solve(f"sor-opt.N{M}", "stationary.iterate", K.iterate, am, b,
                K.StationaryConfig("sor", omega=omega, **KW), check=check)
        p.solve(f"ssor.N{M}", "stationary.ssor", K.ssor_iterate, am, b, omega,
                check=check, **KW)

    def micro(self, st):
        return micro.stationary_kernels(K.poisson_test(st["N2"]).a, st["N2"])


class Cli:
    """The krylov command line, run in-process through ``krylov.cli.main``."""

    name = "cli-poisson64"
    calibrated = ("setup", "solve")  # reference seconds, see tracing.SpeedClock
    repeat_setup = False  # set-up is CLI wall time minus the solve time it prints
    why = ("only workload through the user-facing entry point and MatrixMarket I/O; "
           "the CLI densifies A for diagnostics, so N stays at 64")

    def prepare(self, seed, scale, workdir):
        N, n_random, n_list = (64, 1000, "16,32") if scale == "full" else (12, 200, "6,8")
        os.makedirs(workdir, exist_ok=True)
        return {"N": N, "n_random": n_random, "n_list": n_list, "seed": seed,
                "dir": workdir, "digests": {}}

    def _call(self, p, st, case, argv, outputs):
        for path in outputs:  # a stale file from the previous pass must not pass as output
            if os.path.exists(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc, wall = p.timed(case, "cli.main", kcli.main, argv)
        except SystemExit as exc:  # argparse usage errors
            rc, wall = exc.code, exc.seconds
        except Exception as exc:
            rc, wall = f"{type(exc).__name__}: {exc}", exc.seconds
        solve_s, iterations, error, check = 0.0, 0, None, None
        if rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
        elif argv[0] == "solve":  # last line: status iterations residual wall_ms
            fields = out.getvalue().split("\n")[-2].split()
            iterations, solve_s = int(fields[1]), float(fields[3]) / 1e3
        digests = {}
        for path in outputs if error is None else ():
            with open(path, "rb") as fh:
                data = fh.read()
            digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
            if path.endswith(".csv"):
                p.extra["cli.csv_bytes"] = p.extra.get("cli.csv_bytes", 0) + len(data)
            if argv[0] == "precond-compare":  # rows: n,method,iterations
                iterations = sum(int(row.split(",")[2]) for row in data.decode().splitlines()[2:])
        p.extra["cli.solve_s"] = p.extra.get("cli.solve_s", 0.0) + solve_s
        if error is None and st["digests"].setdefault(case, digests) != digests:
            error = "output files differ from the first pass"
        if error is None and argv[0] == "generate":
            check = functools.partial(_check_generated, outputs[0], st["N"])
        p.external(case, "cli.main", wall, solve_s, iterations, result=rc, error=error, check=check)

    def run(self, p, st):
        N, d = st["N"], st["dir"]
        mtx, rhs = os.path.join(d, "A.mtx"), os.path.join(d, "A_rhs.mtx")
        csv = lambda name: os.path.join(d, name + ".csv")
        tol = ["--tol", str(TOL), "--tol-kind", "rel_to_b"]
        self._call(p, st, f"generate.N{N}",
                   ["generate", "--problem", "poisson", "--n", str(N), "--out", mtx], [mtx, rhs])
        for case, method in ((f"solve-gmres20.N{N}", "gmres,restart=20"), (f"solve-cg.N{N}", "cg")):
            self._call(p, st, case, ["solve", "--matrix", mtx, "--rhs", rhs, "--method", method,
                                     *tol, "--out", csv(case)], [csv(case)])
        case = f"solve-mic.N{N}"
        self._call(p, st, case, ["solve", "--problem", "poisson", "--n", str(N), "--method", "cg",
                                 "--precond", "mic", *tol, "--out", csv(case)], [csv(case)])
        case = f"solve-bicgstab.R{st['n_random']}"
        self._call(p, st, case, ["solve", "--problem", "random", "--n", str(st["n_random"]),
                                 "--seed", str(st["seed"]), "--method", "bicgstab", *tol,
                                 "--out", csv(case)], [csv(case)])
        case = "precond-compare"
        self._call(p, st, case, ["precond-compare", "--n-list", st["n_list"],
                                 "--methods", "cg,ic,mic,block,poly:5", "--tol", str(TOL),
                                 "--out", csv(case)], [csv(case)])

    def micro(self, st):
        return micro.cli_kernels(K.poisson_test(st["N"]).a, st["N"])


def _check_generated(path, N, _rc):
    """The generated MatrixMarket file, read by scipy, is the Poisson matrix."""
    import scipy.io
    a = scipy.io.mmread(path).tocsr()
    diff = abs(a - oracle.poisson_csr(N))
    return None if diff.nnz == 0 or diff.max() == 0.0 else "generated matrix is not Poisson"


WORKLOADS = {w.name: w for w in (Ladder(), CgLarge(), General(), Stationary(), Cli())}
