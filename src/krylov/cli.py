"""Command-line harness: problem generation, solving, spectral-radius
studies, preconditioner comparisons, and eigenvalue estimation.

Subcommands: generate, solve, spectrum, precond-compare, eigs.  Output is
CSV (with a ``# key=value ...`` config echo line) and MatrixMarket files;
numbers carry 17 significant digits so identical arguments and seed yield
byte-identical files.  Of the methods only gmres takes an option
(``gmres,restart=k``), and ``--precond ic|mic`` reads its band offset from
the matrix: the offset of its outermost entry.  ``--precond`` reaches cg
and the nonsymmetric Krylov methods, ``poly:m`` cg alone.  The solve CSV of
cg, minres and the qmrs has the true residual ||C b - C A x_i|| (from the
callback), the stdout summary the norm the stop test read.  Exit codes: 0
converged/ok, 2 usage error or bad input, 3 not converged, 4 breakdown (a
breakdown report or an incomplete factorization meeting a nonpositive
pivot).
"""

import argparse
import os
import sys
import time

import numpy as np

from . import nonsymmetric as nonsym
from . import precond as pcmod
from . import problems, stationary, storage, symmetric
from .cg import cg, cg_basic, estimate_extremes_by_cg
from .chebyshev import semi_iterative
from .core import spectral_radius_estimate
from .report import BREAKDOWN, CONVERGED

_EXIT_NOT_CONVERGED = 3
_EXIT_BREAKDOWN = 4

# CLI spellings of the stationary methods; the library's names use "_" for "-"
_STATIONARY = ("jacobi", "gauss-seidel", "sor", "ssor", "block-jacobi", "block-gs")
# the quasi-minimal methods: their CSV gives the true residual beside the history
_QUASI = ("minres", "qmr", "qmr-alt")
# the nonsymmetric Krylov solvers: they and cg apply --precond, cg alone poly:m
_KRYLOV = {
    "gmres": nonsym.gmres,
    "bicg": nonsym.bicg,
    "qmr": nonsym.qmr,
    "qmr-alt": nonsym.qmr_alt,
    "bidiag": nonsym.bidiag_solve,
    "cgs": nonsym.cgs,
    "bicgstab": nonsym.bicgstab,
}


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv(path, config_pairs, header, rows):
    lines = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in config_pairs), header]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _load_problem(args, parser):
    if getattr(args, "matrix", None):
        with open(args.matrix) as fh:
            t = storage.read_matrix_market(fh.read())
        a = storage.build(t, "row")
        if getattr(args, "rhs", None):
            with open(args.rhs) as fh:
                b = storage.read_vector_market(fh.read(), t.n)
        else:
            b = a.matvec(np.ones(t.n))
        return problems.ProblemInstance(a, b, None, f"file({args.matrix})")
    name = args.problem
    if name == "poisson":
        return problems.poisson_test(args.n)
    if name == "cavity":
        return problems.cavity_laplace(args.n, args.delta)
    if name == "hilbert":
        return problems.hilbert(args.n, shift=args.shift)
    if name == "indefinite":
        return problems.indefinite_kron(args.n)
    if name == "random":
        return problems.random_sparse(args.n, args.density, seed=args.seed)
    parser.error(f"unknown problem {name!r}")


def cmd_generate(args, parser):
    inst = _load_problem(args, parser)
    t = storage.to_triplets(inst.a).coalesced()
    diags = stationary.diagnostics(inst.a)
    if isinstance(inst.a, np.ndarray):
        print("warning: matrix is dense; MatrixMarket output stores every entry",
              file=sys.stderr)
    _write_text(args.out, storage.write_matrix_market(t, symmetric=diags["symmetric"]))
    rhs_path = args.rhs_out or _default_rhs_path(args.out)
    _write_text(rhs_path, storage.write_vector_market(inst.b))
    print(f"n={t.n} nnz={t.nnz} matrix={args.out} rhs={rhs_path}")
    for key, val in sorted(diags.items()):
        print(f"{key}={val}")
    return 0


def _default_rhs_path(out):
    root, ext = os.path.splitext(out)
    return f"{root}_rhs{ext or '.mtx'}"


def _parse_method(spec):
    """Split "gmres,restart=5" into ("gmres", 5).  The restart length, None
    when not given, is gmres's one option; any other option is a ValueError."""
    name, *opts = (tok.strip() for tok in spec.split(","))
    restart = None
    for key, _, val in (opt.partition("=") for opt in opts):
        if (name, key.strip()) != ("gmres", "restart"):
            raise ValueError(f"method {name!r} takes no option {key.strip()!r}")
        restart = int(val)
    return name, restart


def _build_preconditioner(spec, inst, block_size, parser):
    if spec in (None, "none"):
        return None, None
    if spec == "jacobi":
        return pcmod.jacobi_preconditioner(inst.a), None
    if spec in ("ic", "mic"):
        t = storage.to_triplets(inst.a)  # the band offset is that of the outermost entry
        band = max(1, int(np.max(np.abs(t.cols - t.rows), initial=0)))
        factory = pcmod.ic0_pentadiagonal if spec == "ic" else pcmod.mic_pentadiagonal
        factors = factory(inst.a, band)
        return (lambda r: pcmod.apply_ic_solve(factors, r)), None
    if spec == "block":
        factors = pcmod.block_precond(inst.a, block_size)
        return (lambda r: pcmod.apply_block_solve(factors, r)), None
    if spec.startswith("poly:"):
        return None, int(spec.split(":", 1)[1])
    parser.error(f"unknown preconditioner {spec!r}")


def cmd_solve(args, parser):
    inst = _load_problem(args, parser)
    method, restart = _parse_method(args.method)
    symmetric_methods = ("cg", "cg-basic", "minres", "chebyshev")
    if method in symmetric_methods and not stationary._is_symmetric(inst.a):
        print(f"warning: method {method} assumes a symmetric matrix", file=sys.stderr)

    spec = args.precond
    applies = ("cg",) if spec.startswith("poly:") else ("cg", *_KRYLOV)
    if spec != "none" and method not in applies:
        raise ValueError(f"method {method} does not apply --precond {spec}")
    try:
        c_apply, poly_m = _build_preconditioner(spec, inst, args.block_size, parser)
        true_norms = [] if method in _QUASI or (method, spec) == ("cg", "none") else None
        callback = _true_residuals(inst, c_apply, true_norms)
        t0 = time.perf_counter()
        report = _dispatch_solve(method, restart, inst, args, parser, c_apply, poly_m,
                                 callback)
    except pcmod.IcBreakdownError as exc:  # other ValueErrors exit 2 from main
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BREAKDOWN
    wall_ms = (time.perf_counter() - t0) * 1e3

    rows, header = _history_rows(report, true_norms, method in _QUASI)
    pairs = [("command", "solve"), ("problem", inst.label), ("method", args.method),
             ("precond", spec), ("tol", args.tol), ("tol_kind", args.tol_kind)]
    _write_csv(args.out, pairs, header, rows)
    status = report.status if report.status != BREAKDOWN else f"breakdown({report.reason})"
    print(f"{status} {report.iterations} {report.final_residual:.17g} "
          f"{wall_ms:.3f}")
    if report.status == CONVERGED:
        return 0
    return _EXIT_BREAKDOWN if report.status == BREAKDOWN else _EXIT_NOT_CONVERGED


def _true_residuals(inst, c_apply, norms):
    """None without ``norms``, else a callback appending to them ||C b - C A x||
    (C = I without ``c_apply``) of each event's ``x``, bitwise as _Run forms it."""
    if norms is None:
        return None
    a_apply, c_apply = storage.operator(inst.a)[0], c_apply or (lambda v: v)
    cb = c_apply(np.asarray(inst.b, dtype=float))
    return lambda event: norms.append(float(np.linalg.norm(cb - c_apply(a_apply(event["x"])))))


def _dispatch_solve(method, restart, inst, args, parser, c_apply, poly_m, callback):
    a, b = inst.a, inst.b
    kw = dict(tol=args.tol, tol_kind=args.tol_kind, max_iter=args.max_iter)
    if method in _STATIONARY:
        cfg = stationary.StationaryConfig(method=method.replace("-", "_"), omega=args.omega,
                                          block_size=args.block_size, **kw)
        return stationary.iterate(a, b, cfg)
    if method == "chebyshev":
        if args.alpha is None or args.beta is None:
            parser.error("chebyshev needs --alpha and --beta")
        base = stationary.split(a, args.base.replace("-", "_"),
                                omega=args.omega, block_size=args.block_size)
        return semi_iterative(base, b, args.alpha, args.beta, **kw)
    kw["callback"] = callback
    if method == "cg-basic":
        return cg_basic(a, b, **kw)
    if method == "cg":
        return _solve_cg(inst, c_apply, poly_m, **kw)
    if method == "minres":
        return symmetric.minres(a, b, **kw)
    if method not in _KRYLOV:
        parser.error(f"unknown method {method!r}")
    kw["c_apply"] = c_apply
    if method == "gmres":
        kw["restart"] = restart
        if restart is not None and args.max_iter is None:
            kw["max_iter"] = 10 * inst.n  # restarts forfeit finite termination
    return _KRYLOV[method](a, b, **kw)


def _solve_cg(inst, c_apply, poly_m, **kw):
    """CG, PCG with ``c_apply``, or polynomial PCG of degree ``poly_m``."""
    a, b = inst.a, inst.b
    if poly_m is not None:
        lmin, lmax = estimate_extremes_by_cg(a, b, iters=min(25, inst.n))
        return pcmod.solve_poly_pcg(a, b, poly_m, lmin, lmax, **kw)
    if c_apply is not None:
        return pcmod.pcg(a, b, c_apply, **kw)
    return cg(a, b, **kw)


def _history_rows(report, true_norms, quasi):
    """CSV rows and header: the history, with the true norms (``true_norms``
    after ||r_0||, when given) in its place or, when ``quasi``, beside it."""
    h = report.history
    if "history_tags" in report.extras:  # bicgstab: after r_0, alternately half and full steps
        return [(j / 2, v, j % 2) for j, v in enumerate(h)], "iter,residual_norm,half_step"
    true = h if true_norms is None else [h[0], *true_norms]
    if quasi:  # minres/qmr family: true norm + quasi residual
        return [(float(i), t, q) for i, (t, q) in enumerate(zip(true, h))], \
            "iter,residual_norm,quasi_residual"
    return [(float(i), t) for i, t in enumerate(true)], "iter,residual_norm"


def cmd_spectrum(args, parser):
    inst = _load_problem(args, parser)
    n = inst.n
    rows = []
    if args.methods:
        for name in args.methods.split(","):
            name = name.strip()
            if name not in _STATIONARY:
                parser.error(f"spectrum --methods does not support {name!r}")
            g = stationary.iteration_matrix_applier(
                inst.a, name.replace("-", "_"), omega=args.omega,
                block_size=args.block_size)
            rows.append((name, spectral_radius_estimate(g, n)))
        header = "method,rho"
    elif args.sweep:
        if not (0.0 < args.omega_min < args.omega_max < 2.0):
            parser.error("sweep bounds must satisfy 0 < min < max < 2")
        if not 0.0 < args.omega_step < np.inf:
            parser.error("--omega-step must be positive and finite")
        omega = args.omega_min
        while omega <= args.omega_max + 1e-12:
            g = stationary.iteration_matrix_applier(inst.a, args.sweep, omega=omega)
            rows.append((omega, spectral_radius_estimate(g, n)))
            omega += args.omega_step
        header = "omega,rho"
    else:
        parser.error("spectrum needs --methods or --sweep")
    pairs = [("command", "spectrum"), ("problem", inst.label),
             ("sweep", args.sweep or "none"), ("methods", args.methods or "none"),
             ("omega_step", args.omega_step)]
    _write_csv(args.out, pairs, header, rows)
    return 0


def cmd_precond_compare(args, parser):
    n_list = [int(tok) for tok in args.n_list.split(",")]
    methods = [tok.strip() for tok in args.methods.split(",")]
    rows = []
    for N in n_list:
        inst = problems.poisson_test(N)
        for name in methods:
            spec = "none" if name == "cg" else name
            c_apply, poly_m = _build_preconditioner(spec, inst, None, parser)
            rep = _solve_cg(inst, c_apply, poly_m, tol=args.tol, tol_kind="abs",
                            max_iter=100 * inst.n)
            rows.append((N, name, rep.iterations))
    pairs = [("command", "precond-compare"), ("tol", args.tol),
             ("methods", args.methods)]
    _write_csv(args.out, pairs, "n,method,iterations", rows)
    return 0


def cmd_eigs(args, parser):
    inst = _load_problem(args, parser)
    lam_min, lam_max = estimate_extremes_by_cg(inst.a, inst.b, iters=min(args.iters, inst.n),
                                               tol_eig=1e-12)
    pairs = [("command", "eigs"), ("problem", inst.label), ("iters", args.iters)]
    _write_csv(args.out, pairs, "which,value",
               [("lambda_min", lam_min), ("lambda_max", lam_max)])
    return 0


def _add_problem_args(p):
    p.add_argument("--problem", choices=["poisson", "cavity", "hilbert",
                                         "indefinite", "random"])
    p.add_argument("--matrix", help="MatrixMarket file instead of a generator")
    p.add_argument("--rhs", help="MatrixMarket n x 1 right-hand side file")
    p.add_argument("--n", type=int, default=10, help="problem size parameter")
    p.add_argument("--delta", type=float, default=0.3, help="cavity outlet width")
    p.add_argument("--shift", type=float, default=0.0, help="hilbert diagonal shift")
    p.add_argument("--density", type=float, default=0.04, help="random density")
    p.add_argument("--seed", type=int, default=0, help="random generator seed")


def build_parser():
    parser = argparse.ArgumentParser(prog="krylov",
                                     description="sparse iterative solver harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a problem as MatrixMarket files")
    _add_problem_args(p)
    p.add_argument("--out", required=True, help="matrix output path")
    p.add_argument("--rhs-out", help="rhs output path (default: <out>_rhs)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve a problem, CSV residual history")
    _add_problem_args(p)
    p.add_argument("--method", required=True,
                   help="jacobi|gauss-seidel|sor|ssor|block-jacobi|block-gs|"
                        "chebyshev|cg|cg-basic|minres|gmres[,restart=k]|bicg|"
                        "qmr|qmr-alt|bidiag|cgs|bicgstab")
    p.add_argument("--precond", default="none",
                   help="none|jacobi|ic|mic|block|poly:m (cg and the nonsymmetric "
                        "krylov methods, poly:m cg only; ic and mic take the band "
                        "offset of A's outermost entry)")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--base", default="jacobi",
                   help="chebyshev baseline splitting: any stationary method")
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--tol-kind", default="rel_to_r0",
                   choices=["abs", "rel_to_b", "rel_to_r0"])
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--out", default="-", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="spectral radii of iteration matrices")
    _add_problem_args(p)
    p.add_argument("--methods", help="comma list of stationary methods: jacobi,"
                   "gauss-seidel,sor,ssor,block-jacobi,block-gs (sor and ssor need --omega)")
    p.add_argument("--sweep", choices=["sor", "ssor"])
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--omega-min", type=float, default=0.05)
    p.add_argument("--omega-max", type=float, default=1.95)
    p.add_argument("--omega-step", type=float, default=0.05)
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("precond-compare",
                       help="iteration counts of CG vs preconditioned CG")
    p.add_argument("--n-list", default="10,20,30,40,50")
    p.add_argument("--methods", default="cg,ic,mic")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_precond_compare)

    p = sub.add_parser("eigs", help="extreme eigenvalue estimates")
    _add_problem_args(p)
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_eigs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
