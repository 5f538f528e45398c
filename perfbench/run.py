#!/usr/bin/env python3
"""Benchmark of the krylov library: time to tolerance on five workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --check        # exact counts against pinned.json
    python3 perfbench/run.py --pin          # rewrite pinned.json

One run measures passes over a workload for ``--seconds`` seconds (always at
least one pass, and no pass is started that would not end in time) and
prints human-readable lines followed, as its last line, by one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics, from a run that alternates
untraced and traced passes.  The library is imported from ``src/`` next to
this directory and nowhere else; without it the run exits with code 2.
"""

import os
import sys

# BLAS/OpenMP pools pinned to one thread before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("KRYLOV_SEED", None)  # the CLI would let it override --seed
sys.dont_write_bytecode = True  # leave no __pycache__ behind in the checkout

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PINNED_PATH = BENCH_DIR / "pinned.json"
BASELINE_PATH = BENCH_DIR / "baseline.json"
WORK_ROOT = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 900
BASELINE_SEEDS = 10
SETUP_SHARE = 0.1  # share of each untraced round spent on set-up-only passes


class SetupError(Exception):
    """The checkout lacks what the benchmark needs (library or spec)."""


def import_library():
    src = ROOT / "src"
    if not (src / "krylov" / "__init__.py").is_file():
        raise SetupError(f"no krylov package under {src}")
    sys.path.insert(0, str(src))
    import krylov
    if Path(krylov.__file__).resolve().parent != (src / "krylov").resolve():
        raise SetupError(f"krylov imported from {krylov.__file__}, not from {src}")


def load_spec():
    if not SPEC_PATH.is_file():
        raise SetupError(f"missing {SPEC_PATH.name}")
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment():
    """Machine, versions and thread settings recorded with every result."""
    import numpy
    import scipy
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        size = _read(base + "size")
        if size is None:
            break
        caches[f"L{_read(base + 'level')}{(_read(base + 'type') or '')[:1].lower()}"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(), "caches_reported": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    import numpy as np
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(samples, q))
    return None


def _ratio(num, den):
    return num / den if den else 0.0


def pass_layers(p, nonsymmetric_labels):
    """Per-layer numbers of one traced pass."""
    from tracing import reduce_spans
    by_name, by_case, (_, self_sum) = reduce_spans(p.tracer.spans)
    calls = lambda n: by_name.get(n, (0, 0.0, 0.0))[0]
    total = lambda n: by_name.get(n, (0, 0.0, 0.0))[1]
    own = lambda n: by_name.get(n, (0, 0.0, 0.0))[2]

    def cases_of(*names):
        return [c for c, (_, _, name) in p.cases.items() if name in names]

    def iters(*names):
        return sum(p.cases[c][1] for c in cases_of(*names))

    def children(child_prefix, *names):
        return sum(n for c in cases_of(*names) for child, n in by_case.get(c, {}).items()
                   if child.startswith(child_prefix))

    applies = [n for n in by_name if n.startswith("precond.apply.")]
    stationary = ("stationary.iterate", "stationary.ssor")
    nonsym = tuple(f"nonsymmetric.{label}" for label in nonsymmetric_labels)
    m = {
        "problems.generate_s": total("problems.generate"),
        "storage.matvec_calls": calls("storage.matvec"),
        "storage.matvec_s": total("storage.matvec"),
        "storage.rmatvec_calls": calls("storage.rmatvec"),
        "storage.rmatvec_s": total("storage.rmatvec"),
        "precond.build_s": total("precond.build"),
        "precond.apply_calls": sum(calls(n) for n in applies),
        "precond.apply_s": sum(total(n) for n in applies),
        "precond.pcg_self_s": own("precond.pcg") + own("precond.poly_pcg"),
        "precond.poly_matvecs_per_iter": _ratio(children("storage.matvec", "precond.poly_pcg"),
                                                iters("precond.poly_pcg")),
        "stationary.split_s": total("stationary.split"),
        "stationary.solve_s": sum(total(n) for n in stationary),
        "stationary.ms_per_iter": 1e3 * _ratio(sum(total(n) for n in stationary),
                                               iters(*stationary)),
        "chebyshev.solve_s": total("chebyshev.semi_iterative"),
        "chebyshev.iterations": iters("chebyshev.semi_iterative"),
        "core.power_steps": calls("core.g_apply"),
        "core.power_steps_per_estimate": _ratio(calls("core.g_apply"),
                                                calls("core.spectral_radius")),
        "core.spectral_radius_s": total("core.spectral_radius"),
        "core.g_apply_us": 1e6 * _ratio(total("core.g_apply"), calls("core.g_apply")),
        "cg.solve_s": total("cg.cg"),
        "cg.self_s": own("cg.cg"),
        "cg.self_ms_per_iter": 1e3 * _ratio(own("cg.cg"), iters("cg.cg")),
        "cg.matvecs_per_iter": _ratio(children("storage.matvec", "cg.cg"), iters("cg.cg")),
        "symmetric.minres_self_s": own("symmetric.minres"),
        "symmetric.matvecs_per_iter": _ratio(children("storage.matvec", "symmetric.minres"),
                                             iters("symmetric.minres")),
        "nonsymmetric.self_s": sum(own(n) for n in nonsym),
        "nonsymmetric.ops_per_iter": _ratio(
            sum(children(prefix, *nonsym) for prefix in ("storage.", "precond.apply.")),
            iters(*nonsym)),
        "cli.main_s": total("cli.main"),
        "cli.overhead_s": total("cli.main") - p.extra.get("cli.solve_s", 0.0),
        "cli.csv_bytes": p.extra.get("cli.csv_bytes", 0),
        "trace.solve_s": p.solve_s,
        "trace.self_sum_s": self_sum,
    }
    for kind in ("jacobi", "ic", "mic", "block"):
        name = f"precond.apply.{kind}"
        m[f"precond.apply_us.{kind}"] = 1e6 * _ratio(total(name), calls(name))
    for name in nonsym:
        m[f"{name}.solve_s"] = total(name)
    for case, (seconds, iterations, _) in p.cases.items():
        # a CLI command that solves nothing (generate, precond-compare) has no
        # solve time, and generate has no iterations either
        if seconds:
            m[f"{case}.solve_s"] = seconds
        if iterations:
            m[f"{case}.iterations"] = iterations
    return m


def pass_counts(p):
    """Exact per-case counts of one traced pass (for pinned.json)."""
    from tracing import reduce_spans
    _, by_case, _ = reduce_spans(p.tracer.spans)
    out = {}
    for case in ["setup", *p.cases]:
        counts = {"iterations": p.cases[case][1]} if case in p.cases else {}
        for child, n in sorted(by_case.get(case, {}).items()):
            key = "apply" if child.startswith("precond.apply.") else child.split(".")[1]
            counts[key] = counts.get(key, 0) + n
        if counts:
            out[case] = counts
    return out


def run_pass(wl, st, traced, clock, setup_only=False):
    from tracing import Pass, Tracer, perf
    p = Pass(tracer=Tracer() if traced else None, setup_only=setup_only, clock=clock)
    t0 = perf()
    wl.run(p, st)
    failures = p.finish()
    return p, failures, perf() - t0


def measure(wl, st, seconds, traced_too):
    """Rounds of passes until the next round would overrun ``seconds``.

    Returns lists of (pass, failures) for untraced and traced passes, and
    the set-up times of set-up-only passes.  When ``traced_too`` each round
    is one untraced and one traced pass, in alternating order so that
    neither side always runs first.  Otherwise, if the workload can repeat
    its set-up alone, each pass is followed by as many set-up-only passes as
    fit in ``SETUP_SHARE`` of the pass's time, and the time left after the
    last round is filled with them too, so that ``setup_s`` is a median over
    many builds even where full passes are few.
    """
    from tracing import SpeedClock, perf
    start = perf()
    clock = SpeedClock(wl.calibrated)
    runs = {False: [], True: []}
    setups = []
    rounds = []
    repeat_setup = not traced_too and wl.repeat_setup

    def setup_passes(until, cost):
        while perf() + cost <= until:
            q, _, cost = run_pass(wl, st, False, clock, setup_only=True)
            setups.append(q.setup_ref_s)
        return cost

    while True:
        t0 = perf()
        order = (False, True) if len(rounds) % 2 == 0 else (True, False)
        for traced in order if traced_too else (False,):
            p, failures, _ = run_pass(wl, st, traced, clock)
            runs[traced].append((p, failures))
        if repeat_setup:
            cost = setup_passes(perf() + SETUP_SHARE * (perf() - t0), p.setup_s)
        rounds.append(perf() - t0)
        if perf() - start + max(rounds) > seconds:
            if repeat_setup:
                setup_passes(start + seconds, cost)
            return runs[False], runs[True], setups


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args, spec):
    from workloads import NONSYMMETRIC, WORKLOADS
    if args.workload not in WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    workdir = WORK_ROOT / str(os.getpid())
    try:
        st = wl.prepare(args.seed, args.scale, str(workdir))
        if args.counts:
            from tracing import SpeedClock
            p, failures, _ = run_pass(wl, st, True, SpeedClock())
            print(json.dumps({"failed": [f"{op.case}: {op.error}" for op in failures],
                              "counts": pass_counts(p)}, sort_keys=True))
            return 0
        plain, traced, setups = measure(wl, st, args.seconds, traced_too=bool(args.trace))
        micro = wl.micro(st) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    runs = plain + traced
    attempted = sum(len(p.ops) for p, _ in runs)
    failures = [op for _, fails in runs for op in fails]
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace} "
          f"scale {args.scale} passes {len(plain)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-up only")
    for op in failures[:20]:
        print(f"# FAILED {op.case}: {op.error}")
    timings = {"time_to_solution_s": [p.setup_ref_s + p.solve_ref_s for p, _ in plain],
               "setup_s": [p.setup_ref_s for p, _ in plain] + setups,
               "solve_s": [p.solve_ref_s for p, _ in plain]}
    if args.trace:
        wall_ttl = [p.setup_s + p.solve_s for p, _ in plain]
        metrics = per_layer(spec, traced, micro, wall_ttl, NONSYMMETRIC,
                            full=args.scale == "full")
    else:
        iterations = statistics.median_low([p.iterations for p, _ in plain])
        computed = {name: statistics.median(v) for name, v in timings.items()}
        computed["iterations"] = iterations
        computed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {m["name"]: _metric(computed[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    for name, samples in timings.items():
        t = tail(samples)
        pct = f"p{t[0]:g} = {t[1]:.6g} s" if t else "no percentile has 10 samples beyond it"
        print(f"{name} = {statistics.median(samples):.6g} s  (median of {len(samples)} "
              f"samples; {pct}; samples {' '.join(f'{v:.4g}' for v in samples)})")
    wall = {"time_to_solution_s": [p.setup_s + p.solve_s for p, _ in plain],
            "setup_s": [p.setup_s for p, _ in plain], "solve_s": [p.solve_s for p, _ in plain]}
    speed = [(p.setup_ref_s + p.solve_ref_s) / (p.setup_s + p.solve_s) for p, _ in plain]
    print(f"reference seconds calibrate {' and '.join(wl.calibrated)}; wall medians: " +
          ", ".join(f"{name} = {statistics.median(v):.6g} s" for name, v in wall.items()) +
          f"  (reference per wall second, per pass: {' '.join(f'{v:.3f}' for v in speed)})")
    if not args.trace:
        print(f"iterations = {metrics['iterations']['value']} count  (per pass)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"fail_ratio = {_ratio(len(failures), attempted):.6g}  "
          f"({len(failures)} of {attempted} operations failed)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def per_layer(spec, traced, micro, untraced_ttl, nonsymmetric, full):
    """Per-layer metrics: medians over traced passes, microbenchmarks, overhead."""
    labels = [label for label, _, _ in nonsymmetric]
    rows = [pass_layers(p, labels) for p, _ in traced]
    computed = {k: statistics.median_low(row.get(k, 0) for row in rows) for k in rows[0]}
    computed.update(micro)
    traced_ttl = statistics.median(p.setup_s + p.solve_s for p, _ in traced)
    computed["trace.overhead_s"] = traced_ttl - statistics.median(untraced_ttl)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    unknown = sorted(set(computed) - set(units))
    if unknown and full:
        raise SetupError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return {name: _metric(computed.get(name, 0), unit) for name, unit in units.items()}


def _child(args, workload, extra=()):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SetupError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return lines[:-1], json.loads(lines[-1])


def run_all(args, spec):
    """Every workload, each in its own process so peak RSS is its own."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        lines, result = _child(args, name)
        print(f"== {name}")
        print("\n".join(line for line in lines if not line.startswith("# env")))
        results[name] = result
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def run_baseline(args, spec):
    """Ten-seed steadiness check; records the medians in baseline.json.

    For each workload and end-to-end metric, the spread is the distance
    between the first and third quartile of the per-seed values as a share
    of their median.  Every spread should stay under a third of the
    metric's bound.
    """
    from workloads import WORKLOADS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.seed, args.seed + BASELINE_SEEDS))
    table, steady = {}, True
    for name in WORKLOADS:
        values = {}
        for seed in seeds:
            _, result = _child(argparse.Namespace(**{**vars(args), "seed": seed, "trace": 0}), name)
            steady &= result["correct"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        table[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[metric] / 3
            steady &= ok
            table[name][metric] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                   "spread": spread, "values": vals}
            print(f"{name:22s} {metric:20s} median {statistics.median(vals):<12.6g} "
                  f"spread {spread:.4f} bound {bounds[metric]}{'' if ok else '  TOO WIDE'}",
                  flush=True)
    with open(BASELINE_PATH, "w") as fh:
        json.dump({"seeds": seeds, "seconds": args.seconds, "environment": environment(),
                   "workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if steady else 1


def run_check(args, pin):
    """Compare exact per-case counts at the default seed with pinned.json."""
    from workloads import WORKLOADS
    fresh = {}
    for name in WORKLOADS:
        _, result = _child(args, name, ["--counts"])
        if result["failed"]:
            print(f"{name}: failed operations: {result['failed']}")
            return 1
        fresh[name] = result["counts"]
    if pin:
        with open(PINNED_PATH, "w") as fh:
            json.dump({"seed": args.seed, "counts": fresh}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {PINNED_PATH.name}")
        return 0
    with open(PINNED_PATH) as fh:
        pinned = json.load(fh)["counts"]
    mismatches = []
    for wl in sorted(set(pinned) | set(fresh)):
        want, got = pinned.get(wl, {}), fresh.get(wl, {})
        for case in sorted(set(want) | set(got)):
            for key in sorted(set(want.get(case, {})) | set(got.get(case, {}))):
                a, b = want.get(case, {}).get(key), got.get(case, {}).get(key)
                if a != b:
                    mismatches.append(f"{wl} {case} {key}: pinned {a}, now {b}")
    print("\n".join(mismatches) or "all pinned counts match")
    return 1 if mismatches else 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke runs every workload at a reduced size")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="every workload, one process each")
    mode.add_argument("--check", action="store_true", help="compare exact counts with pinned.json")
    mode.add_argument("--pin", action="store_true", help="rewrite pinned.json")
    mode.add_argument("--baseline", action="store_true",
                      help="ten seeds per workload: spreads, and rewrite baseline.json")
    mode.add_argument("--counts", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.all or args.check or args.pin or args.baseline) and not args.workload:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        import_library()
        spec = load_spec()
        if args.all:
            return run_all(args, spec)
        if args.baseline:
            return run_baseline(args, spec)
        if args.check or args.pin:
            return run_check(args, args.pin)
        return run_workload(args, spec)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
