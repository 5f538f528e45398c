#!/usr/bin/env python3
"""Smoke test of the benchmark harness.

Runs every workload at a reduced size (``--scale smoke``), untraced and
traced, each in its own process, and checks that the oracle passes, that the
last output line has the result shape and that every metric BENCHMARK.json
names is present with its unit.  Exits 0 when all pass.

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        failures = [ln for ln in proc.stdout.splitlines() if ln.startswith("# FAILED")]
        return f"oracle failed: {failures}"
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        return f"metric names or units differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}"
    return None


def main():
    problems = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            error = run(workload, trace)
            print(f"{'FAIL' if error else 'ok  '} {workload} trace={trace}" +
                  (f": {error}" if error else ""), flush=True)
            problems += error is not None
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
