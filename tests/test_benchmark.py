"""Each workload of BENCHMARK.json runs once at smoke scale, through
perfbench/run.py in a process of its own, with a correct result and no
failed operation: a change to the part of the API that the benchmark uses
shows here, not first in a benchmark run."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly_at_smoke_scale(workload):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.01", "--trace", "0", "--scale", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
