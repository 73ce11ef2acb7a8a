"""Tests of the benchmark harness itself, at the smoke size of each workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(NAMES) <= 8 and len(set(NAMES)) == len(NAMES)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--size", "smoke")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    size = workloads.WORKLOADS["quasi-fib-wide"].sizes["smoke"]
    a, b, c = (workloads.make_inputs(size, s) for s in (5, 5, 6))
    assert np.array_equal(a.points, b.points) and np.array_equal(a.noise, b.noise)
    assert not np.array_equal(a.points, c.points)
    # a rotation: the pairwise geometry, hence N and the stencils, stays
    assert np.allclose(a.points @ a.points.T, c.points @ c.points.T, atol=1e-12)


def test_fails_cleanly_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
