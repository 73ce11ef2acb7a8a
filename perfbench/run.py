"""spherelag benchmark.

One workload:

    python3 perfbench/run.py --workload interp-ico5 --seed 1 --seconds 10 --trace 0

prints the workload's figures, a `report` line with all of them as JSON, and
as its last line the result: `correct`, `attempted`, `failed` and the metrics
BENCHMARK.json lists (`end_to_end` with --trace 0, `per_layer` with --trace 1).

All workloads, each in a fresh process, with a summary table written to
perfbench/out/:

    python3 perfbench/run.py --all --seed 1 [--trace 1] [--size smoke]

Exit codes: 0 with a result printed, 1 when --all saw a failed or incorrect
workload, 2 when the benchmark cannot run (no package source, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
PACKAGE = ROOT / "src" / "spherelag" / "__init__.py"

BLAS_THREADS = 1

# Units of the figures a report carries besides the BENCHMARK.json metrics.
REPORT_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "eval_pts_per_s": "1/s",
    "serve_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "gmres_iters": "count",
    "resid_rel": "ratio",
    "interp_err": "abs",
    "quasi_err": "abs",
    "error_rate": "ratio",
}

# Per-layer figures that are computed from array sizes, not measured.
COMPUTED = {"locallag.stencil_gflop", "kernel.bytes_computed"} | {
    f"kernel.entries.{site}" for site in ("materialize", "matvec", "eval", "stencil")
}


def pin_blas_threads():
    """Pin BLAS and OpenMP to one thread; must run before numpy is imported.

    On the 2-core machine the baseline was measured on, one thread ran the
    matrix-free matvec in 3.5-3.8 s against 4.1-5.1 s with two, and the
    radius-mode build no slower: the matvec is memory-bound and the stencil
    systems are too small for threaded LU.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment(nproc, args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_one(args, spec):
    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads as W

    env = environment(nproc, args)
    print("env " + json.dumps(env), flush=True)
    wl = W.WORKLOADS[args.workload]
    size = wl.sizes[args.size]
    ops = W.Ops()
    rng = np.random.default_rng([args.seed, 1])  # draws for the sampled checks
    report = {"env": env}
    try:
        inp = W.make_inputs(size, args.seed)
        with W.workdir_in(OUT_DIR) as workdir:
            if args.trace:
                import tracing as T

                spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
                metrics, replay_s = T.traced_run(wl, size, inp, ops, rng, workdir, str(spans))
                report.update(replay_s=replay_s, spans=str(spans.relative_to(ROOT)))
            else:
                metrics = W.timed_run(wl, size, inp, args.seconds, ops, rng, workdir)
        report["n_nodes"] = int(inp.points.shape[0])
        report["n_probe"] = int(inp.probes.shape[0])
    except Exception:  # the run's boundary: record the failure and report it
        traceback.print_exc()
        ops.record("run", ["raised " + traceback.format_exc().strip().splitlines()[-1]])
        metrics = {}

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        metrics["error_rate"] = ops.failed / ops.attempted
        for name, unit in REPORT_UNITS.items():
            print(f"  {name:<34} {fmt(metrics.get(name)):>14} {unit}")
        print(f"  {'operations':<34} {ops.attempted:>14} attempted, {ops.failed} failed")
    else:
        for m in listed:
            note = " (computed)" if m["name"] in COMPUTED else ""
            print(f"  {m['name']:<34} {fmt(metrics.get(m['name'])):>14} {m['unit']}{note}")
    for failure in ops.failures:
        print(f"  FAILED {failure}")
    report.update(metrics=metrics, failures=ops.failures)
    print("report " + json.dumps(report), flush=True)

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, spec):
    """Every workload in its own process; a table of every figure and a results file."""
    rows = {}
    ok = True
    for w in spec["workloads"]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", w["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        print(f"== {w['name']}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("report ")))
        report = next((json.loads(line[7:]) for line in lines if line.startswith("report ")), {})
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
        ok = ok and result.get("correct", False)
        rows[w["name"]] = {"result": result, "report": report, "returncode": proc.returncode}

    names = list(rows)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]} if args.trace else REPORT_UNITS
    print(f"\n{'metric':<34} {'unit':<8}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in units.items():
        cells = [fmt(rows[n]["report"].get("metrics", {}).get(metric)) for n in names]
        print(f"{metric:<34} {unit:<8}" + "".join(f"{c:>16}" for c in cells))
    print(f"{'correct':<43}" + "".join(f"{str(rows[n]['result'].get('correct')):>16}" for n in names))

    OUT_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT_DIR / f"results-{args.size}-trace{args.trace}-seed{args.seed}-{stamp}.json"
    path.write_text(json.dumps(rows, indent=1))
    print(f"results written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="one workload named in BENCHMARK.json")
    which.add_argument("--all", action="store_true", help="every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed passes last at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not PACKAGE.is_file() or not SPEC_PATH.is_file():
        print(f"error: needs {PACKAGE.relative_to(ROOT)} and BENCHMARK.json beside perfbench/", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.all:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
