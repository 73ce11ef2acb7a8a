"""Workloads of the spherelag benchmark: seeded inputs, timed passes, gates.

A pass runs one workload's pipeline once, from nodes in memory to its last
output, through the package's public functions. Every call goes through a
probe: `Untraced` adds nothing, the tracer in tracing.py records spans. The
correctness gates run after a pass, outside every timed region.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import spherelag as sl
from spherelag.locallag import MATERIALIZE_LIMIT

SPEC_M = 2
TOL = 1e-6
MAXIT = 200

# Builds per timed run, counting the one inside the pass; setup_s is their median.
SETUP_REPEATS = 2

# Correctness gates.
RESID_MAX = 1e-5  # relative sup-norm residual at the nodes, per solve
INTERP_ERR_MAX = 1e-5  # smooth-field interpolant at the probes
QUASI_ERR_MAX = 5e-2  # smooth-field quasi-interpolants, quasi-fib-wide only
CARDINAL_MAX = 1e-8  # |chi_xi(x_j) - delta_ij| on the stencil of a sampled centre
REF_RTOL = 1e-10  # blocked evaluation against the direct kernel sum
N_SAMPLE = 64  # centres, nodes or probes drawn for each sampled check
CARDINAL_NEAR = 16  # fewer than the smallest footprint of any workload

# Smooth test fields, the same as the CLI's `study convergence --f` fields.
FIELDS = {
    "expz": lambda x: np.exp(x[:, 2]),
    "linear": lambda x: 0.3 + x[:, 0] - 2.0 * x[:, 1] + 0.5 * x[:, 2],
}


@dataclass(frozen=True)
class Size:
    make_nodes: Callable[[], sl.NodeSet]
    n_probe: int
    materialize_limit: int = MATERIALIZE_LIMIT


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "interp", "quasi" or "matfree"
    footprint: sl.FootprintRule | None  # None: the package default count rule
    sizes: dict  # "full" and "smoke" -> Size


WORKLOADS = {
    w.name: w
    for w in (
        # N = 10242 < MATERIALIZE_LIMIT: the dense kernel matrix is built per solve.
        Workload(
            "interp-ico5",
            "interp",
            None,
            {
                "full": Size(lambda: sl.gen_icosahedral(5), 10_000),
                "smoke": Size(lambda: sl.gen_icosahedral(4), 1_000),
            },
        ),
        # Radius footprints, stencils of 290-310 nodes: n^3-heavy build, no solve.
        Workload(
            "quasi-fib-wide",
            "quasi",
            sl.FootprintRule(mode="radius", M=4.5),
            {
                "full": Size(lambda: sl.gen_fibonacci(2562), 40_000),
                "smoke": Size(lambda: sl.gen_fibonacci(1600), 2_000),
            },
        ),
        # N = 12962 > MATERIALIZE_LIMIT: every matvec recomputes N^2 kernel entries.
        # The smoke size lowers the limit so that it takes the same branch.
        Workload(
            "matfree-f36",
            "matfree",
            None,
            {
                "full": Size(lambda: sl.gen_icosahedral_freq(36), 0),
                "smoke": Size(lambda: sl.gen_icosahedral_freq(8), 0, materialize_limit=0),
            },
        ),
    )
}


# ---- seeded inputs ---- #

@dataclass
class Inputs:
    """Everything the program receives; all of it follows from the seed."""

    points: np.ndarray  # (N, 3) rotated nodes
    probes: np.ndarray  # (P, 3) rotated probe points
    noise: np.ndarray  # (N,) uniform on [-1, 1]
    fields: dict  # name -> (values at the nodes, values at the probes)


def random_rotation(rng):
    """Haar-distributed rotation of R^3."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def make_inputs(size, seed):
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    points = np.ascontiguousarray(size.make_nodes().points @ rot.T)
    probes = np.ascontiguousarray(sl.probe_sequence(max(size.n_probe, 1)) @ rot.T)
    probes = probes[: size.n_probe]
    noise = rng.uniform(-1.0, 1.0, points.shape[0])
    fields = {name: (f(points), f(probes)) for name, f in FIELDS.items()}
    return Inputs(points, probes, noise, fields)


# ---- probes: how a pass calls into the package ---- #

class Untraced:
    """Calls the package directly; spans cost nothing."""

    def span(self, name):
        return contextlib.nullcontext({})

    def solve(self, nodes, spec, basis, f, materialize_limit):
        return sl.interpolate_preconditioned(
            nodes, spec, basis, f, tol=TOL, maxit=MAXIT, materialize_limit=materialize_limit
        )


# ---- one pass ---- #

@dataclass
class Solve:
    label: str
    f: np.ndarray
    a: np.ndarray
    c: np.ndarray
    report: object
    seconds: float


@dataclass
class Evaluation:
    label: str  # the field: "expz", "linear" or "noise"
    kind: str  # "interp" or "quasi"
    a: np.ndarray  # kernel weights of the evaluated expansion
    c: np.ndarray  # harmonic weights
    values: np.ndarray  # at the probes
    limit: float | None  # gate on the max error; None if reported only
    seconds: float


@dataclass
class Pass:
    nodes: sl.NodeSet
    basis: object
    build_s: float = 0.0
    serve_s: float = 0.0
    total_s: float = 0.0
    solves: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    saved_basis: object = None  # the basis before its file round trip


def now():
    return time.perf_counter()


def build(probe, nodes, spec, footprint):
    with probe.span("locallag.build_local_basis"):
        return sl.build_local_basis(nodes, spec, footprint)


def _solve(probe, rec, size, spec, label, f):
    t0 = now()
    a, c, report = probe.solve(rec.nodes, spec, rec.basis, f, size.materialize_limit)
    rec.solves.append(Solve(label, f, a, c, report, now() - t0))
    return a, c


def _interp_eval(probe, rec, spec, inp, label, a, c):
    t0 = now()
    with probe.span("kernel.evaluate_expansion") as s:
        values = sl.evaluate_expansion(spec, rec.nodes.points, a, c, inp.probes)
    rec.evals.append(Evaluation(label, "interp", a, c, values, INTERP_ERR_MAX, now() - t0))
    s["kernel_entries"] = inp.probes.shape[0] * len(rec.nodes)


def _quasi_eval(probe, rec, inp, label, limit):
    f = inp.noise if label == "noise" else inp.fields[label][0]
    with probe.span("locallag.quasi_interpolate"):
        q = sl.quasi_interpolate(rec.basis, f)
    t0 = now()
    with probe.span("locallag.QuasiInterpolant.__call__") as s:
        values = q(inp.probes)
    seconds = now() - t0
    rec.evals.append(
        Evaluation(label, "quasi", q.kernel_weights, q.poly_weights, values, limit, seconds)
    )
    s["kernel_entries"] = inp.probes.shape[0] * len(rec.nodes)


def interp_pass(wl, size, inp, probe, workdir):
    """Build once, solve noise and expz, evaluate the expz interpolant and quasi-interpolant."""
    spec = sl.KernelSpec(SPEC_M)
    nodes = sl.NodeSet(inp.points)
    t0 = now()
    rec = Pass(nodes, build(probe, nodes, spec, wl.footprint))
    t1 = now()
    _solve(probe, rec, size, spec, "noise", inp.noise)
    a, c = _solve(probe, rec, size, spec, "expz", inp.fields["expz"][0])
    _interp_eval(probe, rec, spec, inp, "expz", a, c)
    # The default footprint is tuned for preconditioning; its quasi error is
    # reported, not gated (about 1e2 at N = 10242).
    _quasi_eval(probe, rec, inp, "expz", None)
    t2 = now()
    rec.build_s, rec.serve_s, rec.total_s = t1 - t0, t2 - t1, t2 - t0
    return rec


def quasi_pass(wl, size, inp, probe, workdir):
    """Build once, quasi-interpolate three fields and evaluate each at the probes."""
    spec = sl.KernelSpec(SPEC_M)
    nodes = sl.NodeSet(inp.points)
    t0 = now()
    rec = Pass(nodes, build(probe, nodes, spec, wl.footprint))
    t1 = now()
    _quasi_eval(probe, rec, inp, "expz", QUASI_ERR_MAX)
    _quasi_eval(probe, rec, inp, "linear", QUASI_ERR_MAX)
    _quasi_eval(probe, rec, inp, "noise", None)
    t2 = now()
    rec.build_s, rec.serve_s, rec.total_s = t1 - t0, t2 - t1, t2 - t0
    return rec


def matfree_pass(wl, size, inp, probe, workdir):
    """The CLI's build then solve: node file, build, basis file (npz), one noise solve."""
    spec = sl.KernelSpec(SPEC_M)
    node_path = os.path.join(workdir, "nodes.txt")
    basis_path = os.path.join(workdir, "basis.npz")
    t0 = now()
    with probe.span("geom.save_nodes"):
        sl.save_nodes(node_path, sl.NodeSet(inp.points))
    with probe.span("geom.load_nodes"):
        nodes = sl.load_nodes(node_path)
    tb = now()
    built = build(probe, nodes, spec, wl.footprint)
    t1 = now()
    with probe.span("locallag.save_basis") as s:
        sl.save_basis(basis_path, built)
    s["bytes"] = os.path.getsize(basis_path)
    with probe.span("locallag.load_basis"):
        rec = Pass(nodes, sl.load_basis(basis_path, nodes, spec), saved_basis=built)
    _solve(probe, rec, size, spec, "noise", inp.noise)
    t2 = now()
    rec.build_s, rec.serve_s, rec.total_s = t1 - tb, t2 - t1, t2 - t0
    return rec


PIPELINES = {"interp": interp_pass, "quasi": quasi_pass, "matfree": matfree_pass}


# ---- correctness gates ---- #

class Ops:
    """Failure accounting: an operation is a build, solve, evaluation or file round trip."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, kind, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{kind}: " + "; ".join(problems))

    @property
    def failed(self):
        return len(self.failures)


def direct_sum(spec, centers, a, c, x):
    """sum_j a_j k(x, centers_j) + Phi(x) c through eval_kernel, not evaluate_expansion."""
    k = sl.eval_kernel(spec, x[:, None, :], centers[None, :, :])
    return k @ a + sl.harmonic_basis_for(spec).eval(x) @ c


def cardinal_problems(basis, nodes, rng):
    """chi_xi must be 1 at xi and 0 at the CARDINAL_NEAR nodes closest to it."""
    pts = nodes.points
    worst = 0.0
    for i in rng.choice(len(nodes), size=min(N_SAMPLE, len(nodes)), replace=False):
        near = np.argsort(-(pts @ pts[i]))[:CARDINAL_NEAR]  # xi first
        vals = sl.eval_local_function(basis, int(i), pts[near])
        worst = max(worst, float(np.abs(vals - (near == i)).max()))
    return [] if worst <= CARDINAL_MAX else [f"cardinality residual {worst:.3e}"]


def solve_problems(spec, nodes, s, rng):
    problems = []
    if not s.report.converged:
        problems.append("GMRES did not converge")
    if not s.report.final_check <= RESID_MAX:
        problems.append(f"final_check {s.report.final_check:.3e} > {RESID_MAX:g}")
    idx = rng.choice(len(nodes), size=min(N_SAMPLE, len(nodes)), replace=False)
    pts = nodes.points
    direct = direct_sum(spec, pts, s.a, s.c, pts[idx])
    rel = float(np.abs(direct - s.f[idx]).max() / np.abs(s.f).max())
    if not rel <= RESID_MAX:
        problems.append(f"direct residual at sampled nodes {rel:.3e} > {RESID_MAX:g}")
    return problems


def error_of(e, inp):
    """Max error at the probes; None for the noise field, which has no exact values."""
    if e.label not in inp.fields:
        return None
    return float(np.abs(e.values - inp.fields[e.label][1]).max())


def eval_problems(spec, nodes, e, inp, rng):
    problems = []
    idx = rng.choice(inp.probes.shape[0], size=min(N_SAMPLE, inp.probes.shape[0]), replace=False)
    direct = direct_sum(spec, nodes.points, e.a, e.c, inp.probes[idx])
    scale = np.abs(e.a).sum() * spec.sup_norm + np.abs(e.c).sum()
    diff = float(np.abs(direct - e.values[idx]).max())
    if not diff <= REF_RTOL * scale:
        problems.append(f"{e.kind} {e.label}: {diff:.3e} away from the direct sum")
    err = error_of(e, inp)
    if e.limit is not None and not err <= e.limit:
        problems.append(f"{e.kind} {e.label}: max error {err:.3e} > {e.limit:g}")
    return problems


def roundtrip_problems(rec, inp, rng):
    problems = []
    if not np.array_equal(rec.nodes.points, inp.points):
        problems.append("the node file changed the points")
    idx = rng.choice(len(rec.nodes), size=min(N_SAMPLE, len(rec.nodes)), replace=False)
    x = rec.nodes.points[idx]
    same = np.array_equal(rec.basis.C, rec.saved_basis.C) and all(
        np.array_equal(
            sl.eval_local_function(rec.basis, int(i), x),
            sl.eval_local_function(rec.saved_basis, int(i), x),
        )
        for i in idx
    )
    if not same:
        problems.append("the basis file changed the basis")
    return problems


def check_build(ops, basis, nodes, rng):
    ops.record("build", cardinal_problems(basis, nodes, rng))


def check_pass(ops, rec, inp, rng):
    spec = sl.KernelSpec(SPEC_M)
    check_build(ops, rec.basis, rec.nodes, rng)
    for s in rec.solves:
        ops.record("solve", solve_problems(spec, rec.nodes, s, rng))
    for e in rec.evals:
        ops.record("eval", eval_problems(spec, rec.nodes, e, inp, rng))
    if rec.saved_basis is not None:
        ops.record("file round trip", roundtrip_problems(rec, inp, rng))


# ---- a timed run ---- #

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, size, inp, seconds, ops, rng, workdir):
    """SETUP_REPEATS - 1 extra builds, then passes until `seconds` have elapsed, at least one.

    Each build and pass is checked after it ends. Returns the report metrics.
    """
    spec = sl.KernelSpec(SPEC_M)
    builds = []
    for _ in range(SETUP_REPEATS - 1):
        nodes = sl.NodeSet(inp.points)
        t0 = now()
        basis = sl.build_local_basis(nodes, spec, wl.footprint)
        builds.append(now() - t0)
        check_build(ops, basis, nodes, rng)
        del basis
    passes = []
    start = now()
    while not passes or now() - start < seconds:
        rec = PIPELINES[wl.pipeline](wl, size, inp, Untraced(), workdir)
        check_pass(ops, rec, inp, rng)
        passes.append(rec)
        builds.append(rec.build_s)
    return report_metrics(passes, builds, inp)


def report_metrics(passes, builds, inp):
    """Every end-to-end figure of the workload; None where the workload has no such stage."""
    solves = [s for p in passes for s in p.solves]
    evals = [e for p in passes for e in p.evals]

    def worst(kind):
        errs = [error_of(e, inp) for e in evals if e.kind == kind and e.label in inp.fields]
        return max(errs) if errs else None

    eval_s = sum(e.seconds for e in evals)
    return {
        "setup_s": statistics.median(builds),
        "solve_s": statistics.median(s.seconds for s in solves) if solves else None,
        "eval_pts_per_s": sum(e.values.shape[0] for e in evals) / eval_s if evals else None,
        "serve_s": statistics.median(p.serve_s for p in passes),
        "total_s": statistics.median(p.total_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "gmres_iters": max(s.report.iterations for s in solves) if solves else None,
        "resid_rel": max(s.report.final_check for s in solves) if solves else None,
        "interp_err": worst("interp"),
        "quasi_err": worst("quasi"),
        "passes": len(passes),
        "builds": len(builds),
    }


@contextlib.contextmanager
def workdir_in(parent):
    """Scratch directory for the node and basis files, removed afterwards."""
    os.makedirs(parent, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=parent) as path:
        yield path
