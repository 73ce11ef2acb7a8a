"""Traced run: spans around every call into a layer, and the per-layer metrics.

Nothing under src/ records time. The tracer wraps the public functions that
build_local_basis calls through the `spherelag.locallag` namespace
(build_index, knn_all, ball, knn, ensure_stats, spmv) for the length of the
traced pass, rebuilds interpolate_preconditioned from its public pieces with a
span around each operator call, and replays the stencil solves through
assemble_saddle and factor_solve to split assembly from factorisation.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import numpy as np

import spherelag as sl
import spherelag.locallag as locallag
from workloads import (
    MAXIT,
    PIPELINES,
    SPEC_M,
    TOL,
    Untraced,
    check_pass,
)

# Largest relative difference allowed between a replayed stencil's harmonic
# coefficients and the build's.
REPLAY_RTOL = 1e-10


class Tracer:
    """Spans in memory: id, name, start, end, parent span, trace id, counts."""

    def __init__(self, trace_id):
        self.spans = []
        self._open = []
        self.trace_id = trace_id  # one per traced pass

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names and s["trace"] == self.trace_id]

    def total(self, *names):
        return sum(s["end"] - s["start"] for s in self.named(*names))

    def self_time(self, name):
        """Duration of the `name` spans minus the time their direct children cover."""
        own = self.named(name)
        ids = {s["id"] for s in own}
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return sum(s["end"] - s["start"] for s in own) - children

    def solve(self, nodes, spec, basis, f, materialize_limit):
        """interpolate_preconditioned rebuilt from public pieces, one span per operator call."""
        f = np.asarray(f, dtype=np.float64)
        n = len(nodes)
        with self.span("locallag.KernelMatvec.__init__") as s:
            kmv = sl.KernelMatvec(spec, nodes.points, materialize_limit=materialize_limit)
        materialized = getattr(kmv, "matrix", None) is not None
        s["kernel_entries"] = n * n if materialized else 0
        with self.span("kernel.HarmonicBasis.eval"):
            phi = sl.harmonic_basis_for(spec).eval(nodes.points)
        A_s, C = basis.A_sparse, basis.C

        def spmv(v):
            with self.span("solver.spmv"):
                return sl.spmv(A_s, v)

        def matvec(v):
            with self.span("locallag.KernelMatvec.__call__") as s:
                out = kmv(v)
            s["kernel_entries"] = 0 if materialized else n * n
            s["bytes_computed"] = 8 * n * n if materialized else 0
            return out

        def op(v):
            with self.span("solver.operator"):
                return matvec(spmv(v)) + phi @ (C @ v)

        with self.span("solver.gmres"):
            v, report = sl.gmres(op, f, x0=f, tol=TOL, maxit=MAXIT)
        a = spmv(v)
        c = C @ v
        resid = matvec(a) + phi @ c - f
        report.final_check = float(np.abs(resid).max() / np.abs(f).max())
        return a, c, report


@contextlib.contextmanager
def instrument(tracer, stencils):
    """Wrap the neighbour, mesh-statistics and spmv calls made inside spherelag.locallag.

    `stencils` receives every footprint the build queries, in centre order.
    """
    wrapped = {
        "build_index": ("neighbors.build_index", None),
        "knn_all": ("neighbors.knn_all", stencils.extend),
        "ball": ("neighbors.ball", stencils.append),
        "knn": ("neighbors.knn", None),
        "ensure_stats": ("geom.mesh_stats", None),
        "spmv": ("solver.spmv", None),
    }
    saved = {name: getattr(locallag, name) for name in wrapped}

    def wrap(fn, span_name, keep):
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                out = fn(*args, **kwargs)
            if keep is not None:
                keep(out)
            return out

        return traced

    for name, (span_name, keep) in wrapped.items():
        setattr(locallag, name, wrap(saved[name], span_name, keep))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(locallag, name, fn)


def replay_stencils(spec, nodes, stencils, basis):
    """Re-solve every footprint system: (assemble seconds, factor-and-solve seconds, problems).

    The centre is the first entry of each stencil, as in the build. Each
    replay's harmonic part is compared with the column of basis.C it re-solves.
    """
    p = spec.poly_dim
    assemble_s = factor_s = 0.0
    worst = 0.0
    for i, stencil in enumerate(stencils):
        t0 = time.perf_counter()
        system = sl.assemble_saddle(spec, nodes, stencil)
        t1 = time.perf_counter()
        rhs = np.zeros(system.n + p)
        rhs[0] = 1.0
        _, c = sl.factor_solve(system, rhs)
        t2 = time.perf_counter()
        assemble_s += t1 - t0
        factor_s += t2 - t1
        built = basis.C[:, i]
        worst = max(worst, float(np.abs(c - built).max() / np.abs(built).max()))
    problems = [] if worst <= REPLAY_RTOL else [f"replay differs from the build by {worst:.3e}"]
    return assemble_s, factor_s, problems


def equivalence_problems(traced, untraced):
    """The rebuilt solve must return the same a, c and iteration count."""
    problems = []
    for t, u in zip(traced.solves, untraced.solves):
        if t.report.iterations != u.report.iterations:
            problems.append(f"{t.label}: {t.report.iterations} != {u.report.iterations} iterations")
        if not (np.array_equal(t.a, u.a) and np.array_equal(t.c, u.c)):
            diff = max(float(np.abs(t.a - u.a).max()), float(np.abs(t.c - u.c).max()))
            problems.append(f"{t.label}: coefficients differ by up to {diff:.3e}")
    if len(traced.solves) != len(untraced.solves):
        problems.append("the traced pass made a different number of solves")
    return problems


def traced_run(wl, size, inp, ops, rng, workdir, spans_path):
    """Untraced pass, traced pass, stencil replay; returns the per-layer metrics."""
    spec = sl.KernelSpec(SPEC_M)
    run = PIPELINES[wl.pipeline]
    untraced = run(wl, size, inp, Untraced(), workdir)
    check_pass(ops, untraced, inp, rng)

    tracer = Tracer(trace_id=1)
    stencils = []
    with instrument(tracer, stencils):
        traced = run(wl, size, inp, tracer, workdir)
    check_pass(ops, traced, inp, rng)
    ops.record("equivalence", equivalence_problems(traced, untraced))
    if len(stencils) != len(traced.nodes):
        raise RuntimeError(
            f"the traced build queried {len(stencils)} footprints for {len(traced.nodes)} "
            "centres; build_local_basis no longer calls the wrapped neighbour functions"
        )

    with tracer.span("replay"):
        assemble_s, factor_s, problems = replay_stencils(spec, traced.nodes, stencils, traced.basis)
    ops.record("stencil replay", problems)

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh)

    metrics = layer_metrics(tracer, traced, stencils, spec, assemble_s, factor_s)
    metrics["pipeline.traced_total_s"] = traced.total_s
    metrics["pipeline.untraced_total_s"] = untraced.total_s
    metrics["pipeline.trace_overhead_s"] = traced.total_s - untraced.total_s
    return metrics, tracer.total("replay")


def _rate(count, seconds):
    return count / seconds if seconds > 0.0 else 0.0


def _attr(spans, key):
    return sum(s.get(key, 0) for s in spans)


def layer_metrics(tr, rec, stencils, spec, assemble_s, factor_s):
    n_nodes = len(rec.nodes)
    sizes = np.array([len(s) for s in stencils], dtype=np.float64)
    index_s = tr.total("neighbors.build_index")
    query_s = tr.total("neighbors.knn_all", "neighbors.ball", "neighbors.knn")
    stencil_s = tr.self_time("locallag.build_local_basis")
    gflop = float(np.sum(2.0 / 3.0 * (sizes + spec.poly_dim) ** 3)) / 1e9

    materialize = tr.named("locallag.KernelMatvec.__init__")
    matvecs = tr.named("locallag.KernelMatvec.__call__")
    matvec_s = tr.total("locallag.KernelMatvec.__call__")
    evals = tr.named("kernel.evaluate_expansion", "locallag.QuasiInterpolant.__call__")
    eval_s = tr.total("kernel.evaluate_expansion", "locallag.QuasiInterpolant.__call__")
    saves = tr.named("locallag.save_basis")

    entries = {
        "materialize": _attr(materialize, "kernel_entries"),
        "matvec": _attr(matvecs, "kernel_entries"),
        "eval": _attr(evals, "kernel_entries"),
        "stencil": int(np.sum(sizes**2)),
    }
    seconds = {
        "materialize": tr.total("locallag.KernelMatvec.__init__"),
        "matvec": matvec_s,
        "eval": eval_s,
        "stencil": assemble_s,
    }
    out = {
        "geom.mesh_stats_s": tr.total("geom.mesh_stats"),
        "geom.node_io_s": tr.total("geom.save_nodes", "geom.load_nodes"),
        "neighbors.index_s": index_s,
        "neighbors.query_s": query_s,
        "neighbors.stencil_n_mean": float(sizes.mean()),
        "neighbors.stencil_n_max": float(sizes.max()),
        "locallag.stencil_s": stencil_s,
        "locallag.stencils_per_s": _rate(n_nodes, stencil_s),
        "locallag.stencil_gflop": gflop,
        "locallag.stencil_gflops": _rate(gflop, stencil_s),
        # a failed stencil raises StencilFailureError, which fails the run
        "locallag.stencil_failed": 0,
        "locallag.basis_nnz": int(rec.basis.A_sparse.nnz),
        "locallag.basis_io_s": tr.total("locallag.save_basis", "locallag.load_basis"),
        "locallag.basis_bytes": _attr(saves, "bytes"),
        "locallag.materialize_s": seconds["materialize"] / len(materialize) if materialize else 0.0,
        "locallag.matvec_s": matvec_s / len(matvecs) if matvecs else 0.0,
        "locallag.matvecs": len(matvecs),
        "locallag.matvecs_per_s": _rate(len(matvecs), matvec_s),
        "locallag.quasi_s": tr.total("locallag.quasi_interpolate"),
        "kernel.eval_s": eval_s,
        "kernel.bytes_computed": _attr(matvecs, "bytes_computed"),
        "kernel.stencil_assemble_s": assemble_s,
        "solver.stencil_factor_s": factor_s,
        "solver.gmres_self_s": tr.self_time("solver.gmres"),
        "solver.gmres_iters": max((s.report.iterations for s in rec.solves), default=0),
        "solver.spmv_s": tr.total("solver.spmv"),
        "solver.spmv_calls": len(tr.named("solver.spmv")),
    }
    for site, count in entries.items():
        out[f"kernel.entries.{site}"] = count
        out[f"kernel.entries_per_s.{site}"] = _rate(count, seconds[site])
    return out
