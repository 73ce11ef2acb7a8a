"""Acceptance checks, one per shipped guarantee, each printing a PASS/FAIL line.

These are the expensive end-to-end runs; the unit suites cover the same code
paths at small sizes. Every tolerance here is pinned, not tuned: a failure
means the guarantee is not met. Criterion 5 asserts its 1e-2 tail bound on the
wide count rule FootprintRule(M=11.0), not on the default preconditioning size;
the measurements behind that choice are in docs/decisions.md.
"""

import os
import time

import numpy as np

import spherelag as sl
from spherelag.diagnostics import convergence_study, decay_study
from spherelag.geom import cap_points
from spherelag.gramstudy import cap_gram_compare, min_eig_ratio
from spherelag.kernel import assemble_saddle, harmonic_basis_for, kernel_matrix
from spherelag.lagrange import eval_columns
from spherelag.locallag import (
    FootprintRule,
    build_local_basis,
    eval_local_function,
    interpolate_preconditioned,
)
from spherelag.neighbors import ball, build_index, knn
from spherelag.solver import factor_solve, gmres

from helpers import fib, full_basis, probes, rng, spec


def report_line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_gmres_iteration_counts():
    k2 = spec(2)
    counts = {}
    elapsed = {}
    for nodes, tols in (
        (sl.gen_icosahedral(4), (1e-6, 1e-8)),   # N = 2562, footprint 84
        (sl.gen_icosahedral(5), (1e-6, 1e-8)),   # N = 10242, footprint 119
        (sl.gen_icosahedral_freq(48), (1e-6,)),  # N = 23042, footprint 140
    ):
        n = len(nodes)
        t0 = time.time()
        basis = build_local_basis(nodes, k2)
        f = rng(0).uniform(-1.0, 1.0, size=n)
        for tol in tols:
            _, _, report = interpolate_preconditioned(nodes, k2, basis, f, tol=tol)
            counts[(n, tol)] = (report.iterations, report.converged)
        elapsed[n] = time.time() - t0

    flat = [counts[(n, 1e-6)][0] for n in (2562, 10242, 23042)]
    ratio = max(flat) / min(flat)
    ok = (
        all(converged for _, converged in counts.values())
        and all(iters <= 15 for iters, _ in counts.values())
        and elapsed[10242] <= 300.0
        and ratio <= 3.0
    )
    shown = {key: iters for key, (iters, _) in sorted(counts.items())}
    detail = (
        f"iterations {shown}; "
        f"10242 runtime {elapsed[10242]:.1f}s (limit 300s); "
        f"flatness {max(flat)}/{min(flat)} = {ratio:.2f} (limit 3)"
    )
    report_line(1, ok, detail)
    for key, (iters, converged) in counts.items():
        assert converged, f"no convergence at {key}"
        assert iters <= 15, f"{iters} iterations at {key}"
    assert elapsed[10242] <= 300.0
    assert ratio <= 3.0


def test_criterion_2_footprint_table():
    table = {2562: 84, 10242: 119, 23042: 140, 40962: 154, 92162: 175, 163842: 196}
    got = {n: FootprintRule().stencil_count(n, 2) for n in table}
    ok = got == table
    report_line(2, ok, f"default footprint sizes {got}")
    assert got == table


def test_criterion_3_decay_rates():
    study = decay_study(fib(2500), spec(2))
    nu_l, nu_c = study.fit_function.nu, study.fit_coefficient.nu
    gap = abs(nu_l - nu_c) / max(nu_l, nu_c)

    A = full_basis(400).A
    asym = np.abs(A - A.T).max() / np.abs(A).max()

    womersley = "data/womersley/me2500.txt"
    wom_note = "womersley files absent, clause skipped"
    wom_ok = True
    if os.path.exists(womersley):
        wstudy = decay_study(sl.load_nodes(womersley), spec(2))
        wom_ok = abs(wstudy.fit_function.nu - 1.33) <= 0.15
        wom_note = f"womersley nu_L = {wstudy.fit_function.nu:.3f} (1.33 +- 0.15)"

    ok = nu_l >= 0.8 and nu_c >= 0.8 and gap <= 0.3 and asym <= 1e-6 and wom_ok
    report_line(
        3,
        ok,
        f"fibonacci 2500: nu_L = {nu_l:.4f}, nu_c = {nu_c:.4f}, gap {100 * gap:.1f}% "
        f"(limits 0.8 / 30%); coefficient asymmetry {asym:.2e} (limit 1e-6) at N=400; "
        f"{wom_note}",
    )
    assert nu_l >= 0.8 and nu_c >= 0.8
    assert gap <= 0.3
    assert asym <= 1e-6
    assert wom_ok


def test_criterion_4_cap_gram_asymptotics():
    r05, r01 = min_eig_ratio(0.05), min_eig_ratio(0.01)
    cap = cap_points(np.array([0.0, 0.0, 1.0]), 0.3, 1500)
    report = cap_gram_compare(cap, np.array([0.0, 0.0, 1.0]), 0.3)
    ok = (
        0.95 <= r05 <= 1.05
        and 0.99 <= r01 <= 1.01
        and report.within_hypothesis
        and report.satisfied
    )
    report_line(
        4,
        ok,
        f"min-eig ratio {r05:.6f} at r=0.05 (in [0.95, 1.05]), {r01:.6f} at r=0.01 "
        f"(in [0.99, 1.01]); inverse-norm comparison satisfied={report.satisfied} "
        f"at h/r = {report.h_ratio:.3f} (hypothesis limit 0.1)",
    )
    assert 0.95 <= r05 <= 1.05
    assert 0.99 <= r01 <= 1.01
    assert report.within_hypothesis
    assert report.satisfied


def max_column_gap(local, full, pts):
    full_vals = eval_columns(full, pts)
    worst = 0.0
    for i in range(len(local.nodes)):
        diff = np.abs(eval_local_function(local, i, pts) - full_vals[:, i]).max()
        worst = max(worst, float(diff))
    return worst


def test_criterion_5_local_full_consistency():
    k2 = spec(2)
    pts = probes(2000)

    ns400 = fib(400)
    full400 = full_basis(400)
    local400 = build_local_basis(ns400, k2, FootprintRule(fixed_n=400))
    gap_full = max_column_gap(local400, full400, pts)

    ns900 = fib(900)
    full900 = full_basis(900)
    n_default = FootprintRule().stencil_count(900, k2.m)
    gap_default = max_column_gap(
        build_local_basis(ns900, k2), full900, pts
    )
    n_doubled = 2 * n_default
    gap_doubled = max_column_gap(
        build_local_basis(ns900, k2, FootprintRule(fixed_n=n_doubled)), full900, pts
    )
    # the default is a preconditioning size, not a tail bound: docs/decisions.md
    wide = FootprintRule(M=11.0)
    n_wide = wide.stencil_count(900, k2.m)
    gap_wide = max_column_gap(build_local_basis(ns900, k2, wide), full900, pts)

    ok = gap_full <= 1e-8 and gap_doubled < gap_default and gap_wide <= 1e-2
    report_line(
        5,
        ok,
        f"footprint=N at 400: max gap {gap_full:.2e} (limit 1e-8); at 900: "
        f"default rule ({n_default}) {gap_default:.2e}, doubled default "
        f"({n_doubled}) {gap_doubled:.2e} (must decrease), FootprintRule(M=11) "
        f"({n_wide}) {gap_wide:.2e} (limit 1e-2)",
    )
    assert gap_full <= 1e-8
    assert gap_doubled < gap_default
    assert gap_wide <= 1e-2, (
        f"far-field tail of the M=11 count-rule local basis ({n_wide} nodes) is "
        f"{gap_wide:.3e} at N=900; measured analysis in docs/decisions.md"
    )


def test_criterion_6_approximation_orders():
    rows = convergence_study(
        [fib(n) for n in (400, 1600, 6400)],
        spec(2),
        lambda p: np.exp(p[:, 2]),
        footprint=FootprintRule(M=11.0),
    )
    orders = [r.order_interp for r in rows[1:]]
    ratios = [r.err_quasi / r.err_interp for r in rows]
    ok = all(o >= 3.0 for o in orders) and all(r <= 10.0 for r in ratios)
    report_line(
        6,
        ok,
        f"interpolation orders {[f'{o:.2f}' for o in orders]} (limit 3, theory 4); "
        f"quasi/interp ratios {[f'{r:.2f}' for r in ratios]} (limit 10) "
        f"with count-rule footprints M=11",
    )
    for o in orders:
        assert o >= 3.0
    for r in ratios:
        assert r <= 10.0


def test_criterion_7_property_suites():
    failures = []

    # neighbor queries vs brute force at N = 5000
    ns = fib(5000)
    index = build_index(ns)
    d2 = -2.0 * (ns.points @ ns.points.T) + 2.0
    for c in (0, 1234, 4999):
        got = knn(index, c, 40)
        want = np.lexsort((np.arange(5000), d2[c]))[:40]
        if not np.array_equal(np.sort(got), np.sort(want)):
            failures.append(f"knn mismatch at center {c}")
        r = 0.2
        got_b = ball(index, ns.points[c], r)
        want_b = np.flatnonzero(2.0 * np.arcsin(np.sqrt(np.maximum(d2[c], 0.0)) / 2.0) <= r)
        if not np.array_equal(np.sort(got_b), want_b):
            failures.append(f"ball mismatch at center {c}")

    # harmonic data reproduced through the saddle solve
    for m in (2, 3):
        nodes = fib(300)
        km = spec(m)
        phi = harmonic_basis_for(km).eval(nodes.points)
        system = assemble_saddle(km, nodes)
        pr = probes(500)
        phi_pr = harmonic_basis_for(km).eval(pr)
        for j in (0, km.poly_dim - 1):
            a, c = factor_solve(
                system, np.concatenate([phi[:, j], np.zeros(km.poly_dim)])
            )
            err = np.abs(
                sl.evaluate_expansion(km, nodes.points, a, c, pr) - phi_pr[:, j]
            ).max()
            if err > 1e-8:
                failures.append(f"harmonic reproduction m={m} j={j}: {err:.2e}")

    # conditional positive definiteness of the constrained quadratic form
    g = rng(7)
    for m in (2, 3):
        km = spec(m)
        pts = fib(60).points
        K = kernel_matrix(km, pts)
        phi = harmonic_basis_for(km).eval(pts)
        q, _ = np.linalg.qr(phi)
        for _ in range(20):
            v = g.normal(size=60)
            v -= q @ (q.T @ v)
            if v @ K @ v <= 0.0:
                failures.append(f"CPD violated for m={m}")

    # GMRES reaches a diagonal system's exact solution in n distinct steps
    diag = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = rng(8).normal(size=6)
    x, rep = gmres(lambda v: diag * v, b, tol=1e-13, maxit=50)
    if not (rep.converged and rep.iterations <= 6 and np.allclose(x, b / diag, atol=1e-10)):
        failures.append(f"diagonal GMRES took {rep.iterations} iterations")

    # every local column is cardinal on its own footprint
    basis = build_local_basis(fib(900), spec(2))
    worst = 0.0
    for i in range(900):
        rows_i = basis.A_sparse.indices[basis.A_sparse.indptr[i] : basis.A_sparse.indptr[i + 1]]
        vals = eval_local_function(basis, i, basis.nodes.points[rows_i])
        worst = max(worst, float(np.abs(vals - (rows_i == i)).max()))
    if worst > 1e-8:
        failures.append(f"cardinality off by {worst:.2e}")

    ok = not failures
    report_line(
        7,
        ok,
        "neighbor oracles at N=5000, harmonic reproduction, constrained "
        f"positivity, 6-step GMRES, cardinality (worst {worst:.2e}, limit 1e-8)"
        + ("" if ok else f"; failures: {failures}"),
    )
    assert not failures, failures
