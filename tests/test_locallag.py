"""Local Lagrange bases, quasi-interpolation, and the preconditioned solver."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import spherelag as sl
import spherelag.locallag as locallag
import spherelag.solver as solver
from spherelag.kernel import assemble_saddle, eval_kernel, harmonic_basis_for
from spherelag.locallag import (
    FootprintRule,
    KernelMatvec,
    StencilFailureError,
    build_local_basis,
    eval_local_function,
    interpolate_preconditioned,
    load_basis,
    quasi_interpolate,
    save_basis,
)
from spherelag.solver import (
    PIVOT_RTOL,
    GmresNotConvergedError,
    SingularSystemError,
    factor_solve,
)

from helpers import (
    blas_thread_counts,
    eval_columns,
    fib,
    full_basis,
    local_basis,
    probes,
    rng,
    spec,
)


def column(A, j):
    """(row indices, values) of column j of a CSC array."""
    col = slice(A.indptr[j], A.indptr[j + 1])
    return A.indices[col], A.data[col]


def test_default_rule_reference_sizes():
    sizes = {900: 63, 2562: 84, 10242: 119, 23042: 140, 40962: 154, 92162: 175, 163842: 196}
    for n, expected in sizes.items():
        assert FootprintRule().stencil_count(n, 2) == expected


def test_default_rule_clamps():
    assert FootprintRule().stencil_count(3, 2) == 3     # cannot exceed the node count
    assert FootprintRule().stencil_count(10, 2) == 7
    assert FootprintRule().stencil_count(20, 4) == 17   # m^2 + 1 floor
    assert FootprintRule().stencil_count(1, 2) == 1


def test_footprint_rule_validation():
    with pytest.raises(ValueError, match="mode"):
        FootprintRule(mode="nearest")
    rule = FootprintRule(mode="radius", M=2.0)
    with pytest.raises(ValueError):
        rule.stencil_count(100, 2)
    with pytest.raises(ValueError):
        FootprintRule().stencil_radius(0.05)
    for h in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="fill distance"):
            rule.stencil_radius(h)
    assert rule.stencil_radius(0.05) == pytest.approx(2.0 * 0.05 * np.log(20.0))


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"M": float("nan")}, "M must be finite and positive"),
        ({"M": float("inf")}, "M must be finite and positive"),
        ({"M": -1.0}, "M must be finite and positive"),
        ({"M": 0.0}, "M must be finite and positive"),
        ({"mode": "radius", "M": float("nan")}, "M must be finite and positive"),
        ({"fixed_n": 0}, "fixed_n must be at least 1"),
        ({"fixed_n": -5}, "fixed_n must be at least 1"),
        ({"M": 11.0, "fixed_n": 40}, "M or fixed_n, not both"),
        ({"mode": "radius", "M": 2.0, "fixed_n": 40}, "M or fixed_n, not both"),
        ({"mode": "radius", "fixed_n": 40}, "needs M"),
        ({"mode": "radius"}, "needs M"),
    ],
)
def test_footprint_rule_rejects_bad_sizes(kwargs, match):
    with pytest.raises(ValueError, match=match):
        FootprintRule(**kwargs)


def test_footprint_rule_count_modes():
    assert FootprintRule(fixed_n=30).stencil_count(900, 2) == 30
    assert FootprintRule(fixed_n=30).stencil_count(12, 2) == 12
    assert FootprintRule(M=11.0).stencil_count(400, 2) == round(11.0 * np.log(400.0) ** 2)
    assert FootprintRule(M=1e-6).stencil_count(400, 3) == 10  # m^2 + 1 floor


def test_columns_are_cardinal_on_their_footprints():
    basis = local_basis(300)
    for i in (0, 17, 150, 299):
        rows, _ = column(basis.A_sparse, i)
        vals = eval_local_function(basis, i, basis.nodes.points[rows])
        want = (rows == i).astype(float)
        assert np.abs(vals - want).max() < 1e-8


def test_cardinality_holds_for_higher_order_kernels():
    basis = build_local_basis(fib(150), spec(3))
    for i in (0, 75, 149):
        rows, _ = column(basis.A_sparse, i)
        vals = eval_local_function(basis, i, basis.nodes.points[rows])
        assert np.abs(vals - (rows == i)).max() < 1e-8


def test_per_center_counts_match_storage():
    basis = local_basis(300)
    n_sten = FootprintRule().stencil_count(300, 2)
    per_center_n = np.diff(basis.A_sparse.indptr)
    assert np.all(per_center_n == n_sten)
    assert basis.A_sparse.data.size == per_center_n.sum() == basis.A_sparse.nnz


def test_full_footprint_reproduces_dense_basis():
    lb = local_basis(200, fixed_n=200)
    fb = full_basis(200)
    assert np.abs(lb.A_sparse.toarray() - fb.A).max() < 1e-8
    assert np.abs(lb.C - fb.C).max() < 1e-8


def test_eval_local_function_matches_manual_expansion():
    basis = local_basis(300)
    i = 42
    rows, vals = column(basis.A_sparse, i)
    pts = probes(50)
    manual = np.zeros(50)
    for r, v in zip(rows, vals):
        manual += v * eval_kernel(basis.spec, pts, basis.nodes.points[r])
    manual += harmonic_basis_for(basis.spec).eval(pts) @ basis.C[:, i]
    assert np.allclose(eval_local_function(basis, i, pts), manual, atol=1e-12)


def test_eval_local_function_rejects_centre_out_of_range():
    basis = local_basis(300)
    for bad in (-1, 300):
        with pytest.raises(ValueError, match=f"center_idx {bad} is outside 0..299"):
            eval_local_function(basis, bad, probes(5))
    for bad in (1.5, np.float64(2.0), True):
        with pytest.raises(ValueError, match=f"center_idx {bad} is not an integer in 0..299"):
            eval_local_function(basis, bad, probes(5))
    assert np.array_equal(
        eval_local_function(basis, np.int64(2), probes(5)), eval_local_function(basis, 2, probes(5))
    )


def ring_nodes(n, z):
    angles = 2.0 * np.pi * np.arange(n) / n
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(angles), s * np.sin(angles), np.full(n, z)])


def test_degenerate_footprints_raise_with_centers():
    # every neighborhood of a pure ring lies on one circle, where the four
    # constraint harmonics are rank deficient
    ns = sl.NodeSet(ring_nodes(30, 0.0))
    with pytest.raises(StencilFailureError, match="singular"):
        build_local_basis(ns, spec(2))
    try:
        build_local_basis(ns, spec(2))
    except StencilFailureError as exc:
        assert sorted(exc.centers) == list(range(30))


def test_singular_stencils_are_retried_at_double_size():
    # 30 nodes on a tight polar circle plus 60 scattered ones: the initial
    # stencils of the ring nodes stay inside the ring, the doubled ones escape
    ring = ring_nodes(30, np.cos(0.05))
    far = fib(60).points
    keep = far[np.abs(far @ np.array([0.0, 0.0, 1.0])) < 0.95]
    ns = sl.NodeSet(np.vstack([ring, keep]))
    *_, retried = per_stencil_reference(ns, spec(2), *queried_stencils(ns, FootprintRule(), 2))
    basis = build_local_basis(ns, spec(2))
    for i in (0, 15):
        rows, _ = column(basis.A_sparse, i)
        vals = eval_local_function(basis, i, ns.points[rows])
        assert np.abs(vals - (rows == i)).max() < 1e-8
    assert basis.grown == len(retried) > 0
    assert PIVOT_RTOL < basis.min_pivot_ratio < 1.0
    plain = local_basis(150)
    assert plain.grown == 0 and PIVOT_RTOL < plain.min_pivot_ratio < 1.0


def queried_stencils(nodes, rule, m):
    """The stencils a build with rule queries, in centre order, and its retry query of centre i."""
    index, n = sl.build_index(nodes), len(nodes)
    if rule.mode == "count":
        size = rule.stencil_count(n, m)
        return sl.knn_all(index, size), lambda i: sl.knn(index, i, min(n, 2 * size))
    r = rule.stencil_radius(sl.ensure_stats(nodes).h)
    grow = lambda i: sl.ball(index, nodes.points[i], 2 * r)
    return [sl.ball(index, p, r) for p in nodes.points], grow


def per_stencil_reference(nodes, sp, stencils, grow):
    """Dense A, C, smallest pivot ratio and retried centres from one factor_solve per stencil.

    A singular stencil is retried once on grow(i), as the build does. The pivot
    ratios come from a separate scipy.linalg.lu_factor of each matrix.
    """
    n = len(nodes)
    A, C = np.zeros((n, n)), np.empty((sp.poly_dim, n))
    ratios, grown = [], []

    def cardinal(stencil):
        system = assemble_saddle(sp, nodes, stencil)
        rhs = np.zeros(stencil.size + sp.poly_dim)
        rhs[0] = 1.0
        solution = factor_solve(system, rhs)
        lu = scipy.linalg.lu_factor(system.matrix)[0]
        ratios.append(np.abs(np.diag(lu)).min() / np.abs(system.matrix).sum(axis=1).max())
        return solution

    for i, stencil in enumerate(stencils):
        try:
            a, C[:, i] = cardinal(stencil)
        except SingularSystemError:
            grown.append(i)
            stencil = grow(i)
            a, C[:, i] = cardinal(stencil)
        A[stencil, i] = a
    return A, C, min(ratios), grown


def clustered_ring_in_the_middle():
    # the 30 ring nodes sit between scattered ones, so one chunk of the build
    # holds singular stencils between regular ones
    far = fib(60).points
    keep = far[np.abs(far[:, 2]) < 0.95]
    return sl.NodeSet(np.vstack([keep[:20], ring_nodes(30, np.cos(0.05)), keep[20:]]))


BUILD_CASES = {
    "count": (lambda: fib(900), 2, FootprintRule()),
    "radius": (lambda: fib(400), 2, FootprintRule(mode="radius", M=2.0)),
    "m3": (lambda: fib(900), 3, FootprintRule()),
    "fixed400": (lambda: fib(500), 2, FootprintRule(fixed_n=400)),
    "grown": (clustered_ring_in_the_middle, 2, FootprintRule()),
}


@pytest.mark.parametrize("case", list(BUILD_CASES))
def test_batched_build_matches_per_stencil_solves(case):
    make, m, rule = BUILD_CASES[case]
    nodes, sp = make(), spec(m)
    stencils, grow = queried_stencils(nodes, rule, m)
    if rule.mode == "radius":
        assert len({s.size for s in stencils}) > 1
    A, C, ratio, grown = per_stencil_reference(nodes, sp, stencils, grow)
    basis = build_local_basis(nodes, sp, rule)
    assert basis.grown == len(grown) and (len(grown) > 0) == (case == "grown")
    # the build and factor_solve both factor through lu_solve on one BLAS
    # thread: bitwise at any thread count
    assert np.array_equal(basis.A_sparse.toarray(), A)
    assert np.array_equal(basis.C, C)
    if max(np.diff(basis.A_sparse.indptr)) < 200:
        # OpenBLAS factors systems this small on one thread at any thread count
        assert basis.min_pivot_ratio == ratio
    else:
        # the reference ratio comes from lu_factor's getrf outside the one-thread
        # scope, which threaded OpenBLAS parallelises at this size; on one
        # thread it is bitwise too
        assert basis.min_pivot_ratio == pytest.approx(ratio, rel=1e-6)


def assert_same_basis(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.A_sparse, name), getattr(b.A_sparse, name))
    assert np.array_equal(a.C, b.C)
    assert (a.min_pivot_ratio, a.grown) == (b.min_pivot_ratio, b.grown)


@pytest.mark.parametrize("case", ["count", "radius", "fixed400", "grown"])
def test_pooled_build_is_bitwise_the_one_worker_build(monkeypatch, case):
    make, m, rule = BUILD_CASES[case]
    nodes = make()
    builds = []
    for workers in (1, 2):
        monkeypatch.setattr(solver, "WORKERS", workers)
        builds.append(build_local_basis(nodes, spec(m), rule))
    assert_same_basis(*builds)


def test_pool_with_more_workers_than_cores_loses_no_chunk(monkeypatch):
    nodes, rule = fib(400), FootprintRule(mode="radius", M=2.0)
    monkeypatch.setattr(solver, "WORKERS", 1)
    one = build_local_basis(nodes, spec(2), rule)
    threads = set()
    assemble = locallag.assemble_saddle_stack

    def recording(*args):
        threads.add(threading.get_ident())
        return assemble(*args)

    monkeypatch.setattr(locallag, "assemble_saddle_stack", recording)
    monkeypatch.setattr(solver, "WORKERS", 4)
    out = {}
    runner = threading.Thread(target=lambda: out.update(basis=build_local_basis(nodes, spec(2), rule)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert_same_basis(one, out["basis"])
    assert len(threads) > 1 or not solver._openblas_thread_controls()


def test_build_restores_blas_threads_and_stops_its_pool_on_error(monkeypatch):
    before, threads_before = blas_thread_counts(), threading.active_count()
    during, calls, fail_at = [], itertools.count(), None
    assemble = locallag.assemble_saddle_stack

    def failing(*args):
        during.append(blas_thread_counts())
        if next(calls) == fail_at:
            raise RuntimeError(f"chunk {fail_at} failed")
        return assemble(*args)

    monkeypatch.setattr(locallag, "assemble_saddle_stack", failing)
    monkeypatch.setattr(solver, "WORKERS", 2)
    build_local_basis(fib(200), spec(2))
    assert blas_thread_counts() == before
    calls, fail_at = itertools.count(), 5
    with pytest.raises(RuntimeError, match="chunk 5 failed"):
        build_local_basis(fib(900), spec(2))
    assert blas_thread_counts() == before
    assert threading.active_count() == threads_before
    assert during and all(counts == [1] * len(before) for counts in during)


def build_peak_and_result(nodes, rule=None):
    """(traced peak bytes of the build, bytes of the basis it returns)."""
    tracemalloc.start()
    try:
        basis = build_local_basis(nodes, spec(2), rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = basis.A_sparse
    return peak, A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + basis.C.nbytes


def test_build_memory_stays_near_the_result():
    # one bordered stack for all N = 2562 stencils would take 159 MB
    peak, result = build_peak_and_result(fib(2562))
    assert peak < result + 8 * 2**20


def test_radius_build_memory_stays_near_the_result(monkeypatch):
    # stencils of about 300 nodes; their int64 query results all at once would
    # take 6 MB, and each worker holds about 2 MB of its own while it solves one
    monkeypatch.setattr(solver, "WORKERS", 2)
    nodes = sl.NodeSet(fib(2562).points)  # no cached mesh statistics
    peak, result = build_peak_and_result(nodes, FootprintRule(mode="radius", M=4.5))
    assert peak <= result + 4 * 2**20


def test_radius_mode_builds_variable_stencils():
    ns = fib(200)
    basis = build_local_basis(ns, spec(2), FootprintRule(mode="radius", M=2.0))
    per_center_n = np.diff(basis.A_sparse.indptr)
    assert per_center_n.min() >= 5
    assert per_center_n.std() > 0  # geodesic balls vary in count
    i = int(per_center_n.argmin())
    rows, _ = column(basis.A_sparse, i)
    vals = eval_local_function(basis, i, ns.points[rows])
    assert np.abs(vals - (rows == i)).max() < 1e-8


def test_node_cap_guard(monkeypatch):
    monkeypatch.setattr(locallag, "MAX_NODES", 50)
    with pytest.raises(ValueError, match="cap"):
        build_local_basis(fib(60), spec(2))


# ---- quasi-interpolation ---- #

def test_quasi_interpolant_equals_direct_summation():
    # the collapsed kernel/poly weights must agree with literally summing
    # (f - Pi f)(xi) * chi_xi and adding Pi f, the least-squares harmonic fit;
    # this guards the sparse matvec collapse and the folded fit coefficients
    basis = local_basis(150)
    f = np.exp(basis.nodes.points[:, 2])
    q = quasi_interpolate(basis, f)
    harmonics = harmonic_basis_for(basis.spec)
    phi = harmonics.eval(basis.nodes.points)
    beta = np.linalg.lstsq(phi, f, rcond=None)[0]
    g = f - phi @ beta
    pts = probes(200)
    direct = harmonics.eval(pts) @ beta
    for i in range(150):
        direct += g[i] * eval_local_function(basis, i, pts)
    assert np.abs(q(pts) - direct).max() < 1e-10


@pytest.mark.parametrize(
    "field",
    [lambda x: np.ones(len(x)), lambda x: 0.3 + x[:, 0] - 2.0 * x[:, 1] + 0.5 * x[:, 2]],
    ids=["constant", "linear"],
)
def test_quasi_interpolant_reproduces_the_constraint_space(field):
    # on the default footprint the plain sum_xi f(xi) chi_xi is off by about 30
    # for f = 1 here (docs/decisions.md)
    basis = local_basis(900)
    q = quasi_interpolate(basis, field(basis.nodes.points))
    pts = probes(2000)
    assert np.abs(q(pts) - field(pts)).max() < 1e-12


def test_quasi_interpolate_validation():
    basis = local_basis(150)
    with pytest.raises(ValueError, match="length"):
        quasi_interpolate(basis, np.zeros(151))
    f = np.zeros(150)
    f[7] = np.nan
    with pytest.raises(ValueError, match="data value 7 is not finite"):
        quasi_interpolate(basis, f)


# ---- kernel matvec and the preconditioned solve ---- #

def test_kernel_matvec_routes_agree():
    pts = fib(400).points
    K = sl.kernel_matrix(spec(2), pts)
    v = rng(5).normal(size=400)
    materialized = KernelMatvec(spec(2), pts)
    blocked = KernelMatvec(spec(2), pts, materialize_limit=0)
    assert materialized.matrix is not None
    assert blocked.matrix is None
    assert np.allclose(materialized(v), K @ v, atol=1e-12)
    assert np.allclose(blocked(v), K @ v, atol=1e-10)


@pytest.mark.parametrize("n", [200, 256, 257, 700])
def test_cached_and_matrix_free_matvecs_are_bitwise_equal(n):
    # one diagonal tile, exactly one tile, one row past it, a ragged last tile
    pts = fib(n).points
    cached = KernelMatvec(spec(2), pts)
    free = KernelMatvec(spec(2), pts, materialize_limit=0)
    assert cached.matrix is not None and free.matrix is None
    for v in (rng(n).normal(size=n), rng(n).normal(size=(n, 3))):
        assert np.array_equal(cached(v), free(v))
    with pytest.raises(ValueError, match="weights"):
        cached(np.ones(n + 1))


def test_preconditioned_solve_is_bitwise_the_same_materialized_or_not():
    ns = fib(1200)
    f = np.exp(ns.points[:, 2])
    basis = local_basis(1200)
    a, c, report = interpolate_preconditioned(ns, spec(2), basis, f)
    a0, c0, report0 = interpolate_preconditioned(ns, spec(2), basis, f, materialize_limit=0)
    assert np.array_equal(a, a0) and np.array_equal(c, c0)
    assert report.iterations == report0.iterations


def test_preconditioned_solve_matches_direct():
    ns = fib(300)
    k2 = spec(2)
    f = np.exp(ns.points[:, 2])
    basis = local_basis(300)
    a, c, report = interpolate_preconditioned(ns, k2, basis, f, tol=1e-12)
    assert report.converged
    assert report.final_check < 1e-10

    system = assemble_saddle(k2, ns)
    a_ref, c_ref = factor_solve(system, np.concatenate([f, np.zeros(4)]))
    pts = probes(400)
    phi = harmonic_basis_for(k2).eval(pts)
    got = sl.evaluate_expansion(k2, ns.points, a, c, pts)
    want = sl.evaluate_expansion(k2, ns.points, a_ref, c_ref, pts)
    assert np.abs(got - want).max() < 1e-8
    assert phi.shape == (400, 4)  # sanity on the probe evaluation itself


def test_preconditioned_solve_validation(monkeypatch):
    ns = fib(200)
    basis = local_basis(200)
    with monkeypatch.context() as mp:  # the order is checked before any kernel work
        mp.setattr(locallag, "KernelMatvec", None)
        with pytest.raises(ValueError, match="order m=3, but the basis was built for m=2"):
            interpolate_preconditioned(ns, spec(3), basis, np.zeros(200))
    with pytest.raises(ValueError, match="length"):
        interpolate_preconditioned(ns, spec(2), basis, np.zeros(7))
    with pytest.raises(ValueError, match="node set"):
        interpolate_preconditioned(fib(150), spec(2), basis, np.zeros(150))
    mirrored = sl.NodeSet(-ns.points)  # same size, other points
    with pytest.raises(ValueError, match="node set"):
        interpolate_preconditioned(mirrored, spec(2), basis, np.zeros(200))
    # an equal copy of the node set is accepted
    copy = sl.NodeSet(ns.points.copy())
    interpolate_preconditioned(copy, spec(2), basis, ns.points[:, 2])


def test_preconditioned_solve_rejects_non_finite_data():
    ns = fib(200)
    basis = local_basis(200)
    for bad in (np.nan, np.inf):
        f = np.zeros(200)
        f[5] = bad
        with pytest.raises(ValueError, match="value 5 is not finite"):
            interpolate_preconditioned(ns, spec(2), basis, f)


def test_preconditioned_solve_reports_nonconvergence():
    ns = fib(200)
    f = rng(11).normal(size=200)
    with pytest.raises(GmresNotConvergedError) as info:
        interpolate_preconditioned(ns, spec(2), local_basis(200), f, tol=1e-15, maxit=1)
    assert info.value.report.iterations == 1
    assert not info.value.report.converged


# ---- persistence ---- #

def test_npz_round_trip(tmp_path):
    basis = local_basis(150)
    path = tmp_path / "basis.npz"
    save_basis(path, basis)
    back = load_basis(path, basis.nodes, basis.spec)
    assert np.array_equal(back.A_sparse.indptr, basis.A_sparse.indptr)
    assert np.array_equal(back.A_sparse.indices, basis.A_sparse.indices)
    assert np.array_equal(back.A_sparse.data, basis.A_sparse.data)
    assert np.array_equal(back.C, basis.C)
    with np.load(path) as data:
        assert sorted(data.files) == sorted(
            ["colptr", "rowidx", "values", "C", "m", "n_nodes", "fingerprint"]
        )
        assert str(data["fingerprint"][0]) == basis.nodes.fingerprint()


def test_npz_in_the_earlier_layout_loads(tmp_path):
    # earlier files also hold per_center_n and the footprint rule (mode, M,
    # fixed_n), which loading ignores
    basis = local_basis(150)
    A = basis.A_sparse
    path = tmp_path / "old.npz"
    old_M, old_fixed_n = 7.0 / np.log(10.0) ** 2, FootprintRule().stencil_count(150, 2)
    np.savez(
        path,
        colptr=A.indptr,
        rowidx=A.indices,
        values=A.data,
        C=basis.C,
        per_center_n=np.diff(A.indptr),
        m=np.array([2]),
        n_nodes=np.array([150]),
        mode=np.array(["count"]),
        M=np.array([old_M]),
        fixed_n=np.array([old_fixed_n]),
    )
    back = load_basis(path, basis.nodes, basis.spec)
    assert np.array_equal(back.A_sparse.toarray(), A.toarray())
    assert np.array_equal(back.C, basis.C)


def test_npz_rejects_a_harmonic_block_of_the_wrong_shape(tmp_path):
    basis = build_local_basis(fib(80), spec(2))
    for bad in (basis.C[:, :79], basis.C.T):
        path = tmp_path / "basis.npz"
        save_basis(path, basis)
        with np.load(path) as data:
            fields = dict(data)
        fields["C"] = bad
        np.savez(path, **fields)
        with pytest.raises(ValueError, match=r"\(4, 80\)"):
            load_basis(path, basis.nodes, basis.spec)


@pytest.mark.parametrize(
    "edit, match",
    [
        ({-1: 80}, "indices must be < 80"),  # a row past the node count
        ({0: -1}, "indices must be >= 0"),
        ({1: 0}, "strictly increase"),  # row 0 twice
        ({0: 1, 1: 0}, "strictly increase"),  # rows 1, 0
    ],
    ids=["past-n", "negative", "repeated", "unsorted"],
)
def test_npz_rejects_bad_rows(tmp_path, edit, match):
    basis = build_local_basis(fib(80), spec(2))
    path = tmp_path / "basis.npz"
    save_basis(path, basis)
    with np.load(path) as data:
        fields = dict(data)
    col = fields["rowidx"][basis.A_sparse.indptr[3] : basis.A_sparse.indptr[4]]
    assert list(col[:2]) == [0, 1]
    for at, row in edit.items():
        col[at] = row  # a view: edits the rows of column 3 in fields
    np.savez(path, **fields)
    with pytest.raises(ValueError, match=match):
        load_basis(path, basis.nodes, basis.spec)


@pytest.mark.parametrize(
    "key, at, value", [("values", 5, np.nan), ("C", (0, 3), np.inf)], ids=["values", "C"]
)
def test_load_basis_rejects_non_finite_values(tmp_path, key, at, value):
    basis = local_basis(300)
    path = tmp_path / "basis.npz"
    save_basis(path, basis)
    with np.load(path) as data:
        fields = dict(data)
    fields[key][at] = value
    np.savez(path, **fields)
    with pytest.raises(ValueError, match=f"{path}: {key} holds values that are not finite numbers"):
        load_basis(path, basis.nodes, basis.spec)


def test_load_basis_rejects_another_node_set_of_the_same_size(tmp_path):
    basis = local_basis(200)
    path = tmp_path / "basis.npz"
    save_basis(path, basis)
    mirrored = sl.NodeSet(-basis.nodes.points)
    with pytest.raises(ValueError, match="different node set"):
        load_basis(path, mirrored, basis.spec)
    load_basis(path, sl.NodeSet(basis.nodes.points.copy()), basis.spec)  # an equal copy loads


def test_load_basis_validates_metadata(tmp_path):
    basis = local_basis(150)
    npz = tmp_path / "basis.npz"
    save_basis(npz, basis)
    with pytest.raises(ValueError, match="node count"):
        load_basis(npz, fib(80), basis.spec)
    with pytest.raises(ValueError, match="kernel order"):
        load_basis(npz, basis.nodes, spec(3))
