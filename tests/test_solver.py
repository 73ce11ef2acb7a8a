"""Saddle solves, the worker pool, checked CSC storage, and GMRES."""

import threading
import time

import numpy as np
import pytest
from scipy.linalg.lapack import dgesv

import spherelag as sl
import spherelag.solver as solver
from spherelag.solver import (
    PIVOT_RTOL,
    GmresNotConvergedError,
    SaddleSystem,
    SingularSystemError,
    bordered_solve,
    factor_solve,
    gmres,
    on_workers,
    one_blas_thread,
    spmv,
    validated_csc,
)

from helpers import blas_thread_counts, rng


def random_saddle(n, p, seed=0):
    """Random symmetric bordered system with a well-conditioned constraint block."""
    g = rng(seed)
    base = g.normal(size=(n, n))
    K = base + base.T + 2.0 * n * np.eye(n)
    Phi = g.normal(size=(n, p))
    M = np.zeros((n + p, n + p))
    M[:n, :n] = K
    M[:n, n:] = Phi
    M[n:, :n] = Phi.T
    return SaddleSystem(n=n, p=p, matrix=M)


# ---- saddle systems ---- #

def test_factor_solve_matches_dense_solve():
    system = random_saddle(20, 4, seed=1)
    rhs = rng(2).normal(size=24)
    a, c = factor_solve(system, rhs)
    expected = np.linalg.solve(system.matrix, rhs)
    assert np.allclose(np.concatenate([a, c]), expected, atol=1e-10)
    assert a.shape == (20,) and c.shape == (4,)


def test_factor_solve_many_rhs():
    system = random_saddle(15, 4, seed=3)
    rhs = rng(4).normal(size=(19, 6))
    a, c = factor_solve(system, rhs)
    assert a.shape == (15, 6) and c.shape == (4, 6)
    for j in range(6):
        aj, cj = factor_solve(system, rhs[:, j])
        assert np.allclose(aj, a[:, j], atol=1e-12)
        assert np.allclose(cj, c[:, j], atol=1e-12)


def test_factor_solve_solves_the_matrix_not_its_transpose():
    system = random_saddle(12, 3, seed=7)
    system.matrix[:12, :12] += np.triu(rng(8).normal(size=(12, 12)), 1)  # not symmetric
    before = system.matrix.copy()
    rhs = rng(9).normal(size=15)
    a, c = factor_solve(system, rhs)
    assert np.allclose(system.matrix @ np.concatenate([a, c]), rhs, atol=1e-10)
    assert np.array_equal(system.matrix, before)  # factored on a copy


@pytest.mark.parametrize("n", [119, 300, 845])
def test_factor_solve_is_bitwise_dgesv_on_one_blas_thread(n):
    system = random_saddle(n, 4, seed=n)
    rhs = np.zeros(n + 4)
    rhs[0] = 1.0
    a, c = factor_solve(system, rhs)
    with one_blas_thread():
        sol = dgesv(np.array(system.matrix, order="F"), rhs)[2]
    assert np.array_equal(np.concatenate([a, c]), sol)


def test_one_blas_thread_nests_and_restores_every_count():
    before = blas_thread_counts()
    with pytest.raises(RuntimeError, match="inner"):
        with one_blas_thread() as found:
            assert found == bool(before)
            with one_blas_thread():
                assert blas_thread_counts() == [1] * len(before)
                raise RuntimeError("inner")
    assert blas_thread_counts() == before
    with one_blas_thread():
        with one_blas_thread():
            pass
        assert blas_thread_counts() == [1] * len(before)  # the outer scope still holds
    assert blas_thread_counts() == before


@pytest.mark.parametrize("rhs_shape", [(24,), (24, 3)])
def test_bordered_solve_flags_the_singular_system_of_a_stack(rhs_shape):
    systems = [random_saddle(20, 4, seed=seed).matrix for seed in (10, 11, 12)]
    systems[1][3] = systems[1][4]  # duplicate row and column
    systems[1][:, 3] = systems[1][:, 4]
    rhs = rng(13).normal(size=rhs_shape)
    x, ratio, singular = bordered_solve(np.array(systems), rhs)
    assert x.shape == (3, *rhs_shape)
    assert singular.tolist() == [False, True, False]
    assert ratio[1] <= PIVOT_RTOL < min(ratio[0], ratio[2])
    with one_blas_thread():
        for k in (0, 2):
            assert np.array_equal(x[k], dgesv(np.array(systems[k], order="F"), rhs)[2])


def test_on_workers_runs_each_item_once(monkeypatch):
    monkeypatch.setattr(solver, "WORKERS", 4)
    done = []
    on_workers(done.append, [0, 1, 2])
    assert sorted(done) == [0, 1, 2]


def test_on_workers_starts_no_idle_threads(monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(solver.threading, "Thread", Counted)
    monkeypatch.setattr(solver, "WORKERS", 4)
    pooled = bool(solver._openblas_thread_controls())
    for n_items, helpers in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 3), (10, 3)]:
        started.clear()
        done = []
        on_workers(done.append, range(n_items))
        assert sorted(done) == list(range(n_items))
        assert len(started) == (helpers if pooled else 0)
    # a product of one row block is one stripe, run on the calling thread alone
    started.clear()
    sl.KernelMatvec(sl.KernelSpec(2), sl.gen_fibonacci(200).points, materialize_limit=0)(np.ones(200))
    assert started == []


def test_on_workers_stops_and_reraises_the_first_error(monkeypatch):
    monkeypatch.setattr(solver, "WORKERS", 4)
    before, threads_before = blas_thread_counts(), threading.active_count()
    started = []

    def task(item):
        started.append(item)
        if item == 5:
            raise RuntimeError("item 5 failed")
        time.sleep(0.01)

    with pytest.raises(RuntimeError, match="item 5 failed"):
        on_workers(task, range(100))
    # each other thread finishes its current item and may start one more
    assert len(started) - started.index(5) - 1 < solver.WORKERS
    assert blas_thread_counts() == before
    assert threading.active_count() == threads_before


def test_singular_saddle_raises():
    system = random_saddle(10, 2, seed=5)
    system.matrix[3] = system.matrix[4]  # duplicate row
    system.matrix[:, 3] = system.matrix[:, 4]
    with pytest.raises(SingularSystemError):
        factor_solve(system, np.zeros(12))


def test_saddle_validates_shapes():
    with pytest.raises(ValueError):
        SaddleSystem(n=3, p=2, matrix=np.zeros((4, 4)))
    system = random_saddle(6, 2, seed=6)
    with pytest.raises(ValueError):
        factor_solve(system, np.zeros(7))


# ---- sparse matrices ---- #

def random_columns(g, nrows, ncols, max_k):
    """Per-column (sorted distinct rows, nonzero values) pairs."""
    columns = []
    for _ in range(ncols):
        rows = np.sort(g.choice(nrows, size=int(g.integers(0, max_k)), replace=False))
        columns.append((rows, g.normal(size=rows.size)))
    return columns


def csc_of(nrows, columns):
    indptr = np.concatenate([[0], np.cumsum([rows.size for rows, _ in columns])])
    rows = np.concatenate([r for r, _ in columns])
    vals = np.concatenate([v for _, v in columns])
    return validated_csc((nrows, len(columns)), indptr, rows, vals)


def scatter_dense(nrows, columns):
    out = np.zeros((nrows, len(columns)))
    for j, (rows, vals) in enumerate(columns):
        for r, v in zip(rows, vals):
            out[r, j] += v
    return out


def test_validated_csc_matches_dense_scatter():
    columns = random_columns(rng(7), 20, 12, 9)
    mat = csc_of(20, columns)
    assert np.array_equal(mat.toarray(), scatter_dense(20, columns))
    assert mat.nnz == sum(len(r) for r, _ in columns)


def test_from_columns_rejects_duplicate_rows():
    # A repeated row in one column is rejected, not summed.
    with pytest.raises(ValueError, match="increase"):
        validated_csc((5, 1), [0, 2], [2, 2], [1.0, 3.0])


def test_storage_validation():
    with pytest.raises(ValueError):  # indptr not ending at nnz
        validated_csc((3, 2), [0, 1, 3], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError):  # indptr ending short of nnz
        validated_csc((3, 2), [0, 1, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError):  # indptr of the wrong length
        validated_csc((3, 2), [0, 1], [0], [1.0])
    with pytest.raises(ValueError):  # row out of range
        validated_csc((3, 1), [0, 1], [5], [1.0])
    with pytest.raises(ValueError):  # negative row
        validated_csc((3, 1), [0, 1], [-1], [1.0])
    with pytest.raises(ValueError, match="increase"):  # unsorted rows
        validated_csc((4, 1), [0, 2], [2, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="zero"):  # explicit zero
        validated_csc((4, 1), [0, 1], [2], [0.0])
    # trailing empty columns are fine
    mat = validated_csc((4, 3), [0, 2, 2, 2], [1, 3], [5.0, 6.0])
    assert mat.nnz == 2


def test_spmv_matches_dense_product():
    columns = random_columns(rng(8), 30, 25, 12)
    mat = csc_of(30, columns)
    dense = scatter_dense(30, columns)
    for seed in range(3):
        v = rng(100 + seed).normal(size=25)
        assert np.allclose(spmv(mat, v), dense @ v, atol=1e-13)
    with pytest.raises(ValueError):
        spmv(mat, np.zeros(30))


# ---- GMRES ---- #

def test_gmres_diagonal_system_converges_in_distinct_eigenvalue_count():
    # diag with 4 distinct eigenvalues: exact convergence in at most 4 steps
    d = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
    b = rng(9).normal(size=8)
    x, report = gmres(lambda v: d * v, b, tol=1e-12, maxit=50)
    assert report.converged
    assert report.iterations <= 4
    assert np.allclose(x, b / d, atol=1e-10)


def test_gmres_identity_converges_immediately():
    b = rng(10).normal(size=12)
    x, report = gmres(lambda v: v, b, tol=1e-12)
    assert report.converged and report.iterations <= 1
    assert np.allclose(x, b, atol=1e-12)


def test_gmres_matches_direct_solve():
    g = rng(11)
    A = g.normal(size=(25, 25)) + 25 * np.eye(25)
    b = g.normal(size=25)
    x, report = gmres(lambda v: A @ v, b, tol=1e-11, maxit=100)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)
    assert report.final_relres <= 1e-11
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-10


def test_gmres_residual_history_non_increasing():
    g = rng(12)
    A = g.normal(size=(30, 30)) + 30 * np.eye(30)
    b = g.normal(size=30)
    _, report = gmres(lambda v: A @ v, b, tol=1e-12, maxit=100)
    h = np.array(report.residual_history)
    assert h.shape == (report.iterations + 1,)
    assert np.all(np.diff(h) <= 1e-14)


def test_gmres_x0_short_circuits_on_exact_start():
    g = rng(13)
    A = g.normal(size=(10, 10)) + 10 * np.eye(10)
    x_true = g.normal(size=10)
    b = A @ x_true
    x, report = gmres(lambda v: A @ v, b, x0=x_true, tol=1e-10)
    assert report.iterations == 0
    assert np.array_equal(x, x_true)


def test_gmres_zero_rhs():
    x, report = gmres(lambda v: 2.0 * v, np.zeros(5))
    assert np.array_equal(x, np.zeros(5))
    assert report.converged and report.iterations == 0


def test_gmres_not_converged_carries_best_iterate():
    g = rng(14)
    A = g.normal(size=(40, 40)) + 4 * np.eye(40)  # not strongly diagonal dominant
    b = g.normal(size=40)
    with pytest.raises(GmresNotConvergedError) as info:
        gmres(lambda v: A @ v, b, tol=1e-14, maxit=3)
    err = info.value
    assert err.report.iterations == 3
    assert not err.report.converged
    assert err.x.shape == (40,)
    # the carried iterate really achieves the reported residual
    relres = np.linalg.norm(b - A @ err.x) / np.linalg.norm(b)
    assert relres == pytest.approx(err.report.final_relres, rel=1e-6)


def test_gmres_right_preconditioning_recovers_unpreconditioned_answer():
    # a right preconditioner is composed by the caller: GMRES on A P, then x = P y
    g = rng(15)
    A = g.normal(size=(20, 20)) + 20 * np.eye(20)
    P = np.diag(1.0 / np.diag(A))
    b = g.normal(size=20)
    x_plain, _ = gmres(lambda v: A @ v, b, tol=1e-12, maxit=80)
    y, report = gmres(lambda v: A @ (P @ v), b, tol=1e-12, maxit=80)
    assert np.allclose(P @ y, x_plain, atol=1e-8)
    assert report.converged


def test_gmres_happy_breakdown_rank_deficient_rhs():
    # b lies in a 2-dimensional invariant subspace: breakdown at step 2 counts
    # as convergence and the answer is exact.
    A = np.diag([3.0, 5.0, 7.0, 7.0])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    x, report = gmres(lambda v: A @ v, b, tol=1e-15, maxit=10)
    assert report.converged
    assert report.iterations <= 2
    assert np.allclose(A @ x, b, atol=1e-12)


def test_gmres_rejects_maxit_below_one():
    for maxit in (0, -3, 1.7, True):
        with pytest.raises(ValueError, match="maxit"):
            gmres(lambda v: v, np.ones(4), maxit=maxit)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_gmres_rejects_a_tol_that_is_not_finite_and_positive(tol):
    calls = []

    def apply_a(v):
        calls.append(1)
        return 2.0 * v

    with pytest.raises(ValueError, match=rf"^tol must be a real number in \(0, inf\), got {tol}$"):
        gmres(apply_a, np.ones(4), tol=tol)
    assert not calls  # refused before the first matvec


def test_gmres_storage_grows_without_changing_the_iterates():
    # 40 distinct eigenvalues: more iterations than the first block holds
    d = np.repeat(np.linspace(1.0, 40.0, 40), 2)
    b = rng(17).normal(size=80)
    x, report = gmres(lambda v: d * v, b, tol=1e-13, maxit=40)
    assert report.converged and report.iterations > 16
    assert np.allclose(x, b / d, atol=1e-10)
    x_big, report_big = gmres(lambda v: d * v, b, tol=1e-13, maxit=10**9)
    assert np.array_equal(x_big, x)
    assert report_big.residual_history == report.residual_history
