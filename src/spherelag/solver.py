"""Linear algebra: bordered (saddle) solves, checked CSC storage, GMRES."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgetrf, dgetrs

from .geom import checked_int, checked_real

PIVOT_RTOL = 1e-14

# Threads the stencil solves of a local basis build and the bulk k-nearest
# query run on: one per core this process may use.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class SingularSystemError(np.linalg.LinAlgError):
    """Factorization met a pivot below 1e-14 * ||M||."""


class NonUnisolventError(np.linalg.LinAlgError):
    """Point configuration cannot determine the polynomial part (singular Gram)."""


class GmresNotConvergedError(RuntimeError):
    """GMRES hit maxit; carries the best iterate and its report."""

    def __init__(self, x, report):
        super().__init__(
            f"no convergence in {report.iterations} iterations "
            f"(relative residual {report.final_relres:.3e})"
        )
        self.x = x
        self.report = report


# ---- one BLAS thread ---- #

# Thread-count functions of the OpenBLAS that numpy's wheel bundles
# (libscipy_openblas64_) and of the one SciPy's wheel bundles
# (libscipy_openblas).
_OPENBLAS_THREAD_NAMES = [
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
]


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    The libraries are found by name in /proc/self/maps; where that file does not
    exist the list is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in fh)
                if len(fields) == 6 and "openblas" in fields[5].lower()
            }
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: this returns its handle
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_NAMES:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


_pin_lock = threading.Lock()
_pin = {"open": 0, "saved": []}


@contextlib.contextmanager
def one_blas_thread():
    """Hold every OpenBLAS in the process to one thread; yields whether any was found.

    Threaded OpenBLAS slows the small LU factorizations of the build, and several
    threads calling it at once slow each other further. Scopes may nest and may
    be open in several threads at once: the first to open saves each library's
    thread count, and the last to close restores it, on error too.
    """
    controls = _openblas_thread_controls()
    with _pin_lock:
        if _pin["open"] == 0:
            _pin["saved"] = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _pin["open"] += 1
    try:
        yield bool(controls)
    finally:
        with _pin_lock:
            _pin["open"] -= 1
            if _pin["open"] == 0:
                for (_, set_), count in zip(controls, _pin["saved"]):
                    set_(count)


def on_workers(task, items):
    """task(item) for every item, on this thread and at most WORKERS - 1 helper threads.

    Runs inside one_blas_thread(), and on this thread alone if no OpenBLAS was
    found. No more helpers start than there are items besides the one this
    thread takes, so a single item starts none. Each thread takes one item at
    a time from one shared iterator. The first error stops every thread after
    its current item and is raised here; every helper has ended when this
    returns or raises.
    """
    items = list(items)
    todo = iter(items)
    lock = threading.Lock()
    errors = []

    def drain():
        try:
            while not errors:
                with lock:
                    item = next(todo, None)
                if item is None:
                    return
                task(item)
        except BaseException as exc:  # raised on the calling thread below
            errors.append(exc)

    with one_blas_thread() as found:
        count = min(WORKERS if found else 1, len(items)) - 1
        helpers = [threading.Thread(target=drain, daemon=True) for _ in range(count)]
        for thread in helpers:
            thread.start()
        try:
            drain()
        finally:
            for thread in helpers:
                thread.join()
    if errors:
        raise errors[0]


# ---- dense saddle systems ---- #

@dataclass
class SaddleSystem:
    """Bordered collocation matrix [[K, Phi], [Phi^T, 0]] of size (n+p)^2."""

    n: int
    p: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        size = self.n + self.p
        if m.shape != (size, size):
            raise ValueError(f"matrix shape {m.shape} does not match n+p = {size}")
        self.matrix = m


def bordered_solve(stack, rhs):
    """(x, pivot_ratio, singular) for each matrix M.T of a C-ordered stack, solving M x = rhs.

    Each stack[k].T is a Fortran-ordered M, which LAPACK getrf factors in
    place, so stack holds the LU factors afterwards; getrs then solves for the
    rhs, of length n or shape (n, r), that the stack shares. The bordered
    matrices of kernel.assemble_saddle_stack are bitwise symmetric, as numpy
    forms their kernel blocks by syrk, so there stack[k] is M itself.
    pivot_ratio is min |U_ii| / scale, where scale is the inf-norm of
    stack[k] taken before it is factored (the 1-norm of M), and a system is
    singular when min |U_ii| <= PIVOT_RTOL * scale; its x is then undefined.
    The solves run inside one_blas_thread(): on one thread each x is bitwise
    that of dgesv, which makes the same two calls.
    """
    x = np.empty((len(stack), *np.shape(rhs)))
    scales = np.empty(len(stack))
    with one_blas_thread():
        for k, M in enumerate(stack):
            scales[k] = np.abs(M).sum(axis=1).max()
            lu, piv, _ = dgetrf(M.T, overwrite_a=1)
            x[k] = dgetrs(lu, piv, rhs)[0]
    smallest = np.abs(np.diagonal(stack, axis1=-2, axis2=-1)).min(axis=-1)
    return x, smallest / scales, smallest <= PIVOT_RTOL * scales


def factor_solve(system, rhs):
    """Solve the bordered system for one or many right-hand sides.

    rhs has length n+p (trailing p entries zero for plain interpolation data);
    columns are independent problems. Returns (a, c) = (kernel coefficients,
    polynomial coefficients). bordered_solve factors a copy of the matrix and
    solves, as the local basis build does; a pivot at or below PIVOT_RTOL
    times the matrix norm raises SingularSystemError.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != system.n + system.p:
        raise ValueError(
            f"rhs length {rhs.shape[0]} does not match system size {system.n + system.p}"
        )
    # a C-ordered copy of M.T, whose transpose is the Fortran-ordered M that
    # getrf overwrites; getrf would factor a Fortran-ordered copy's transpose
    # out of place, and the pivot check would read the unfactored matrix
    x, _, singular = bordered_solve(np.array(system.matrix.T, order="C")[None], rhs)
    if singular[0]:
        raise SingularSystemError(
            f"saddle system of size {system.n}+{system.p} is numerically singular"
        )
    return x[0, : system.n], x[0, system.n :]


# ---- compressed sparse column matrices ---- #

def validated_csc(shape, indptr, indices, data):
    """scipy csc_array from raw CSC arrays, rejecting all but canonical storage.

    indptr must run from 0 to nnz without decreasing, rows must lie in range
    and strictly increase within each column, and no zero may be stored.
    """
    indptr = np.asarray(indptr)
    data = np.asarray(data, dtype=np.float64)
    # checked before construction: check_format would silently drop entries past indptr[-1]
    if indptr.size == 0 or indptr[-1] != data.size:
        raise ValueError("indptr must end at nnz")
    A = scipy.sparse.csc_array((data, indices, indptr), shape=shape)
    A.check_format(full_check=True)  # lengths, indptr start and order, row range
    if not A.has_canonical_format:
        raise ValueError("row indices must strictly increase within a column")
    if np.any(A.data == 0.0):
        raise ValueError("explicit zeros must not be stored")
    return A


def spmv(matrix, v):
    """Sparse matrix-vector product with a length check."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (matrix.shape[1],):
        raise ValueError(f"vector length {v.shape} does not match {matrix.shape[1]} columns")
    return matrix @ v


# ---- GMRES ---- #

@dataclass
class GmresReport:
    """Iteration trace of one GMRES run (Euclidean relative residuals)."""

    iterations: int
    converged: bool
    final_relres: float
    residual_history: list
    final_check: float | None = None


def gmres(apply_a, rhs, *, x0=None, tol=1e-8, maxit=200):
    """Full (non-restarted) GMRES with modified Gram-Schmidt and Givens rotations.

    Solves A x = rhs where apply_a implements v -> A v; a caller that wants a
    right preconditioner P passes v -> A P v and maps the answer back through
    P, as interpolate_preconditioned does. Convergence is
    ||rhs - A x||_2 / ||rhs||_2 <= tol; an exact Krylov breakdown counts as
    convergence; tol must be a real number in (0, inf). Raises
    GmresNotConvergedError (carrying the best iterate) when maxit is
    exhausted. The Krylov vectors and the Hessenberg columns are kept in lists
    that grow by one entry per iteration, so memory follows the iterations
    taken, not maxit.
    """
    maxit = checked_int(maxit, "maxit", 1)
    tol = checked_real(tol, "tol", 0, np.inf, "()")
    b = np.asarray(rhs, dtype=np.float64)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), GmresReport(0, True, 0.0, [0.0])

    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)

    r0 = b - apply_a(x0)
    beta = float(np.linalg.norm(r0))
    history = [beta / bnorm]
    if history[0] <= tol:
        return x0.copy(), GmresReport(0, True, history[0], history)

    Q = [r0 / beta]
    R = []  # column j of the rotated Hessenberg matrix, trimmed to length j + 1
    cs, sn, g = [], [], [beta]

    converged = False
    k = 0
    for j in range(maxit):
        # copy: the operator may hand back its argument (e.g. the identity),
        # and orthogonalization must not write through into Q
        w = np.array(apply_a(Q[j]), dtype=np.float64)
        h = np.zeros(j + 2)
        for i in range(j + 1):
            h[i] = Q[i] @ w
            w -= h[i] * Q[i]
        h[j + 1] = np.linalg.norm(w)
        col_scale = max(1.0, float(np.abs(h).max()))
        breakdown = h[j + 1] <= 1e-14 * col_scale
        if not breakdown:
            Q.append(w / h[j + 1])

        for i in range(j):  # apply accumulated rotations to the new column
            hi, hj = h[i], h[i + 1]
            h[i] = cs[i] * hi + sn[i] * hj
            h[i + 1] = -sn[i] * hi + cs[i] * hj
        rad = np.hypot(h[j], h[j + 1])
        cs.append(1.0 if rad == 0.0 else h[j] / rad)
        sn.append(0.0 if rad == 0.0 else h[j + 1] / rad)
        h[j] = rad
        R.append(h[: j + 1])
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]

        k = j + 1
        history.append(abs(g[j + 1]) / bnorm)
        if history[-1] <= tol or breakdown:
            converged = True
            break

    H = np.zeros((k, k))
    for j, col in enumerate(R):
        H[: j + 1, j] = col
    y = scipy.linalg.solve_triangular(H, np.array(g[:k]), check_finite=False)
    x = x0 + np.array(Q[:k]).T @ y
    report = GmresReport(k, converged, history[-1], history)
    if not converged:
        raise GmresNotConvergedError(x, report)
    return x, report

