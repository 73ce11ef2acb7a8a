"""Local Lagrange bases and the preconditioned interpolation solve.

Instead of truncating the full basis, each local function chi_xi solves a small
bordered system on the footprint Upsilon(xi) of nearest neighbors with a
cardinal right-hand side. Stacking the footprint solutions column-wise gives a
sparse N x N coefficient matrix A and a dense m^2 x N polynomial block C; the
map v -> K (A v) + Phi (C v) is then close enough to the identity that plain
GMRES on the right-preconditioned system converges in a handful of iterations,
essentially independent of N.
"""

from __future__ import annotations

import itertools
import math
import threading
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import solver
from .geom import NodeSet, ensure_stats
from .kernel import (
    KERNEL_TILE,
    KernelSpec,
    apply_tiles,
    assemble_saddle_stack,
    evaluate_expansion,
    harmonic_basis_for,
    kernel_sum,
    kernel_tiles,
)
from .solver import gmres, lu_solve, one_blas_thread, pivot_check, spmv, validated_csc
from .neighbors import ball, build_index, knn, knn_all

# Refuse node sets beyond this size outright.
MAX_NODES = 200_000

# Largest N for which the kernel matrix is materialized (once) instead of
# recomputed tile by tile inside every matvec. Only its upper-triangle tiles
# are kept, 4 N (N + 256) bytes: measured peaks 0.547 x 8 N^2 at N = 3000,
# 431 MB at 10242 and 589 MB at 12000. Beyond the limit the matrix never
# exists in full.
MATERIALIZE_LIMIT = 12_000

# Stencils a build holds as query results at once, before their 32-bit copy:
# all 2562 radius stencils of about 300 nodes at once took 6.4 MB.
_QUERY_BLOCK = 256


class StencilFailureError(RuntimeError):
    """Some footprints gave singular local systems; lists the center indices."""

    def __init__(self, centers):
        self.centers = list(centers)
        preview = ", ".join(str(c) for c in self.centers[:8])
        more = "..." if len(self.centers) > 8 else ""
        super().__init__(
            f"{len(self.centers)} local systems were singular (centers {preview}{more})"
        )


@dataclass(frozen=True)
class FootprintRule:
    """How big the neighborhood of each center is; an input to the build only.

    count mode: n(N) = min(N, max(m^2 + 1, target)), where fixed_n pins the
    target, a given M makes it round(M * log(N)^2) with natural log, and the
    default FootprintRule() makes it 7 * ceil(log10(N)^2). radius mode: r(h) =
    M*h*log(1/h) and the footprint is a geodesic ball. M must be finite and
    positive, fixed_n at least 1, and a rule takes at most one of them.

    The default gives 63, 84, 119, 140, 154, 175, 196 nodes at N = 900, 2562,
    10242, 23042, 40962, 92162, 163842. This is the paper's preconditioning
    size. It does not bound the gap to the full Lagrange function: that gap is
    1.1e-1 at N = 900 and 4.6e-2 at N = 2562. FootprintRule(M=11.0) is the
    wide rule for tight agreement; the measurements are in docs/decisions.md.
    """

    mode: str = "count"
    M: float | None = None
    fixed_n: int | None = None

    def __post_init__(self):
        if self.mode not in ("count", "radius"):
            raise ValueError(f"unknown footprint mode {self.mode!r}")
        if self.mode == "radius" and self.M is None:
            raise ValueError("radius mode needs M")
        if self.M is not None and not 0.0 < self.M < math.inf:
            raise ValueError(f"footprint M must be finite and positive, got {self.M}")
        if self.fixed_n is not None:
            if self.M is not None:
                raise ValueError("a footprint rule takes M or fixed_n, not both")
            if self.fixed_n < 1:
                raise ValueError(f"footprint size fixed_n must be at least 1, got {self.fixed_n}")

    def stencil_count(self, n_nodes, m):
        if self.mode != "count":
            raise ValueError("stencil_count applies to count mode only")
        if self.fixed_n is not None:
            target = int(self.fixed_n)
        elif n_nodes <= 1:
            target = 1
        elif self.M is None:
            target = 7 * math.ceil(math.log10(n_nodes) ** 2)
        else:
            target = round(self.M * math.log(n_nodes) ** 2)
        return min(n_nodes, max(m * m + 1, target))

    def stencil_radius(self, h):
        if self.mode != "radius":
            raise ValueError("stencil_radius applies to radius mode only")
        if not 0.0 < h < 1.0:
            raise ValueError("radius mode needs a fill distance in (0, 1)")
        return self.M * h * math.log(1.0 / h)


@dataclass
class LocalBasis:
    """Sparse local Lagrange basis: column xi of A_sparse lives on Upsilon(xi).

    A_sparse is a scipy.sparse.csc_array; its column counts are the footprint
    sizes, np.diff(A_sparse.indptr); the rule that chose them is not kept. A
    build records the stencil health: min_pivot_ratio, the smallest min |U_ii|
    / ||M||_inf over the LU factors of the stencils kept, and grown, the number
    of singular centres retried at double size. Basis files do not store them,
    so a loaded basis has None for both.
    """

    nodes: NodeSet
    spec: KernelSpec
    A_sparse: scipy.sparse.csc_array
    C: np.ndarray
    min_pivot_ratio: float | None = None
    grown: int | None = None


def build_local_basis(nodes, spec, footprint=None):
    """Solve every footprint system and assemble the sparse basis.

    footprint defaults to FootprintRule(), the practical count rule 7 *
    ceil(log10(N)^2). It is sized for preconditioning and does not bound the
    far-field gap to the full basis (4.6e-2 at N = 2562, see
    docs/decisions.md). A singular footprint is retried once at doubled size
    (count) or doubled radius; the centres that fail again abort the build
    with StencilFailureError.
    """
    n = len(nodes)
    if n > MAX_NODES:
        raise ValueError(f"N = {n} exceeds the safety cap {MAX_NODES}")
    footprint = footprint or FootprintRule()
    pts = nodes.points
    index = build_index(nodes)

    # The queried stencils, in centre order, become the CSC row indices; the
    # query results are dropped before the coefficients are allocated.
    centres = np.arange(n)
    if footprint.mode == "count":
        n_sten = footprint.stencil_count(n, spec.m)
        start, rows = _stencil_layout(n, centres, knn_all(index, n_sten))
        grow = lambda i: knn(index, i, min(n, 2 * n_sten))
    else:
        stats = ensure_stats(nodes)
        r = footprint.stencil_radius(stats.h)
        start, rows = _stencil_layout(n, centres, (ball(index, pts[i], r) for i in range(n)))
        grow = lambda i: ball(index, pts[i], 2 * r)

    phi = harmonic_basis_for(spec).eval(pts)
    C = np.empty((spec.poly_dim, n))
    ratio = np.empty(n)

    def solve(centres, start, rows):
        """Columns of centres from their stencils as a CSC array, and the singular centres.

        A centre whose system is singular has an empty column; those centres
        are returned in order.
        """
        vals = np.empty(rows.size)
        failed = _cardinal_solves(spec, pts, phi, centres, start, rows, vals, C, ratio)
        keep = vals != 0.0  # exact zeros, and the columns of failed centres, are not stored
        if not keep.all():
            start = np.concatenate([[0], np.cumsum(keep, dtype=start.dtype)])[start]
            rows, vals = rows[keep], vals[keep]
        return validated_csc((n, n), start, rows, vals), failed

    A, failed = solve(centres, start, rows)
    grown = int(failed.size)
    if grown:
        retried, failed = solve(failed, *_stencil_layout(n, failed, [grow(i) for i in failed]))
        A = A + retried  # the retried columns are empty in A and the only ones in retried
    if failed.size:
        raise StencilFailureError(failed.tolist())
    return LocalBasis(
        nodes=nodes,
        spec=spec,
        A_sparse=A,
        C=C,
        min_pivot_ratio=float(ratio.min()),
        grown=grown,
    )


def _stencil_layout(n, centres, stencils):
    """(start, rows): the stencils of ascending centres, concatenated as CSC row indices.

    Column i of an n-column CSC array spans rows[start[i]:start[i + 1]], which
    is empty unless i is a centre. Both are 32-bit while the count fits. The
    stencils come one per centre, as the rows of one array or as an iterable
    consumed _QUERY_BLOCK at a time, of which only a 32-bit copy is kept.
    """
    if isinstance(stencils, np.ndarray):
        sizes, blocks = [stencils.shape[1]] * len(stencils), [stencils.ravel()]
    else:
        sizes, blocks = [], []
        stencils = iter(stencils)
        while block := list(itertools.islice(stencils, _QUERY_BLOCK)):
            sizes += [len(s) for s in block]
            blocks.append(np.concatenate(block, dtype=np.int32))
    counts = np.zeros(n, dtype=np.int64)
    counts[centres] = sizes
    start = np.concatenate([[0], np.cumsum(counts)])
    dtype = np.int32 if start[-1] <= np.iinfo(np.int32).max else np.int64
    return start.astype(dtype), np.concatenate(blocks, dtype=dtype)


def _cardinal_solves(spec, pts, phi, centres, start, rows, vals, C, ratio):
    """Cardinal solutions of the bordered systems of centres; returns the singular ones.

    Centre i's stencil is rows[start[i]:start[i + 1]], with the centre first.
    Stencils of equal size are assembled together in chunks of at most
    KERNEL_TILE**2 kernel entries, or one stencil, and each system is factored
    and solved in place by lu_solve. assemble_saddle and factor_solve use the
    same assembly and route, so each column is bitwise
    factor_solve(assemble_saddle(...)) on its stencil. The chunks are shared
    among solver.WORKERS threads inside one_blas_thread(), or solved on this
    thread alone if no OpenBLAS was found; each chunk writes only its own
    centres' entries. After its solve a stencil is sorted in place, and its
    kernel coefficients go to the same positions of vals (zeros where the
    system is singular). C and ratio receive the harmonic coefficients and
    pivot ratios of pivot_check; both are undefined at singular centres.
    """
    p = spec.poly_dim
    sizes = start[centres + 1] - start[centres]
    chunks = []
    for size in np.unique(sizes):
        same = centres[sizes == size]
        step = max(1, KERNEL_TILE**2 // int(size) ** 2)
        chunks += [same[lo : lo + step] for lo in range(0, len(same), step)]
    singular = np.zeros(len(pts), dtype=bool)

    def solve_chunk(cen):
        n = int(start[cen[0] + 1] - start[cen[0]])
        at = start[cen, None] + np.arange(n)
        stencils = rows[at]
        stack = assemble_saddle_stack(spec, pts, phi, stencils)
        rhs = np.zeros(n + p)
        rhs[0] = 1.0
        x = np.empty((len(cen), n + p))
        scales = np.empty(len(cen))
        for k, M in enumerate(stack):
            scales[k] = np.abs(M).sum(axis=1).max()  # inf-norm, before M holds its LU
            # M is symmetric, so M.T is the Fortran-ordered M that lu_solve overwrites
            x[k] = lu_solve(M.T, rhs)[1]
        ratio[cen], singular[cen] = pivot_check(stack, scales)
        x[singular[cen], :n] = 0.0
        order = np.argsort(stencils, axis=1)
        rows[at] = np.take_along_axis(stencils, order, axis=1)
        vals[at] = np.take_along_axis(x[:, :n], order, axis=1)
        C[:, cen] = x[:, n:].T

    with one_blas_thread() as found:
        _on_workers(solve_chunk, chunks, solver.WORKERS if found else 1)
    return np.flatnonzero(singular)


def _on_workers(task, items, workers):
    """task(item) for every item, on this thread and workers - 1 helper threads.

    All of them take items from one shared iterator. The first error stops
    every worker after its current item and is raised here; every helper has
    ended when this returns or raises.
    """
    todo = iter(items)
    lock = threading.Lock()
    stop = threading.Event()
    errors = []

    def drain():
        try:
            while not stop.is_set():
                with lock:
                    item = next(todo, None)
                if item is None:
                    return
                task(item)
        except BaseException:
            stop.set()
            raise

    def helper():
        try:
            drain()
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    helpers = [threading.Thread(target=helper, daemon=True) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        drain()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def _checked_centre(center_idx, n):
    """center_idx as an int; it must be an integer in 0..n-1, and not a bool."""
    if isinstance(center_idx, bool) or not isinstance(center_idx, (int, np.integer)):
        raise ValueError(f"center_idx {center_idx} is not an integer in 0..{n - 1}")
    if not 0 <= center_idx < n:
        raise ValueError(f"center_idx {center_idx} is outside 0..{n - 1}")
    return int(center_idx)


def eval_local_function(basis, center_idx, points):
    """Values of the local Lagrange function chi_xi at arbitrary points."""
    A = basis.A_sparse
    center_idx = _checked_centre(center_idx, A.shape[1])
    col = slice(A.indptr[center_idx], A.indptr[center_idx + 1])
    return evaluate_expansion(
        basis.spec, basis.nodes.points[A.indices[col]], A.data[col], basis.C[:, center_idx], points
    )


@dataclass
class QuasiInterpolant:
    """Q' f = sum_xi (f - Pi f)(xi) chi_xi + Pi f, collapsed to one kernel expansion.

    Pi f is the least-squares fit of the node data by the m^2 constraint
    harmonics. Its coefficients are folded into poly_weights, and the collapse
    sum_xi g_xi chi_xi = sum_zeta (A g)_zeta k(., zeta) + poly part is
    algebraically exact, so evaluation is always the full summation.
    """

    basis: LocalBasis
    kernel_weights: np.ndarray
    poly_weights: np.ndarray

    def __call__(self, points):
        return evaluate_expansion(
            self.basis.spec, self.basis.nodes.points, self.kernel_weights, self.poly_weights, points
        )


def _checked_data(f_values, n):
    """Node data as a float array; it must hold n finite values."""
    f = np.asarray(f_values, dtype=np.float64)
    if f.shape != (n,):
        raise ValueError("data length does not match the node set")
    finite = np.isfinite(f)
    if not finite.all():
        raise ValueError(f"data value {int(np.argmin(finite))} is not finite")
    return f


def quasi_interpolate(basis, f_values):
    """Quasi-interpolant Q' f = Q(f - Pi f) + Pi f of node data; needs no linear solve.

    The local functions carry a nearly constant far-field offset, so the plain
    Q f = sum_xi f(xi) chi_xi is off even for f = 1. Q' reproduces the constraint
    harmonics exactly (docs/decisions.md).
    """
    f = _checked_data(f_values, len(basis.nodes))
    phi = harmonic_basis_for(basis.spec).eval(basis.nodes.points)
    beta = np.linalg.lstsq(phi, f, rcond=None)[0]
    g = f - phi @ beta
    return QuasiInterpolant(
        basis=basis,
        kernel_weights=spmv(basis.A_sparse, g),
        poly_weights=basis.C @ g + beta,
    )


class KernelMatvec:
    """v -> K v for the full kernel matrix, materialized only when N is small.

    Up to `materialize_limit` nodes, `matrix` is the list of upper-triangle
    tiles (rows, cols, K[rows, cols]) that the symmetric kernel_sum computes,
    kept instead of dropped, and each product applies them as that sum does:
    the two routes give bitwise the same result. Above the limit `matrix` is
    None and each product is a symmetric kernel_sum, which recomputes the tiles
    and keeps memory at one tile.
    """

    def __init__(self, spec, points, materialize_limit=MATERIALIZE_LIMIT):
        self.spec = spec
        self.points = np.asarray(points, dtype=np.float64)
        n = self.points.shape[0]
        self.matrix = list(kernel_tiles(spec, self.points)) if n <= materialize_limit else None

    def __call__(self, v):
        if self.matrix is not None:
            return apply_tiles(self.matrix, self.points.shape[0], v)
        return kernel_sum(self.spec, self.points, self.points, v)


def interpolate_preconditioned(
    nodes,
    spec,
    basis,
    f_values,
    *,
    tol=1e-6,
    maxit=200,
    materialize_limit=MATERIALIZE_LIMIT,
):
    """Solve the interpolation system with the local basis as right preconditioner.

    GMRES runs on the composed operator v -> K (A_sparse v) + Phi (C v) and
    starts from the function values: the local basis is nearly cardinal, so
    the data are already close to the solution v. The returned (a, c) are
    recovered through the basis, a = A_sparse v, c = C v, and the report carries
    the relative sup-norm residual of the recovered interpolant as final_check.
    """
    f = _checked_data(f_values, len(nodes))
    if spec != basis.spec:
        raise ValueError(f"spec has order m={spec.m}, but the basis was built for m={basis.spec.m}")
    if basis.nodes is not nodes and not np.array_equal(basis.nodes.points, nodes.points):
        raise ValueError("basis was built for a different node set")

    kmv = KernelMatvec(spec, nodes.points, materialize_limit=materialize_limit)
    phi = harmonic_basis_for(spec).eval(nodes.points)
    A_s, C = basis.A_sparse, basis.C

    def op(v):
        return kmv(spmv(A_s, v)) + phi @ (C @ v)

    v, report = gmres(op, f, x0=f, tol=tol, maxit=maxit)
    a = spmv(A_s, v)
    c = C @ v
    resid = kmv(a) + phi @ c - f
    report.final_check = float(np.abs(resid).max() / np.abs(f).max())
    return a, c, report


# ---- basis and coefficient files ---- #

def _save_npz(path, nodes, spec, **arrays):
    """Write arrays to path as an npz file, with the m, n_nodes and fingerprint they are for."""
    # np.savez would append ".npz" to a name without it; a file object keeps the name
    with open(path, "wb") as fh:
        np.savez(
            fh,
            **arrays,
            m=np.array([spec.m]),
            n_nodes=np.array([len(nodes)]),
            fingerprint=np.array([nodes.fingerprint()]),
        )


def _load_npz(path, kind, shapes, nodes, spec):
    """{key: array} for each key of shapes, read from the npz file at path.

    The one opener of saved files; kind ("basis", "coefficient") names the
    file in errors. A file that is not an npz file holding the keys of shapes,
    m and n_nodes fails with one ValueError naming path and any keys missing.
    The file must be for len(nodes) nodes and order spec.m, and a stored
    fingerprint must be that of nodes: files written before fingerprints were
    stored load without that check. Each array must be numeric and finite,
    with the shape shapes gives it unless that is None.
    """
    not_ours = f"{path} is not a spherelag npz {kind} file"
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # text, pickle, truncated or empty
        raise ValueError(not_ours) from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{not_ours}: it holds a single array")
    with data:
        missing = [key for key in (*shapes, "m", "n_nodes") if key not in data.files]
        if missing:
            raise ValueError(f"{not_ours}: it lacks {', '.join(missing)}")
        try:
            file_n, file_m = int(data["n_nodes"][0]), int(data["m"][0])
        except (IndexError, TypeError, ValueError):
            raise ValueError(f"{not_ours}: n_nodes and m must each hold one integer") from None
        n = len(nodes)
        other = f"{path}: the {kind} file is for a different"
        if file_n != n:
            raise ValueError(f"{other} node count, N={file_n} not {n}")
        if file_m != spec.m:
            raise ValueError(f"{other} kernel order, m={file_m} not {spec.m}")
        if "fingerprint" in data.files and str(data["fingerprint"][0]) != nodes.fingerprint():
            raise ValueError(f"{other} node set (fingerprint mismatch)")
        arrays = {key: data[key] for key in shapes}
    for key, shape in shapes.items():
        got = arrays[key]
        if shape is not None and got.shape != shape:
            raise ValueError(f"{path}: {key} has shape {got.shape}, expected {shape}")
        if got.dtype.kind not in "iuf" or not np.isfinite(got).all():
            raise ValueError(f"{path}: {key} holds values that are not finite numbers")
    return arrays


def save_basis(path, basis):
    """Write a LocalBasis to path as an npz file, under exactly that name.

    The file stores the node-set fingerprint, which load_basis checks, and not
    the footprint rule: each centre's footprint size is np.diff(colptr).
    """
    A = basis.A_sparse
    _save_npz(
        path, basis.nodes, basis.spec, colptr=A.indptr, rowidx=A.indices, values=A.data, C=basis.C
    )


def load_basis(path, nodes, spec):
    """Inverse of save_basis; validates set size, kernel order, values and every index.

    Errors are those of the shared opener, plus the row checks of
    validated_csc. Arrays of earlier layouts that nothing reads, such as
    per_center_n and the footprint rule's mode, M and fixed_n, are ignored.
    """
    n = len(nodes)
    shapes = {"colptr": None, "rowidx": None, "values": None, "C": (spec.poly_dim, n)}
    arrays = _load_npz(path, "basis", shapes, nodes, spec)
    A = validated_csc((n, n), arrays["colptr"], arrays["rowidx"], arrays["values"])
    return LocalBasis(nodes, spec, A, arrays["C"])


def save_coeffs(path, nodes, spec, a, c):
    """Write the coefficients (a, c) of an expansion over nodes to path as an npz file."""
    _save_npz(path, nodes, spec, a=a, c=c)


def load_coeffs(path, nodes, spec):
    """Inverse of save_coeffs: (a, c), checked as load_basis checks a basis file."""
    shapes = {"a": (len(nodes),), "c": (spec.poly_dim,)}
    arrays = _load_npz(path, "coefficient", shapes, nodes, spec)
    return arrays["a"], arrays["c"]
