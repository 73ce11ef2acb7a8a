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

import math
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .geom import NodeSet, checked_int, checked_real, ensure_stats
from .kernel import (
    KERNEL_TILE,
    MATERIALIZE_LIMIT,
    KernelMatvec,
    KernelSpec,
    assemble_saddle_stack,
    evaluate_expansion,
    harmonic_basis_for,
)
from .solver import bordered_solve, gmres, on_workers, spmv, validated_csc
from .neighbors import ball, build_index, knn, knn_all

# Refuse node sets beyond this size outright.
MAX_NODES = 200_000


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
    positive, fixed_n an integer >= 1, and a rule takes at most one of them.

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
        if self.M is not None:
            object.__setattr__(self, "M", checked_real(self.M, "footprint M", 0, math.inf, "()"))
        if self.fixed_n is not None:
            if self.M is not None:
                raise ValueError("a footprint rule takes M or fixed_n, not both")
            object.__setattr__(self, "fixed_n", checked_int(self.fixed_n, "fixed_n", 1))

    def stencil_count(self, n_nodes, m):
        if self.mode != "count":
            raise ValueError("stencil_count applies to count mode only")
        n_nodes = checked_int(n_nodes, "n_nodes", 1)
        if self.fixed_n is not None:
            target = self.fixed_n
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
        h = checked_real(h, "fill distance h", 0, 1, "()")
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
        start, rows = _stencil_layout(n, centres, [ball(index, pts[i], r) for i in range(n)])
        grow = lambda i: ball(index, pts[i], 2 * r)

    phi = harmonic_basis_for(spec).eval(pts)
    C = np.empty((spec.poly_dim, n))
    ratio = np.empty(n)
    A, failed = _cardinal_solves(spec, pts, phi, centres, start, rows, C, ratio)
    grown = int(failed.size)
    if grown:
        layout = _stencil_layout(n, failed, [grow(i) for i in failed])
        retried, failed = _cardinal_solves(spec, pts, phi, failed, *layout, C, ratio)
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
    stencils come one per centre, as the rows of one array or as a list.
    """
    counts = np.zeros(n, dtype=np.int64)
    counts[centres] = [len(s) for s in stencils]
    start = np.concatenate([[0], np.cumsum(counts)])
    dtype = np.int32 if start[-1] <= np.iinfo(np.int32).max else np.int64
    return start.astype(dtype), np.concatenate(stencils, axis=None, dtype=dtype)


def _cardinal_solves(spec, pts, phi, centres, start, rows, C, ratio):
    """The columns of centres as a CSC array, and the singular centres in order.

    Centre i's stencil is rows[start[i]:start[i + 1]], with the centre first.
    Stencils of equal size are assembled together in chunks of at most
    KERNEL_TILE**2 kernel entries, or one stencil, and each chunk is solved in
    place by solver.bordered_solve. assemble_saddle and factor_solve use the
    same assembly and solve, so each column is bitwise
    factor_solve(assemble_saddle(...)) on its stencil. The chunks are shared
    among the threads of solver.on_workers; each chunk writes only its own
    centres' entries. The kernel coefficients are stored in stencil order,
    then SciPy sorts each column and drops the exact zeros, so a singular
    centre has an empty column. C and ratio receive the harmonic coefficients
    and pivot ratios; both are undefined at singular centres.
    """
    p = spec.poly_dim
    sizes = start[centres + 1] - start[centres]
    chunks = []
    for size in np.unique(sizes):
        same = centres[sizes == size]
        step = max(1, KERNEL_TILE**2 // int(size) ** 2)
        chunks += [same[lo : lo + step] for lo in range(0, len(same), step)]
    singular = np.zeros(len(pts), dtype=bool)
    vals = np.empty(rows.size)

    def solve_chunk(cen):
        n = int(start[cen[0] + 1] - start[cen[0]])
        at = start[cen, None] + np.arange(n)
        stack = assemble_saddle_stack(spec, pts, phi, rows[at])
        rhs = np.zeros(n + p)
        rhs[0] = 1.0
        x, ratio[cen], singular[cen] = bordered_solve(stack, rhs)
        x[singular[cen], :n] = 0.0
        vals[at] = x[:, :n]
        C[:, cen] = x[:, n:].T

    on_workers(solve_chunk, chunks)
    A = scipy.sparse.csc_array((vals, rows, start), shape=(len(pts), len(pts)))
    A.sort_indices()
    A.eliminate_zeros()
    return A, np.flatnonzero(singular)


def eval_local_function(basis, center_idx, points):
    """Values of the local Lagrange function chi_xi at arbitrary points."""
    A = basis.A_sparse
    center_idx = checked_int(center_idx, "center_idx", 0, A.shape[1] - 1)
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
