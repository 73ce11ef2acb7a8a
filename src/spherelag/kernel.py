"""Surface-spline kernels on the sphere and real spherical harmonics.

The order-m kernel is k_m(x, a) = (-1)^m (1 - x.a)^(m-1) log(1 - x.a) for
m >= 2. It is conditionally positive definite with respect to the spherical
harmonics of degree at most m-1, a space of dimension m^2, so interpolation
couples a kernel block with a harmonic side constraint in a bordered system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import as_points, checked_int
from .solver import SaddleSystem, on_workers

# 1 - x.a below this is treated as a coincident pair; the kernel limit is 0.
SURFACE_CUTOFF = 1e-14


@dataclass(frozen=True)
class KernelSpec:
    """Kernel order m >= 2, an int; poly_dim = m^2 constrained harmonics; sup norm of k_m."""

    m: int
    poly_dim: int = field(init=False)
    sup_norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", checked_int(self.m, "kernel order", 2))
        object.__setattr__(self, "poly_dim", self.m * self.m)
        # max of |s^(m-1) log s| over s = 1 - x.a in (0, 2]: on (0, 1) it is at
        # most 1/(e (m-1)) < 1/e, and on [1, 2] it increases to the endpoint
        # value 2^(m-1) log 2 >= 2 log 2
        object.__setattr__(self, "sup_norm", 2.0 ** (self.m - 1) * math.log(2.0))


def _kernel_inplace(spec, t, logs=None):
    """Turn a float64 array of dot products into k_m values in place.

    Takes s = 1 - t, caps s at 2 (t below -1), masks s < SURFACE_CUTOFF, then
    forms sign * s^(m-1) * log(s), with the limit 0 on the mask. Every t above
    1 lands in the mask, so t needs no upper clip. The cap and the mask are
    only formed when some entry needs them; NaN stays NaN. Without logs the
    logarithm is one temporary of t's size, plus a boolean mask. logs is a
    flat float64 buffer of at least t.size entries to hold it instead. Either
    way every entry rounds exactly as clipping t to [-1, 1] and applying the
    unfused formula.
    """
    np.subtract(1.0, t, out=t)
    if t.size == 0:
        return t
    if not t.max() <= 2.0:
        np.minimum(t, 2.0, out=t)
    near = None if t.min() >= SURFACE_CUTOFF else t < SURFACE_CUTOFF
    if near is not None:
        np.copyto(t, 1.0, where=near)
    log = np.log(t, out=None if logs is None else logs[: t.size].reshape(t.shape))
    if spec.m > 2:
        np.power(t, spec.m - 1, out=t)
    np.multiply(t, log, out=t)
    if spec.m % 2:
        np.negative(t, out=t)
        if near is not None:
            np.copyto(t, 0.0, where=near)  # -(1 log 1) is -0.0; even m already has +0.0
    return t


def kernel_values(spec, t):
    """k_m as a function of the dot product t = x.a, elementwise; t is clipped to [-1, 1]."""
    return _kernel_inplace(spec, np.array(t, dtype=np.float64))


def eval_kernel(spec, a, b):
    """k_m(a, b) for unit vectors, broadcasting over leading axes.

    The fresh dot products are transformed in place, so the peak is about 2.1
    times the result: the result, the logarithm and the near-pair mask.
    """
    t = np.einsum("...i,...i->...", as_points(a), as_points(b))
    return _kernel_inplace(spec, np.asarray(t))


# Side of the square blocks that KernelMatvec and kernel_sum work in. A tile
# and its logarithm buffer take 2 x 512 KiB, which stays in cache while the
# transform runs; larger row blocks are bound by memory bandwidth.
KERNEL_TILE = 256

# Most stripes a symmetric product is split into. Stripe s owns the row blocks
# a = s (mod stripes) and has its own accumulator of the product's shape, so
# the stripes can run on the worker threads, and their fixed number makes the
# product the same for every worker count.
KERNEL_STRIPES = 8

# Largest N for which KernelMatvec keeps the kernel matrix instead of
# recomputing it tile by tile inside every product. Only its upper-triangle
# tiles are kept, in one allocation of 4 N (N + 256) bytes: measured peaks
# 0.546 x 8 N^2 at N = 3000, 431 MB at 10242 and 589 MB at 12000. Beyond the
# limit the matrix never exists in full.
MATERIALIZE_LIMIT = 12_000


def _tile(spec, pts_i, pts_j, out=None, logs=None):
    """Kernel block between two point blocks, the dot products formed in out if given.

    When pts_j is pts_i, or a view of the same rows, numpy forms the product
    as a symmetric rank-k update (BLAS syrk) and copies its upper triangle to
    the lower one, so the block is bitwise symmetric. The logarithm goes into
    logs when it is given; the values are the same either way.
    """
    return _kernel_inplace(spec, np.matmul(pts_i, pts_j.T, out=out), logs)


def _block(buf, rows, cols):
    """The leading entries of a flat buffer, viewed as a C-contiguous rows x cols block."""
    r, c = rows.stop - rows.start, cols.stop - cols.start
    return buf[: r * c].reshape(r, c)


def _checked_weights(weights, n_sources):
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[0] != n_sources:
        raise ValueError(f"weights of shape {w.shape} do not match {n_sources} sources")
    return w


class KernelMatvec:
    """v -> K v for the symmetric kernel matrix of points, v of shape (N,) or (N, q).

    Only the upper-triangle tiles are evaluated, each applied as K_ij and
    K_ij^T, which halves the logarithms. A diagonal tile is a block of
    points times its own transpose, which numpy forms by syrk (see _tile), so
    the operator is bitwise symmetric. The row blocks are dealt to
    min(KERNEL_STRIPES, blocks) stripes, which run on solver.on_workers, each
    into its own accumulator; the accumulators are added in stripe order, so
    a product is bitwise the same for every worker count. Up to
    `materialize_limit` points, `matrix` holds each stripe's tiles, all views
    of one allocation filled by the constructor; above it `matrix` is None and
    every product recomputes the tiles, each stripe into one reused buffer.
    Both run the same loop, so they give bitwise the same result. A one-off
    product is KernelMatvec(spec, points, materialize_limit=0)(v).
    """

    def __init__(self, spec, points, materialize_limit=MATERIALIZE_LIMIT):
        self.spec = spec
        self.points = as_points(points)
        n = self.points.shape[0]
        self._spans = [slice(lo, min(lo + KERNEL_TILE, n)) for lo in range(0, n, KERNEL_TILE)]
        self._stripes = min(KERNEL_STRIPES, len(self._spans))
        self.matrix = None
        if n <= checked_int(materialize_limit, "materialize_limit", 0):
            # the tiles in row-block order, each a contiguous view of one allocation
            flat = np.empty(sum((r.stop - r.start) * (n - r.start) for r in self._spans))
            self.matrix = [[] for _ in range(self._stripes)]
            at = 0
            for a, rows in enumerate(self._spans):
                for cols in self._spans[a:]:
                    tile = _block(flat[at:], rows, cols)
                    self.matrix[a % self._stripes].append((rows, cols, tile))
                    at += tile.size

            def fill(stripe):
                for _ in self._tiles(stripe, self.matrix[stripe]):
                    pass

            on_workers(fill, range(self._stripes))

    def _tiles(self, stripe, into=None):
        """(rows, cols, K[rows, cols]) for each upper tile of a stripe, computed one at a time.

        Each tile is computed into its array of `into`, a list like one
        stripe's `matrix`, or without it into one buffer that every tile of
        the stripe reuses, valid until the next tile. Either way the
        logarithms go into one tile-sized buffer of the stripe.
        """
        logs = np.empty(KERNEL_TILE * KERNEL_TILE)
        if into is None:
            spans = self._spans
            dots = np.empty(KERNEL_TILE * KERNEL_TILE)
            into = (
                (spans[a], cols, _block(dots, spans[a], cols))
                for a in range(stripe, len(spans), self._stripes)
                for cols in spans[a:]
            )
        pts = self.points
        for rows, cols, k in into:
            yield rows, cols, _tile(self.spec, pts[rows], pts[cols], k, logs)

    def __call__(self, v):
        w = _checked_weights(v, self.points.shape[0])
        parts = np.zeros((self._stripes,) + w.shape)

        def apply(stripe):
            acc = parts[stripe]
            tiles = self._tiles(stripe) if self.matrix is None else self.matrix[stripe]
            for rows, cols, k in tiles:
                acc[rows] += k @ w[cols]
                if rows != cols:
                    acc[cols] += k.T @ w[rows]

        on_workers(apply, range(self._stripes))
        out = np.zeros(w.shape)
        for part in parts:  # in stripe order
            out += part
        return out


def kernel_matrix(spec, pts_a, pts_b=None):
    """Dense kernel block k_m(pts_a[i], pts_b[j]); bitwise symmetric when pts_b is None.

    The reference the tests check the tiled routes against: one product and
    one kernel transform, 2.125 x 8 N^2 bytes at peak for N points.
    """
    pts_a = as_points(pts_a)
    return _tile(spec, pts_a, pts_a if pts_b is None else as_points(pts_b))


def kernel_sum(spec, targets, sources, weights):
    """sum_j k_m(targets[i], sources[j]) weights[j] for every target i.

    weights is (N,) or (N, q) for N sources. The sum runs over KERNEL_TILE
    square tiles, so the memory beyond the output is one tile. Every tile is
    evaluated, whether or not targets and sources are the same points; the
    symmetric product that evaluates half of them is KernelMatvec.
    """
    targets = as_points(targets)
    # A copy, so that no tile multiplies a block of points by its own
    # transpose: numpy takes the symmetric product (syrk) for that, which
    # rounds differently from the general product of every other tile.
    sources = np.array(as_points(sources))
    w = _checked_weights(weights, sources.shape[0])
    out = np.zeros((targets.shape[0],) + w.shape[1:])
    T = KERNEL_TILE
    for i in range(0, targets.shape[0], T):
        acc = out[i : i + T]
        for j in range(0, sources.shape[0], T):
            acc += _tile(spec, targets[i : i + T], sources[j : j + T]) @ w[j : j + T]
    return out


# ---- real spherical harmonics ---- #

@dataclass(frozen=True)
class HarmonicBasis:
    """Real orthonormal spherical harmonics through degree L, (L+1)^2 functions.

    Degree-major ordering; within degree l: order 0, then (cos, sin) pairs for
    orders 1..l. No Condon-Shortley phase, so the degree-1 triple is
    sqrt(3/4pi) * (z, x, y).
    """

    degree_max: int

    def __post_init__(self):
        object.__setattr__(self, "degree_max", checked_int(self.degree_max, "degree_max", 0))

    @property
    def n_funcs(self):
        return (self.degree_max + 1) ** 2

    def orders(self):
        """(l, m) labels in column order; m < 0 tags the sine component."""
        out = []
        for ell in range(self.degree_max + 1):
            out.append((ell, 0))
            for mm in range(1, ell + 1):
                out.append((ell, mm))
                out.append((ell, -mm))
        return out

    def eval(self, points):
        """Basis values at unit vectors; (..., 3) -> (..., (L+1)^2)."""
        pts = as_points(points)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        s = np.hypot(x, y)
        phi = np.arctan2(y, x)
        L = self.degree_max

        # associated Legendre P_l^m(cos theta) by upward recurrence, no CS phase
        P = {(0, 0): np.ones_like(z)}
        for mm in range(1, L + 1):
            P[mm, mm] = (2 * mm - 1) * s * P[mm - 1, mm - 1]
        for mm in range(L):
            P[mm + 1, mm] = (2 * mm + 1) * z * P[mm, mm]
        for mm in range(L + 1):
            for ell in range(mm + 2, L + 1):
                P[ell, mm] = (
                    (2 * ell - 1) * z * P[ell - 1, mm] - (ell - 1 + mm) * P[ell - 2, mm]
                ) / (ell - mm)

        cols = []
        for ell in range(L + 1):
            cols.append(math.sqrt((2 * ell + 1) / (4.0 * math.pi)) * P[ell, 0])
            for mm in range(1, ell + 1):
                norm = math.sqrt(
                    (2 * ell + 1)
                    / (2.0 * math.pi)
                    * math.factorial(ell - mm)
                    / math.factorial(ell + mm)
                )
                cols.append(norm * P[ell, mm] * np.cos(mm * phi))
                cols.append(norm * P[ell, mm] * np.sin(mm * phi))
        out = np.stack(cols, axis=-1)
        return out[0] if single else out


def harmonic_basis_for(spec):
    """The constraint space of k_m: harmonics through degree m-1."""
    return HarmonicBasis(spec.m - 1)


# ---- system assembly and expansion evaluation ---- #

def assemble_saddle(spec, nodes, subset=None):
    """Bordered matrix [[K, Phi], [Phi^T, 0]] over a node set or an index subset.

    The one-stencil case of assemble_saddle_stack, so a full system and every
    stencil of the local basis build are assembled by the same operations.
    """
    pts = as_points(nodes)
    if subset is not None:
        pts = pts[np.asarray(subset, dtype=np.int64)]
    n = pts.shape[0]
    phi = harmonic_basis_for(spec).eval(pts)
    M = assemble_saddle_stack(spec, pts, phi, np.arange(n)[None])[0]
    return SaddleSystem(n, spec.poly_dim, M)


def assemble_saddle_stack(spec, points, phi, stencils):
    """Bordered matrices of a (b, n) stack of stencils into points, shape (b, n+p, n+p).

    phi holds the harmonic values at every point. One batched product and
    one kernel transform serve the whole stack. numpy forms each matrix of
    P @ P^T as a symmetric rank-k update (BLAS syrk) and copies its upper
    triangle to the lower one, so every kernel block is bitwise symmetric.
    The peak memory is about 2.12 x 8 (n+p)^2 bytes per stencil: the
    matrices, the kernel block and its logarithm, and the near-diagonal mask.
    """
    b, n = stencils.shape
    p = phi.shape[1]
    P = points[stencils]
    K = _kernel_inplace(spec, P @ np.swapaxes(P, 1, 2))
    Ph = phi[stencils]
    M = np.zeros((b, n + p, n + p))
    M[:, :n, :n] = K
    M[:, :n, n:] = Ph
    M[:, n:, :n] = np.swapaxes(Ph, 1, 2)
    return M


def evaluate_expansion(spec, centers, a, c, points):
    """Evaluate sum_j a_j k(x, centers_j) + sum_k c_k phi_k(x) at many points.

    a is (N,) or (N, q) for q expansions sharing centers; c is (m^2,) or
    (m^2, q), the harmonics of harmonic_basis_for(spec). The kernel part is
    one tiled kernel_sum, so the (P, N) kernel matrix is never materialized.
    """
    c = np.asarray(c, dtype=np.float64)
    pts = as_points(points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)

    if c.shape[0] != spec.poly_dim:
        raise ValueError(
            f"{c.shape[0]} harmonic coefficients given, order m={spec.m} takes {spec.poly_dim}"
        )
    if np.shape(a)[1:] != c.shape[1:]:
        raise ValueError(
            f"kernel weights of shape {np.shape(a)} do not pair with harmonic coefficients"
            f" of shape {c.shape}"
        )
    out = kernel_sum(spec, pts, centers, a)
    out += harmonic_basis_for(spec).eval(pts) @ c
    return out[0] if single else out
