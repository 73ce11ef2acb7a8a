"""Geometry on the unit sphere: node sets, generators, mesh statistics, file I/O.

Points are unit vectors in R^3 stored as float64 rows of an (N, 3) array.
Distances are geodesic (great-circle) unless a function says otherwise.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

UNIT_TOL = 1e-12
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# Refuse generated sets beyond this size, before allocating them.
MAX_GENERATED = 1_000_000


def checked_int(value, name, lo, hi=None):
    """int(value) for an integer in lo..hi (lo and up if hi is None); a bool is not one."""
    exact = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if exact and lo <= value and (hi is None or value <= hi):
        return int(value)
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def checked_real(value, name, lo, hi, ends="[]"):
    """float(value) for a real number in the interval lo..hi; a bool, a str and NaN are not.

    A real number is an int, float, np.integer or np.floating. ends is the
    interval's pair of brackets, "[" or "(" then "]" or ")", as it is printed.
    """
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        x = float(value)
        if (lo < x or ends[0] == "[" and x == lo) and (x < hi or ends[1] == "]" and x == hi):
            return x
    bounds = ", ".join("pi" if b == math.pi else str(b) for b in (lo, hi))
    raise ValueError(f"{name} must be a real number in {ends[0]}{bounds}{ends[1]}, got {value!r}")


class NodeFileError(ValueError):
    """Malformed node file (bad token count, unparsable or non-finite number, zero row)."""


class DuplicateNodesError(ValueError):
    """Node file contains coincident points."""


@dataclass
class MeshStats:
    """Fill distance h, separation q, mesh ratio rho = h/q."""

    h: float
    q: float
    rho: float
    n_probe: int


@dataclass
class NodeSet:
    """Ordered set of distinct, finite unit vectors.

    `stats` is a cache slot filled by ensure_stats; the constructor does not take it.
    """

    points: np.ndarray
    stats: MeshStats | None = field(default=None, init=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"expected an (N, 3) array, got shape {pts.shape}")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"{int((~finite).sum())} rows are not finite (first row {int(np.argmin(finite))})"
            )
        norms = np.linalg.norm(pts, axis=1)
        bad = np.abs(norms - 1.0) > UNIT_TOL
        if bad.any():
            raise ValueError(
                f"{int(bad.sum())} rows are not unit vectors "
                f"(worst |norm - 1| = {np.abs(norms - 1.0).max():.3e})"
            )
        self.points = pts

    def __len__(self):
        return self.points.shape[0]

    def fingerprint(self):
        """SHA-256 hex digest of the point bytes; basis and coefficient files store it."""
        return hashlib.sha256(self.points.tobytes()).hexdigest()


def as_points(x):
    """x as float64, or a NodeSet's points; only the last axis, 3 coordinates, is checked."""
    pts = x.points if isinstance(x, NodeSet) else np.asarray(x, dtype=np.float64)
    if pts.shape[-1:] != (3,):
        raise ValueError(f"points must have 3 coordinates on the last axis, got shape {pts.shape}")
    return pts


def normalize_rows(arr):
    """Scale rows of an (N, 3) array onto the unit sphere. Zero rows are an error."""
    arr = np.asarray(arr, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return arr / norms


def sphere_point(x, y, z):
    """Single unit vector from finite coordinates, normalized if needed."""
    v = np.array([x, y, z], dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError(f"point ({x}, {y}, {z}) has a non-finite coordinate")
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    if abs(n - 1.0) > UNIT_TOL:
        v /= n
    return v


def geodesic_distance(a, b):
    """Great-circle distance between unit vectors, broadcasting over leading axes.

    Uses atan2(|a x b|, a . b), which stays accurate for nearly coincident and
    nearly antipodal pairs where arccos of the dot product loses digits.
    """
    a, b = as_points(a), as_points(b)
    cross = np.cross(a, b)
    sin_d = np.linalg.norm(cross, axis=-1)
    cos_d = np.einsum("...i,...i->...", a, b)
    return np.arctan2(sin_d, cos_d)


def cap_area(r):
    """Area of a spherical cap of geodesic radius r: 2 pi (1 - cos r), as 4 pi sin^2(r/2)."""
    r = checked_real(r, "cap radius", 0, math.pi)
    return 4.0 * math.pi * math.sin(0.5 * r) ** 2


def tangent_frame(p):
    """Orthonormal pair (e1, e2) spanning the tangent plane at unit vector p."""
    p = np.asarray(p, dtype=np.float64)
    pivot = np.zeros(3)
    pivot[np.argmin(np.abs(p))] = 1.0
    e1 = np.cross(p, pivot)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(p, e1)
    return e1, e2


# ---- node generators ---- #

# Icosahedron with vertices on the golden rectangles, normalized to the sphere.
_ICO_RAW = np.array(
    [
        (-1, GOLDEN, 0), (1, GOLDEN, 0), (-1, -GOLDEN, 0), (1, -GOLDEN, 0),
        (0, -1, GOLDEN), (0, 1, GOLDEN), (0, -1, -GOLDEN), (0, 1, -GOLDEN),
        (GOLDEN, 0, -1), (GOLDEN, 0, 1), (-GOLDEN, 0, -1), (-GOLDEN, 0, 1),
    ],
    dtype=np.float64,
)

_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def gen_icosahedral(level):
    """Icosahedral nodes by recursive edge bisection; N = 10 * 4**level + 2.

    Vertex order is deterministic: the 12 base vertices first, then midpoints in
    face-traversal order at each refinement level.
    """
    level = checked_int(level, "level", 0)
    n_final = 10 * 4**level + 2
    if n_final > MAX_GENERATED:
        raise ValueError(
            f"level {level} gives {n_final} nodes, beyond the cap {MAX_GENERATED}"
        )
    verts = list(normalize_rows(_ICO_RAW))
    faces = list(_ICO_FACES)
    for _ in range(level):
        midpoint = {}

        def split(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = split(a, b), split(b, c), split(c, a)
            next_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = next_faces
    pts = np.array(verts)
    assert pts.shape[0] == n_final
    return NodeSet(pts)


def gen_icosahedral_freq(nu):
    """Icosahedral nodes by frequency-nu face subdivision; N = 10 * nu**2 + 2.

    Each icosahedron edge is split into nu equal segments and the barycentric
    lattice of every face is projected to the sphere. Covers member counts like
    23042 (nu=48) that the power-of-two bisection family cannot reach. Order:
    base vertices, then edge points (edges in first-occurrence order, points from
    the lower-index endpoint), then face interiors in face order.
    """
    nu = checked_int(nu, "subdivision frequency", 1)
    n_final = 10 * nu**2 + 2
    if n_final > MAX_GENERATED:
        raise ValueError(
            f"frequency {nu} gives {n_final} nodes, beyond the cap {MAX_GENERATED}"
        )
    base = normalize_rows(_ICO_RAW)
    verts = list(base)

    edges = []
    seen = set()
    for face in _ICO_FACES:
        for i, j in ((face[0], face[1]), (face[1], face[2]), (face[2], face[0])):
            key = (i, j) if i < j else (j, i)
            if key not in seen:
                seen.add(key)
                edges.append(key)

    for i, j in edges:
        for k in range(1, nu):
            v = base[i] + (base[j] - base[i]) * (k / nu)
            verts.append(v / np.linalg.norm(v))

    for a, b, c in _ICO_FACES:
        for i in range(1, nu):
            for j in range(1, nu - i):
                v = base[a] + (base[b] - base[a]) * (i / nu) + (base[c] - base[a]) * (j / nu)
                verts.append(v / np.linalg.norm(v))

    pts = np.array(verts)
    assert pts.shape[0] == n_final
    return NodeSet(pts)


def gen_fibonacci(n):
    """Spherical Fibonacci lattice with n nodes (quasi-uniform, mesh ratio < 3)."""
    n = checked_int(n, "n", 1)
    if n > MAX_GENERATED:
        raise ValueError(f"n = {n} beyond the cap {MAX_GENERATED}")
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    rad = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * GOLDEN_ANGLE
    pts = np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])
    return NodeSet(normalize_rows(pts))


def _van_der_corput(lo, hi):
    """Terms lo..hi-1 of the base-2 van der Corput sequence (bit reversal)."""
    v = np.arange(lo, hi, dtype=np.uint64)
    v = ((v & np.uint64(0x55555555)) << np.uint64(1)) | ((v & np.uint64(0xAAAAAAAA)) >> np.uint64(1))
    v = ((v & np.uint64(0x33333333)) << np.uint64(2)) | ((v & np.uint64(0xCCCCCCCC)) >> np.uint64(2))
    v = ((v & np.uint64(0x0F0F0F0F)) << np.uint64(4)) | ((v & np.uint64(0xF0F0F0F0)) >> np.uint64(4))
    v = ((v & np.uint64(0x00FF00FF)) << np.uint64(8)) | ((v & np.uint64(0xFF00FF00)) >> np.uint64(8))
    v = ((v & np.uint64(0x0000FFFF)) << np.uint64(16)) | ((v & np.uint64(0xFFFF0000)) >> np.uint64(16))
    return v.astype(np.float64) / 2.0**32


def _probe_points(lo, hi):
    """Points lo..hi-1 of the sequence probe_sequence returns prefixes of."""
    z = 1.0 - 2.0 * _van_der_corput(lo, hi)
    rad = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = np.arange(lo, hi, dtype=np.float64) * GOLDEN_ANGLE
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def probe_sequence(n):
    """Nested quasi-uniform probe points: prefixes of a fixed infinite sequence.

    Van der Corput heights paired with golden-angle longitudes. Because the
    first k points are the same for every n >= k, any max-over-probes estimate
    is monotone non-decreasing in n.
    """
    return _probe_points(0, checked_int(n, "n", 1))


def cap_points(center, r, n):
    """n area-uniform spiral points inside the cap B(center, r)."""
    r = checked_real(r, "cap radius", 0, math.pi, "(]")
    n = checked_int(n, "n", 1)
    center = sphere_point(*as_points(center))
    e1, e2 = tangent_frame(center)
    i = np.arange(n, dtype=np.float64)
    u = 2.0 * math.sin(0.5 * r) ** 2 * (i + 0.5) / n  # 1 - height, with no 1 - cos r to round to 0
    rad = np.sqrt(u * (2.0 - u))
    phi = i * GOLDEN_ANGLE
    return (
        np.outer(rad * np.cos(phi), e1)
        + np.outer(rad * np.sin(phi), e2)
        + np.outer(1.0 - u, center)
    )


# ---- mesh statistics ---- #

def _chord_to_geodesic(c):
    return 2.0 * np.arcsin(np.clip(np.asarray(c, dtype=np.float64) / 2.0, 0.0, 1.0))


# Probes mesh_stats generates and queries at once: about 5 MB of temporaries,
# where the default 100 N probes at N = 2562 in one block peaked at 16.5 MB.
_PROBE_BLOCK = 1 << 16


def mesh_stats(nodes, probe_n=None):
    """Fill distance h (probe estimate), separation q (exact), mesh ratio rho.

    q is half the minimal pairwise geodesic distance, found by an exact
    nearest-neighbor pass. h is the max over `probe_n` nested probe points of
    the distance to the set, so it underestimates the true fill distance and is
    monotone non-decreasing in probe_n. Default probe_n = max(100 N, 1e5).
    """
    pts = nodes.points
    n = pts.shape[0]
    if probe_n is None:
        probe_n = max(100 * n, 100_000)
    probe_n = checked_int(probe_n, "probe_n", n)

    tree = cKDTree(pts, leafsize=16, balanced_tree=True)
    if n == 1:
        q = math.pi / 2.0  # lone point: half the distance to the far pole
    else:
        dist, _ = tree.query(pts, k=2)
        q = float(_chord_to_geodesic(dist[:, 1].min()) / 2.0)

    h_chord = 0.0
    for lo in range(0, probe_n, _PROBE_BLOCK):
        dist, _ = tree.query(_probe_points(lo, min(probe_n, lo + _PROBE_BLOCK)), k=1)
        h_chord = max(h_chord, float(dist.max()))
    h = float(_chord_to_geodesic(h_chord))
    return MeshStats(h=h, q=q, rho=h / q, n_probe=probe_n)


def ensure_stats(nodes):
    """Return cached MeshStats for the set, computing and caching on first use."""
    if nodes.stats is None:
        nodes.stats = mesh_stats(nodes)
    return nodes.stats


# ---- file I/O ---- #

def save_nodes(path, nodes):
    """Write one 'x y z' line per node, full float64 round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in nodes.points:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def load_nodes(path):
    """Read a node file: 'x y z' per line, '#' comments and blank lines skipped.

    A line with a non-finite coordinate (nan, inf) is rejected. Rows off the
    sphere by more than 1e-12 are normalized, and warnings.warn reports their
    count; the returned set does not record it. Exact duplicate points are
    rejected with the offending 1-based line numbers.
    """
    rows = []
    line_numbers = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise NodeFileError(
                    f"{path}: line {lineno}: expected 3 values, got {len(parts)}"
                )
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise NodeFileError(f"{path}: line {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in row):
                raise NodeFileError(f"{path}: line {lineno}: coordinates must be finite")
            rows.append(row)
            line_numbers.append(lineno)
    if not rows:
        raise NodeFileError(f"{path}: no points found")

    arr = np.array(rows, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):
        lineno = line_numbers[int(np.argmin(norms))]
        raise NodeFileError(f"{path}: line {lineno}: zero vector cannot be normalized")
    off = np.abs(norms - 1.0) > UNIT_TOL
    if off.any():
        arr[off] /= norms[off, None]
        warnings.warn(f"{path}: normalized {int(off.sum())} non-unit rows", stacklevel=2)

    seen = {}
    for k in range(arr.shape[0]):
        key = arr[k].tobytes()
        if key in seen:
            raise DuplicateNodesError(
                f"{path}: lines {seen[key]} and {line_numbers[k]}: duplicate node"
            )
        seen[key] = line_numbers[k]
    return NodeSet(arr)
