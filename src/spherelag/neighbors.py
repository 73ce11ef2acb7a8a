"""Nearest-neighbor and ball queries on the sphere.

A kd-tree over the R^3 coordinates does the searching; chordal and geodesic
distances are monotonically related (|a - b| = 2 sin(d/2)), so chordal ranking
is geodesic ranking. Results are re-ranked by (squared chord, node index) so
ties resolve deterministically.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from . import solver
from .geom import as_points, checked_int, checked_real, geodesic_distance

LEAF_SIZE = 16

# Extra candidates fetched beyond k so boundary ties cannot drop a true neighbor.
_TIE_PAD = 16

# Candidates _nearest re-ranks in one vectorized step. Its temporaries take
# about 48 bytes per candidate, 1.5 MiB per block, where all of them at once
# would add 84 MB at N = 12962, k = 119.
_RERANK_BLOCK = 1 << 15


def build_index(nodes):
    """kd-tree over a NodeSet or raw (N, 3) array, as a scipy cKDTree.

    The queries read the points back as tree.data, which is the float64 array
    passed in (not a copy), and the node count as tree.n.
    """
    return cKDTree(as_points(nodes), leafsize=LEAF_SIZE, balanced_tree=True)


def _nearest(index, centres, k):
    """Row i: the k nearest nodes to node centres[i], ranked by (squared chord, index).

    One tree query on solver.WORKERS threads fetches k + _TIE_PAD candidates
    per centre; they are re-ranked in blocks of about _RERANK_BLOCK candidates.
    """
    n = index.n
    k = checked_int(k, "k", 1, n)
    pts = index.data
    kq = min(n, k + _TIE_PAD)
    _, cand = index.query(pts[centres], k=kq, workers=solver.WORKERS)
    cand = np.asarray(cand, dtype=np.int64).reshape(len(centres), kq)
    out = np.empty((len(centres), k), dtype=np.int64)
    step = max(1, _RERANK_BLOCK // kq)
    for lo in range(0, len(centres), step):
        rows = cand[lo : lo + step]
        diff = pts[rows]
        diff -= pts[centres[lo : lo + step], None]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        order = np.lexsort((rows, d2), axis=-1)[:, :k]
        out[lo : lo + step] = np.take_along_axis(rows, order, axis=-1)
    return out


def knn(index, center_idx, k):
    """Indices of the k nearest nodes to node center_idx, the node itself first.

    Ascending geodesic distance, ties broken by ascending node index.
    """
    centre = checked_int(center_idx, "center_idx", 0, index.n - 1)
    return _nearest(index, np.array([centre], dtype=np.int64), k)[0]


def knn_all(index, k):
    """Row i holds knn(index, i, k); one vectorized tree query for all centers."""
    return _nearest(index, np.arange(index.n), k)


def ball(index, center, r):
    """Indices of all nodes with geodesic distance <= r from the point `center`.

    Ascending distance, ties broken by index. The kd-tree pre-filters by chord
    radius; the boundary decision uses the package geodesic distance so results
    match a linear scan exactly.
    """
    r = checked_real(r, "radius", 0, np.inf)
    center = as_points(center)
    if r >= np.pi:
        cand = np.arange(index.n, dtype=np.int64)
    else:
        chord = 2.0 * np.sin(r / 2.0)
        cand = np.asarray(
            index.query_ball_point(center, chord * (1.0 + 1e-12) + 1e-15),
            dtype=np.int64,
        )
    if cand.size == 0:
        return cand
    d = geodesic_distance(center, index.data[cand])
    keep = d <= r
    cand, d = cand[keep], d[keep]
    return cand[np.lexsort((cand, d))]
