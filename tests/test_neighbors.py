"""kNN and ball queries against brute-force linear-scan oracles."""

import numpy as np
import pytest

import spherelag as sl
from spherelag.neighbors import ball, build_index, knn, knn_all

from helpers import fib, random_unit_points, rng


def brute_knn(points, center_idx, k):
    """Rank all nodes by (squared chord, index) and keep the first k."""
    diff = points - points[center_idx]
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((np.arange(points.shape[0]), d2))
    return order[:k]


def brute_ball(points, center, r):
    d = sl.geodesic_distance(center, points)
    idx = np.nonzero(d <= r)[0]
    return idx[np.lexsort((idx, d[idx]))]


@pytest.mark.parametrize("k", [1, 5, 50])
def test_knn_matches_brute_force(k):
    pts = random_unit_points(500, seed=21)
    index = build_index(pts)
    for center in rng(22).integers(0, 500, size=25):
        got = knn(index, int(center), k)
        assert np.array_equal(got, brute_knn(pts, int(center), k))


def test_knn_self_first_and_full_set():
    ns = fib(120)
    index = build_index(ns)
    got = knn(index, 17, 120)
    assert got[0] == 17
    assert sorted(got) == list(range(120))


def test_knn_all_matches_per_center_queries():
    pts = random_unit_points(300, seed=5)
    index = build_index(pts)
    table = knn_all(index, 12)
    assert table.shape == (300, 12)
    for i in (0, 7, 150, 299):
        assert np.array_equal(table[i], knn(index, i, 12))


def test_knn_validates_k():
    index = build_index(fib(50))
    for bad in (0, -3, 51, 2.5, 3.9, True):
        with pytest.raises(ValueError):
            knn(index, 0, bad)
        with pytest.raises(ValueError):
            knn_all(index, bad)
    for centre in (-1, 2.5, True, 50, 60):
        with pytest.raises(ValueError, match=f"center_idx must be an integer in 0..49, got {centre}"):
            knn(index, centre, 3)


def test_knn_breaks_ties_by_index():
    # Octahedron: from +x the four equatorial-orthogonal nodes are equidistant.
    pts = np.array(
        [
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
        ]
    )
    index = build_index(pts)
    assert np.array_equal(knn(index, 0, 5), [0, 2, 3, 4, 5])
    assert np.array_equal(knn(index, 1, 5), [1, 2, 3, 4, 5])


@pytest.mark.parametrize("r", [0.05, 0.3, 1.0, 2.5])
def test_ball_matches_brute_force(r):
    pts = random_unit_points(400, seed=31)
    index = build_index(pts)
    for center in random_unit_points(10, seed=32):
        assert np.array_equal(ball(index, center, r), brute_ball(pts, center, r))


def test_ball_includes_exact_boundary_node():
    # Put one node exactly at geodesic distance r from the query point.
    r = 0.7
    center = np.array([0.0, 0.0, 1.0])
    onring = np.array([np.sin(r), 0.0, np.cos(r)])
    pts = np.vstack([center, onring, random_unit_points(50, seed=40)])
    index = build_index(pts)
    got = ball(index, center, r)
    assert 1 in got
    assert np.array_equal(got, brute_ball(pts, center, r))


def test_ball_radius_pi_returns_everything():
    pts = random_unit_points(64, seed=8)
    index = build_index(pts)
    got = ball(index, pts[0], np.pi)
    assert sorted(got) == list(range(64))


def test_ball_empty_and_invalid():
    pts = fib(100).points
    index = build_index(pts)
    off_node = sl.sphere_point(1.0, 1.0, 1.0)
    assert ball(index, off_node, 1e-6).size == 0
    with pytest.raises(ValueError):
        ball(index, off_node, -0.1)
    with pytest.raises(ValueError, match=r"^radius must be a real number in \[0, inf\], got nan$"):
        ball(index, off_node, float("nan"))


def test_ball_sorted_by_distance_then_index():
    pts = fib(200).points
    index = build_index(pts)
    got = ball(index, pts[10], 0.6)
    d = sl.geodesic_distance(pts[10], pts[got])
    assert np.all(np.diff(d) >= -1e-15)


def test_build_index_accepts_nodeset_and_array():
    ns = fib(30)
    a = build_index(ns)
    b = build_index(ns.points)
    assert a.n == b.n == 30
    assert np.array_equal(knn(a, 3, 7), knn(b, 3, 7))


def test_dense_cluster_with_tie_pad_overflow():
    # Many nodes at nearly the same distance stresses the padded candidate pull.
    base = fib(1000).points
    index = build_index(base)
    for k in (64, 200, 999):
        got = knn(index, 500, k)
        assert np.array_equal(got, brute_knn(base, 500, k))
