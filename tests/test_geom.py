"""Node generators, distances, mesh statistics, and node-file round trips."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

import spherelag as sl
from spherelag.geom import (
    GOLDEN_ANGLE,
    MAX_GENERATED,
    DuplicateNodesError,
    NodeFileError,
    NodeSet,
    as_points,
    cap_points,
    checked_int,
    checked_real,
    mesh_stats,
    normalize_rows,
    sphere_point,
    tangent_frame,
)

from spherelag.gramstudy import cap_gram_analytic, cap_gram_compare
from spherelag.kernel import HarmonicBasis

from helpers import fib, ico, local_basis, random_unit_points, rng


# Half the angle between adjacent icosahedron vertices: arccos(1/sqrt(5)) / 2.
ICO_Q = 0.5535743588970452


def brute_min_pairwise(points):
    d_min = math.inf
    for i in range(points.shape[0]):
        d = sl.geodesic_distance(points[i], points[i + 1 :])
        if d.size:
            d_min = min(d_min, float(d.min()))
    return d_min


# ---- generators ---- #

@pytest.mark.parametrize("level,expected", [(0, 12), (1, 42), (2, 162), (3, 642), (4, 2562)])
def test_icosahedral_counts(level, expected):
    assert len(ico(level)) == expected


def test_icosahedral_points_are_unit_and_distinct():
    pts = ico(2).points
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert len({row.tobytes() for row in pts}) == pts.shape[0]


def test_icosahedron_separation_matches_closed_form():
    q = brute_min_pairwise(ico(0).points) / 2.0
    assert q == pytest.approx(ICO_Q, abs=1e-14)
    assert q == pytest.approx(math.acos(1.0 / math.sqrt(5.0)) / 2.0, abs=1e-15)


def test_icosahedral_deterministic():
    a, b = sl.gen_icosahedral(2), sl.gen_icosahedral(2)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("nu,expected", [(1, 12), (2, 42), (3, 92), (7, 492), (48, 23042)])
def test_icosahedral_freq_counts(nu, expected):
    assert len(sl.gen_icosahedral_freq(nu)) == expected


def test_freq_two_equals_one_bisection_as_a_set():
    # Same refinement, different construction order and arithmetic; match each
    # point to its counterpart instead of comparing row order.
    a = sl.gen_icosahedral_freq(2).points
    b = ico(1).points
    assert a.shape == b.shape
    from scipy.spatial import cKDTree

    d, _ = cKDTree(b).query(a)
    assert d.max() < 1e-12


def test_fibonacci_two_points():
    ns = sl.gen_fibonacci(2)
    assert len(ns) == 2
    assert brute_min_pairwise(ns.points) > 0.0


def test_fibonacci_mesh_ratio_and_fill():
    assert sl.ensure_stats(fib(900)).rho < 3.0
    assert sl.ensure_stats(fib(10_000)).h < 0.05


def test_fibonacci_structure():
    pts = fib(500).points
    assert np.all(np.diff(pts[:, 2]) < 0.0)  # heights strictly decrease
    lon = np.arctan2(pts[:, 1], pts[:, 0])
    expected = np.arctan2(np.sin(7 * GOLDEN_ANGLE), np.cos(7 * GOLDEN_ANGLE))
    assert lon[7] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sl.gen_icosahedral(-1),
        lambda: sl.gen_icosahedral_freq(0),
        lambda: sl.gen_fibonacci(0),
        lambda: sl.gen_icosahedral(20),  # beyond the generation cap
        lambda: sl.gen_fibonacci(2_000_000),
        # counts that are not integers
        lambda: sl.gen_fibonacci(100.7),
        lambda: sl.gen_icosahedral(True),
        lambda: sl.gen_icosahedral_freq(2.9),
        lambda: sl.probe_sequence(2.5),
        lambda: cap_points(np.array([0.0, 0.0, 1.0]), 0.3, 2.5),
        lambda: cap_points(np.array([0.0, 0.0, 1.0]), 0.3, 0),
    ],
)
def test_generator_rejects_bad_sizes(call):
    with pytest.raises(ValueError):
        call()


def test_checked_int_takes_integers_in_range_and_names_the_argument():
    assert checked_int(np.int64(3), "k", 1, 3) == 3 and type(checked_int(np.int64(3), "k", 1)) is int
    for bad in (0, 4, 2.0, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match=f"^k must be an integer in 1..3, got {bad!r}$"):
            checked_int(bad, "k", 1, 3)
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got -2$"):
        checked_int(-2, "n", 1)


def test_checked_real_returns_a_float_for_every_real_type():
    for good in (1, 0.5, np.int64(1), np.float32(0.5)):
        assert type(checked_real(good, "x", 0, 1)) is float
    with pytest.raises(ValueError, match=r"^r must be a real number in \(0, pi\], got 4$"):
        checked_real(4, "r", 0, math.pi, "(]")


@pytest.mark.parametrize(
    "ends, inside, outside",
    [("[]", [0, 0.5, 1], [-0.5, 1.5]), ("[)", [0, 0.5], [1, 1.5]), ("(]", [0.5, 1], [-0.5, 0]), ("()", [0.5], [0, 1])],
    ids=["closed", "left-closed", "right-closed", "open"],
)
def test_checked_real_closes_the_ends_it_is_told_to(ends, inside, outside):
    for x in inside:
        assert checked_real(x, "x", 0, 1, ends) == x
    for bad in outside + [math.nan, True, np.bool_(False), "0.5", 0.5j, None]:
        message = f"x must be a real number in {ends[0]}0, 1{ends[1]}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checked_real(bad, "x", 0, 1, ends)


def _fit_samples():
    t = np.linspace(0.0, 20.0, 200)
    return np.column_stack([t, np.exp(-t)])


def _preconditioned_solve(tol):
    basis = local_basis(300)
    f = np.ones(300)
    return sl.interpolate_preconditioned(basis.nodes, basis.spec, basis, f, tol=tol)


NORTH = np.array([0.0, 0.0, 1.0])

# Every real argument: its name, its interval, a call taking it, and a value
# outside the interval.
REAL_SITES = {
    "FootprintRule.M": ("footprint M", "(0, inf)", lambda v: sl.FootprintRule(M=v), -1.0),
    "FootprintRule.stencil_radius": (
        "fill distance h", "(0, 1)", lambda v: sl.FootprintRule("radius", M=2.0).stencil_radius(v), 1.0
    ),
    "ball": ("radius", "[0, inf]", lambda v: sl.ball(sl.build_index(GOOD), NORTH, v), -0.1),
    "gmres": ("tol", "(0, inf)", lambda v: sl.gmres(lambda x: x, np.ones(4), tol=v), math.inf),
    "interpolate_preconditioned": ("tol", "(0, inf)", _preconditioned_solve, 0.0),
    "fit_decay": (
        "separation q", "(0, inf)", lambda v: sl.fit_decay(_fit_samples(), "coefficient", q=v), 0.0
    ),
    "cap_area": ("cap radius", "[0, pi]", sl.cap_area, 3.5),
    "cap_points": ("cap radius", "(0, pi]", lambda v: cap_points(NORTH, v, 10), 0.0),
    "cap_gram_analytic": ("cap radius", "(0, pi]", cap_gram_analytic, -0.5),
    "cap_gram_compare": ("cap radius", "(0, pi]", lambda v: cap_gram_compare(GOOD, NORTH, v), -1.0),
}


OUTSIDE = object()  # stands for the site's own value outside its interval


@pytest.mark.parametrize("site", REAL_SITES)
@pytest.mark.parametrize(
    "bad", [True, np.bool_(True), "0.5", math.nan, OUTSIDE], ids=["True", "np.True_", "str", "nan", "outside"]
)
def test_every_real_argument_rejects_what_is_not_a_real_number_in_its_interval(site, bad):
    name, interval, call, outside = REAL_SITES[site]
    bad = outside if bad is OUTSIDE else bad
    message = f"{name} must be a real number in {interval}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_as_points_checks_only_the_shape():
    nodes = fib(20)
    pts = np.array(nodes.points)
    assert as_points(nodes) is nodes.points and as_points(pts) is pts
    assert as_points([0.0, 0.0, 1.0]).dtype == np.float64
    assert as_points(np.full((2, 3), np.nan)).shape == (2, 3)  # no scan of the values


SPEC = sl.KernelSpec(2)
BAD = np.ones((5, 2))
GOOD = fib(5).points


@pytest.mark.parametrize(
    "call",
    [
        lambda: sl.build_index(BAD),
        lambda: sl.assemble_saddle(SPEC, BAD),
        lambda: sl.KernelMatvec(SPEC, BAD),
        lambda: sl.kernel_matrix(SPEC, BAD),
        lambda: sl.kernel_matrix(SPEC, GOOD, BAD),
        lambda: sl.kernel_sum(SPEC, BAD, GOOD, np.ones(5)),
        lambda: sl.kernel_sum(SPEC, GOOD, BAD, np.ones(5)),
        lambda: sl.eval_kernel(SPEC, BAD, GOOD),
        lambda: sl.evaluate_expansion(SPEC, GOOD, np.ones(5), np.ones(4), BAD),
        lambda: HarmonicBasis(1).eval(BAD),
        lambda: sl.geodesic_distance(GOOD, BAD),
        lambda: sl.ball(sl.build_index(GOOD), BAD[0], 0.5),
        lambda: cap_gram_compare(BAD, GOOD[0], 0.5),
        lambda: cap_points(BAD[0], 0.5, 10),
    ],
)
def test_every_point_argument_rejects_two_coordinates(call):
    with pytest.raises(ValueError, match=r"^points must have 3 coordinates on the last axis"):
        call()


@pytest.mark.parametrize(
    "call, n_nodes",
    [
        (lambda: sl.gen_icosahedral(9), 2_621_442),
        (lambda: sl.gen_icosahedral_freq(317), 1_004_892),
        (lambda: sl.gen_fibonacci(1_000_001), 1_000_001),
    ],
    ids=["level-9", "freq-317", "fibonacci-1000001"],
)
def test_generators_refuse_sets_beyond_the_cap_before_allocating(call, n_nodes):
    assert n_nodes > MAX_GENERATED
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"cap {MAX_GENERATED}"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the set itself would take 24 MB or more


def test_probe_sequence_is_nested():
    long = sl.probe_sequence(513)
    short = sl.probe_sequence(200)
    assert np.array_equal(long[:200], short)
    assert np.allclose(np.linalg.norm(long, axis=1), 1.0, atol=1e-12)


def test_cap_points_stay_inside_cap():
    center = sphere_point(0.3, -0.5, 0.8)
    pts = cap_points(center, 0.4, 250)
    assert pts.shape == (250, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert sl.geodesic_distance(center, pts).max() <= 0.4 + 1e-12
    # a cap so small that 1 - cos r rounds to 0
    tiny = cap_points(NORTH, 1e-9, 10)
    assert len(np.unique(tiny, axis=0)) == 10
    assert sl.geodesic_distance(NORTH, tiny).max() <= 1e-9


# ---- distances and frames ---- #

def test_geodesic_distance_special_values():
    ex, ey, ez = np.eye(3)
    assert sl.geodesic_distance(ex, ex) == 0.0
    assert sl.geodesic_distance(ex, ey) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert sl.geodesic_distance(ez, -ez) == pytest.approx(math.pi, abs=1e-15)


def test_geodesic_distance_matches_arccos_oracle():
    a = random_unit_points(64, seed=11)
    b = random_unit_points(64, seed=12)
    expected = np.arccos(np.clip(np.einsum("ij,ij->i", a, b), -1.0, 1.0))
    assert np.allclose(sl.geodesic_distance(a, b), expected, atol=1e-12)


def test_geodesic_distance_broadcasts():
    pts = random_unit_points(10, seed=3)
    d = sl.geodesic_distance(pts[0], pts)
    assert d.shape == (10,)
    assert d[0] == 0.0


def test_geodesic_distance_near_coincident_precision():
    # arccos would lose half the digits here; atan2 keeps them
    p = sphere_point(1.0, 0.0, 0.0)
    eps = 1e-9
    q = sphere_point(math.cos(eps), math.sin(eps), 0.0)
    assert sl.geodesic_distance(p, q) == pytest.approx(eps, rel=1e-6)


def test_cap_area_values():
    assert sl.cap_area(0.1) == pytest.approx(0.03138975532220612, abs=1e-15)
    assert sl.cap_area(math.pi) == pytest.approx(4.0 * math.pi, abs=1e-14)
    assert sl.cap_area(0.0) == 0.0
    with pytest.raises(ValueError):
        sl.cap_area(-0.5)
    with pytest.raises(ValueError):
        sl.cap_area(3.5)


def test_tangent_frame_is_orthonormal_right_handed():
    for seed in range(5):
        p = random_unit_points(1, seed=seed)[0]
        e1, e2 = tangent_frame(p)
        for v in (e1, e2):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            assert abs(v @ p) < 1e-14
        assert abs(e1 @ e2) < 1e-14
        assert np.allclose(np.cross(p, e1), e2, atol=1e-14)


def test_sphere_point_normalizes():
    v = sphere_point(3.0, 4.0, 0.0)
    assert np.allclose(v, [0.6, 0.8, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        sphere_point(0.0, 0.0, 0.0)


@pytest.mark.parametrize("coords", [(np.nan, 0.0, 1.0), (0.0, np.inf, 0.0), (1.0, 0.0, -np.inf)])
def test_sphere_point_rejects_non_finite_coordinates(coords):
    with pytest.raises(ValueError, match="non-finite"):
        sphere_point(*coords)


def test_normalize_rows_rejects_zero():
    with pytest.raises(ValueError):
        normalize_rows(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


# ---- NodeSet validation ---- #

def test_nodeset_rejects_bad_shapes_and_norms():
    with pytest.raises(ValueError):
        NodeSet(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        NodeSet(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5]]))


def test_nodeset_rejects_non_finite_rows():
    # |norm - 1| > tol is False for NaN, so a NaN row must be caught on its own
    for bad in (np.nan, np.inf, -np.inf):
        pts = fib(20).points.copy()
        pts[7, 0] = bad
        with pytest.raises(ValueError, match="not finite.*row 7"):
            NodeSet(pts)


def test_nodeset_fingerprint_follows_the_point_bytes():
    ns = fib(200)
    assert ns.fingerprint() == NodeSet(ns.points.copy()).fingerprint()
    assert ns.fingerprint() != NodeSet(-ns.points).fingerprint()
    assert len(ns.fingerprint()) == 64


def test_nodeset_from_array_can_normalize():
    ns = NodeSet(normalize_rows([[2.0, 0.0, 0.0], [0.0, 0.0, -5.0]]))
    assert np.allclose(ns.points, [[1, 0, 0], [0, 0, -1]], atol=1e-15)


# ---- mesh statistics ---- #

def test_separation_matches_brute_force():
    ns = fib(300)
    stats = mesh_stats(ns, probe_n=20_000)
    assert stats.q == pytest.approx(brute_min_pairwise(ns.points) / 2.0, abs=1e-13)
    assert stats.rho == pytest.approx(stats.h / stats.q, rel=1e-15)
    assert stats.n_probe == 20_000


def test_fill_estimate_monotone_in_probe_count():
    # Probes are nested, so refining the probe set can only reveal more hole.
    ns = fib(300)
    h1 = mesh_stats(ns, probe_n=10_000).h
    h2 = mesh_stats(ns, probe_n=40_000).h
    assert h2 >= h1
    assert h2 <= h1 * 1.2  # and the estimate has essentially converged


def test_fill_estimate_is_one_query_over_all_probes():
    # 150000 probes span three of the blocks mesh_stats queries them in
    ns = fib(300)
    chord = cKDTree(ns.points).query(sl.probe_sequence(150_000), k=1)[0].max()
    assert mesh_stats(ns, probe_n=150_000).h == 2.0 * np.arcsin(chord / 2.0)


def test_ensure_stats_caches():
    ns = sl.gen_fibonacci(200)
    assert ns.stats is None
    s1 = sl.ensure_stats(ns)
    assert ns.stats is s1
    assert sl.ensure_stats(ns) is s1
    assert s1 == mesh_stats(ns)


def test_node_set_constructor_takes_no_stats():
    # a radius-mode build would trust the h of a MeshStats passed in
    ns = fib(300)
    with pytest.raises(TypeError):
        sl.NodeSet(ns.points, stats=mesh_stats(ns))


def test_mesh_stats_rejects_tiny_probe_budget():
    with pytest.raises(ValueError):
        mesh_stats(fib(300), probe_n=100)
    for bad in (30_000.5, 30_000.0, True):
        with pytest.raises(ValueError, match="probe_n must be an integer"):
            mesh_stats(fib(300), probe_n=bad)


# ---- file round trip ---- #

def test_save_load_round_trip_is_exact(tmp_path):
    ns = fib(137)
    path = tmp_path / "nodes.txt"
    sl.save_nodes(path, ns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no row needs normalizing
        again = sl.load_nodes(path)
    assert np.array_equal(again.points, ns.points)


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("# header\n\n1.0 0.0 0.0\n  # indented comment\n0.0 1.0 0.0\n")
    assert len(sl.load_nodes(path)) == 2


def test_load_reports_line_number_for_bad_token_count(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("1.0 0.0 0.0\n0.0 1.0\n")
    with pytest.raises(NodeFileError, match="line 2"):
        sl.load_nodes(path)


def test_load_reports_line_number_for_unparsable_value(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("# c\n1.0 0.0 zero\n")
    with pytest.raises(NodeFileError, match="line 2"):
        sl.load_nodes(path)


def test_load_reports_line_number_for_non_finite_values(tmp_path):
    path = tmp_path / "nodes.txt"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"1.0 0.0 0.0\n# c\n{bad} 0 0\n")
        with pytest.raises(NodeFileError, match="line 3.*finite"):
            sl.load_nodes(path)


def test_load_rejects_zero_rows_and_empty_files(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("0.0 0.0 0.0\n")
    with pytest.raises(NodeFileError, match="zero vector"):
        sl.load_nodes(path)
    path.write_text("# nothing here\n")
    with pytest.raises(NodeFileError, match="no points"):
        sl.load_nodes(path)


def test_load_normalizes_off_sphere_rows_with_warning(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("2.0 0.0 0.0\n0.0 1.0 0.0\n")
    with pytest.warns(UserWarning, match="normalized 1 non-unit rows"):
        ns = sl.load_nodes(path)
    assert np.allclose(ns.points[0], [1.0, 0.0, 0.0], atol=1e-15)


def test_load_names_both_duplicate_lines(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("1.0 0.0 0.0\n0.0 1.0 0.0\n1.0 0.0 0.0\n")
    with pytest.raises(DuplicateNodesError, match="lines 1 and 3"):
        sl.load_nodes(path)


def test_load_catches_duplicates_created_by_normalization(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("1.0 0.0 0.0\n2.0 0.0 0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DuplicateNodesError):
            sl.load_nodes(path)
