"""Kernel evaluation, real spherical harmonics, saddle assembly, expansions."""

import math

import numpy as np
import pytest
from scipy.special import eval_legendre

import spherelag as sl
from spherelag.kernel import (
    HarmonicBasis,
    _symmetrized,
    assemble_saddle,
    eval_kernel,
    evaluate_expansion,
    harmonic_basis_for,
    kernel_matrix,
    kernel_sum,
    kernel_values,
)
from spherelag.solver import factor_solve

from helpers import fib, random_unit_points, rng, spec, traced_peak

TWO_LOG_TWO = 1.3862943611198906


def sphere_quadrature(n_z=64, n_phi=128):
    """Product rule exact for low-degree harmonics: Gauss-Legendre in z times
    trapezoid in longitude."""
    z, wz = np.polynomial.legendre.leggauss(n_z)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    s = np.sqrt(1.0 - zz**2)
    pts = np.stack([s * np.cos(pp), s * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    w = (wz[:, None] * np.full(n_phi, 2.0 * math.pi / n_phi)).ravel()
    return pts, w


# ---- kernel ---- #

def test_spec_validation_and_derived_fields():
    k2 = sl.KernelSpec(2)
    assert k2.poly_dim == 4
    assert k2.sup_norm == pytest.approx(TWO_LOG_TWO, abs=1e-15)
    assert sl.KernelSpec(3).poly_dim == 9
    for bad in (1, 0, -2, 2.5, "2"):
        with pytest.raises(ValueError):
            sl.KernelSpec(bad)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sup_norm_matches_grid_scan(m):
    t = np.linspace(-1.0, 1.0 - 1e-9, 400_001)
    scanned = np.abs((1.0 - t) ** (m - 1) * np.log(1.0 - t)).max()
    assert sl.KernelSpec(m).sup_norm == pytest.approx(2 ** (m - 1) * math.log(2.0), rel=1e-12)
    assert scanned <= sl.KernelSpec(m).sup_norm * (1.0 + 1e-12)


def test_kernel_values_at_reference_points():
    assert kernel_values(spec(2), 1.0) == 0.0  # coincident pair
    assert kernel_values(spec(2), -1.0) == pytest.approx(TWO_LOG_TWO, abs=1e-15)
    # (-1)^3 (1/2)^2 log(1/2) = log(2)/4
    assert kernel_values(spec(3), 0.5) == pytest.approx(0.17328679513998632, abs=1e-16)
    assert kernel_values(spec(2), 1.0 - 1e-15) == 0.0  # below the surface cutoff


def test_kernel_values_vectorized_matches_scalar():
    t = rng(0).uniform(-1.0, 1.0, 200)
    vec = kernel_values(spec(2), t)
    assert np.array_equal(vec, [kernel_values(spec(2), ti) for ti in t])


def clipped_kernel_formula(m, t):
    """k_m of dot products as first written: clip to [-1, 1], then the unfused formula."""
    s = np.array(t, dtype=np.float64)
    np.clip(s, -1.0, 1.0, out=s)
    np.subtract(1.0, s, out=s)
    near = s < 1e-14
    np.copyto(s, 1.0, where=near)
    logs = np.log(s)
    if m > 2:
        np.power(s, m - 1, out=s)
    np.multiply(s, logs, out=s)
    if m % 2:
        np.negative(s, out=s)
    np.copyto(s, 0.0, where=near)
    return s


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kernel_values_match_the_clipped_formula_bitwise(m):
    one = np.nextafter(1.0, [np.inf, -np.inf])
    minus_one = np.nextafter(-1.0, [np.inf, -np.inf])
    edges = np.concatenate(
        [
            [1.0, -1.0, 1.0 - 1e-15, 1.0 - 1e-13, 0.0, -0.0, 1.5, -1.5, 3.0, -7.0],
            one,
            minus_one,
            [np.inf, -np.inf, np.nan],
        ]
    )
    cases = [
        edges,
        np.concatenate([edges, rng(1).uniform(-1.0, 1.0, 303)]).reshape(16, 20),
        rng(2).uniform(-0.9, 0.9, (7, 9)),  # no coincident pair: the mask is skipped
        np.ones(40),  # all coincident
        np.empty(0),
        np.array(-1.0 - 1e-9),
    ]
    for t in cases:
        got, want = kernel_values(spec(m), t), clipped_kernel_formula(m, t)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_kernel_sign_alternates_with_order():
    # near the antipode s = 1 - t is close to 2, log s > 0
    assert kernel_values(spec(2), -0.9) > 0.0
    assert kernel_values(spec(3), -0.9) < 0.0
    assert kernel_values(spec(4), -0.9) > 0.0


def test_eval_kernel_symmetric_and_consistent():
    a = random_unit_points(50, seed=1)
    b = random_unit_points(50, seed=2)
    k_ab = eval_kernel(spec(2), a, b)
    assert np.array_equal(k_ab, eval_kernel(spec(2), b, a))
    t = np.einsum("ij,ij->i", a, b)
    assert np.allclose(k_ab, kernel_values(spec(2), t), atol=1e-15)


def test_kernel_matrix_bitwise_symmetric_zero_diagonal():
    pts = random_unit_points(80, seed=3)
    K = kernel_matrix(spec(2), pts)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 0.0)


def test_kernel_matrix_cross_block_matches_loop():
    a = random_unit_points(12, seed=4)
    b = random_unit_points(9, seed=5)
    K = kernel_matrix(spec(3), a, b)
    for i in range(12):
        for j in range(9):
            assert K[i, j] == pytest.approx(float(eval_kernel(spec(3), a[i], b[j])), abs=1e-15)


@pytest.mark.parametrize("n", [600, 1025])
def test_kernel_matrix_tiles_match_the_unblocked_formula(n):
    # the last tiles are 88 and 1 points wide
    pts = random_unit_points(n, seed=6)
    t = pts @ pts.T
    for m in (2, 3):
        K = kernel_matrix(spec(m), pts)
        assert np.array_equal(K, K.T)
        assert np.array_equal(K, kernel_values(spec(m), np.clip(0.5 * (t + t.T), -1.0, 1.0)))


@pytest.mark.parametrize("n", [255, 256, 257, 515])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_kernel_sum_matches_the_dense_product(n, m):
    pts = random_unit_points(n, seed=n)
    targets = random_unit_points(300, seed=n + 1)
    K = kernel_matrix(spec(m), pts)
    K_cross = kernel_matrix(spec(m), targets, pts)
    for w in (rng(m).normal(size=n), rng(m).normal(size=(n, 3))):
        sym = kernel_sum(spec(m), pts, pts, w)
        cross = kernel_sum(spec(m), targets, pts, w)
        assert sym.shape == w.shape and cross.shape == (300,) + w.shape[1:]
        assert np.abs(sym - K @ w).max() <= 1e-12 * np.abs(K @ w).max()
        assert np.abs(cross - K_cross @ w).max() <= 1e-12 * np.abs(K_cross @ w).max()
        # an equal copy takes the cross path, which must agree as well
        cross_copy = kernel_sum(spec(m), pts, pts.copy(), w)
        assert np.abs(cross_copy - sym).max() <= 1e-12 * np.abs(sym).max()


def test_duplicates_across_a_tile_boundary_give_zero():
    pts = random_unit_points(600, seed=7)
    pts[256] = pts[255]  # last row of the first tile, first row of the second
    K = kernel_matrix(spec(2), pts)
    assert K[255, 256] == 0.0 and K[256, 255] == 0.0
    w = np.zeros(600)
    w[256] = 1.0
    assert kernel_sum(spec(2), pts, pts, w)[255] == 0.0
    assert kernel_sum(spec(2), pts[255:256], pts, w)[0] == 0.0


def test_kernel_sum_rejects_mismatched_weights():
    pts = random_unit_points(20, seed=8)
    for w in (np.ones(19), np.ones((20, 2, 2))):
        with pytest.raises(ValueError, match="weights"):
            kernel_sum(spec(2), pts, pts, w)


def test_full_saddle_memory_is_two_systems():
    # the bordered matrix, the kernel block and its logarithm, and the mask:
    # about 2.12 x 8 (N+p)^2 bytes at N = 3000
    n = 3000
    pts = random_unit_points(n, seed=9)
    size = n + spec(2).poly_dim
    assert traced_peak(lambda: assemble_saddle(spec(2), pts)) <= 2.2 * 8 * size * size


def test_cached_operator_memory_is_its_upper_tiles():
    # 0.542 x 8 N^2 bytes of upper-triangle tiles at N = 3000, plus one tile
    n = 3000
    pts = random_unit_points(n, seed=9)
    assert traced_peak(lambda: sl.KernelMatvec(spec(2), pts)) <= 0.55 * 8 * n * n


@pytest.mark.parametrize("shape", [(1, 1), (7, 7), (256, 256), (300, 300), (4, 119, 119), (3, 1, 1)])
def test_symmetrized_matches_the_reference_formula(shape):
    p = rng(len(shape)).normal(size=shape[:-1] + (3,))
    t = p @ np.swapaxes(p, -1, -2) + 1e-3 * rng(1).normal(size=shape)
    expected = 0.5 * (t + t.swapaxes(-1, -2))
    s = _symmetrized(t)
    assert np.array_equal(s, expected)
    assert np.array_equal(s, s.swapaxes(-1, -2))
    # a strided view gives the same result
    big = np.zeros(shape[:-2] + (shape[-2] + 5, shape[-1] + 5))
    big[..., 2 : 2 + shape[-2], 3 : 3 + shape[-1]] = t
    assert np.array_equal(_symmetrized(big[..., 2 : 2 + shape[-2], 3 : 3 + shape[-1]]), expected)


def test_matrix_free_matvec_memory_is_one_tile():
    pts = random_unit_points(3000, seed=10)
    v = rng(10).normal(size=3000)
    kmv = sl.KernelMatvec(spec(2), pts, materialize_limit=0)
    assert traced_peak(lambda: kmv(v)) < 16 * 2**20


@pytest.mark.parametrize("m", [2, 3])
def test_constrained_quadratic_form_is_positive(m):
    # a^T K a > 0 whenever Phi^T a = 0 and a != 0
    pts = fib(60).points
    K = kernel_matrix(spec(m), pts)
    phi = harmonic_basis_for(spec(m)).eval(pts)
    q, _ = np.linalg.qr(phi)
    for seed in range(6):
        v = rng(seed).normal(size=60)
        a = v - q @ (q.T @ v)
        assert np.linalg.norm(a) > 1e-8
        assert a @ K @ a > 0.0


# ---- harmonics ---- #

def test_basis_size_and_labels():
    basis = HarmonicBasis(2)
    assert basis.n_funcs == 9
    assert basis.orders() == [
        (0, 0), (1, 0), (1, 1), (1, -1), (2, 0), (2, 1), (2, -1), (2, 2), (2, -2),
    ]
    with pytest.raises(ValueError):
        HarmonicBasis(-1)


def test_orthonormality_under_quadrature():
    pts, w = sphere_quadrature()
    phi = HarmonicBasis(2).eval(pts)
    gram = phi.T @ (w[:, None] * phi)
    assert np.allclose(gram, np.eye(9), atol=1e-12)


def test_north_pole_values():
    vals = HarmonicBasis(1).eval(np.array([0.0, 0.0, 1.0]))
    assert vals == pytest.approx(
        [0.28209479177387814, 0.4886025119029199, 0.0, 0.0], abs=1e-15
    )


def test_degree_one_is_scaled_coordinates():
    pts = random_unit_points(40, seed=9)
    phi = HarmonicBasis(1).eval(pts)
    c = 0.4886025119029199  # sqrt(3 / 4pi)
    assert np.allclose(phi[:, 1], c * pts[:, 2], atol=1e-14)
    assert np.allclose(phi[:, 2], c * pts[:, 0], atol=1e-14)
    assert np.allclose(phi[:, 3], c * pts[:, 1], atol=1e-14)


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_addition_theorem(ell):
    # sum_m Y_lm(x) Y_lm(y) = (2l+1)/(4pi) P_l(x . y)
    basis = HarmonicBasis(3)
    labels = np.array([lab[0] for lab in basis.orders()])
    x = random_unit_points(30, seed=13)
    y = random_unit_points(30, seed=14)
    phi_x, phi_y = basis.eval(x), basis.eval(y)
    sel = labels == ell
    got = np.einsum("ij,ij->i", phi_x[:, sel], phi_y[:, sel])
    expected = (2 * ell + 1) / (4.0 * math.pi) * eval_legendre(ell, np.einsum("ij,ij->i", x, y))
    assert np.allclose(got, expected, atol=1e-13)


def test_eval_finite_at_poles_and_shapes():
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    vals = HarmonicBasis(3).eval(poles)
    assert vals.shape == (2, 16)
    assert np.all(np.isfinite(vals))
    single = HarmonicBasis(3).eval(poles[0])
    assert single.shape == (16,)
    assert np.array_equal(single, vals[0])


def test_constraint_space_degree():
    assert harmonic_basis_for(spec(2)).degree_max == 1
    assert harmonic_basis_for(spec(4)).degree_max == 3


# ---- assembly and expansion evaluation ---- #

def test_saddle_assembly_layout():
    ns = fib(25)
    system = assemble_saddle(spec(2), ns)
    M = system.matrix
    assert M.shape == (29, 29)
    assert np.array_equal(M, M.T)
    assert np.all(M[25:, 25:] == 0.0)
    sub = assemble_saddle(spec(2), ns, subset=[0, 3, 7, 9, 11])
    assert sub.matrix.shape == (9, 9)


@pytest.mark.parametrize("m", [2, 3])
def test_saddle_solve_reproduces_harmonic_data(m):
    # data sampled from the constrained space must come back with zero kernel part
    ns = fib(80)
    system = assemble_saddle(spec(m), ns)
    phi = harmonic_basis_for(spec(m)).eval(ns.points)
    for j in (0, spec(m).poly_dim - 1):
        rhs = np.concatenate([phi[:, j], np.zeros(spec(m).poly_dim)])
        a, c = factor_solve(system, rhs)
        assert np.abs(a).max() < 1e-8
        expected = np.zeros(spec(m).poly_dim)
        expected[j] = 1.0
        assert np.allclose(c, expected, atol=1e-8)


def test_evaluate_expansion_matches_dense_oracle():
    centers = fib(70).points
    g = rng(17)
    points = random_unit_points(130, seed=18)
    K = kernel_matrix(spec(2), points, centers)
    phi = HarmonicBasis(1).eval(points)
    # one expansion, and three sharing the centres
    for shape in ((), (3,)):
        a = g.normal(size=(70,) + shape)
        c = g.normal(size=(4,) + shape)
        got = evaluate_expansion(spec(2), centers, a, c, points)
        assert got.shape == (130,) + shape
        assert np.allclose(got, K @ a + phi @ c, atol=1e-13)


def test_evaluate_expansion_single_point_and_bad_poly_count():
    centers = fib(10).points
    out = evaluate_expansion(spec(2), centers, np.ones(10), np.zeros(4), centers[0])
    assert np.ndim(out) == 0 or out.shape == ()
    for count in (5, 9):  # 9: the harmonics through degree 2, those of m = 3
        match = f"{count} harmonic coefficients given, order m=2 takes 4"
        with pytest.raises(ValueError, match=match):
            evaluate_expansion(spec(2), centers, np.ones(10), np.zeros(count), centers[:3])
