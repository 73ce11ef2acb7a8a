"""Cap-restricted harmonic Gram matrices and the inverse-norm comparison."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from spherelag.geom import cap_area, cap_points
from spherelag.gramstudy import (
    CAP_GRAM_ORDER,
    cap_gram_analytic,
    cap_gram_compare,
    cap_gram_extremes,
    min_eig_ratio,
)
from spherelag.kernel import HarmonicBasis
from spherelag.solver import NonUnisolventError

NORTH = np.array([0.0, 0.0, 1.0])


def quadrature_gram(r, n_z=20, n_phi=40):
    """Independent cap integral: Gauss-Legendre in z, periodic rule in phi.

    The integrands are polynomials of degree <= 2 in z times trigonometric
    polynomials of degree <= 2, so this resolution is already exact.
    """
    x, w = leggauss(n_z)
    lo = math.cos(r)
    z = 0.5 * (x + 1.0) * (1.0 - lo) + lo
    wz = 0.5 * (1.0 - lo) * w
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    Z, P = np.meshgrid(z, phi, indexing="ij")
    s = np.sqrt(np.clip(1.0 - Z**2, 0.0, None))
    pts = np.column_stack(
        [(s * np.cos(P)).ravel(), (s * np.sin(P)).ravel(), Z.ravel()]
    )
    Y = HarmonicBasis(1).eval(pts)
    W = np.repeat(wz, n_phi) * (2.0 * np.pi / n_phi)
    return Y.T @ (W[:, None] * Y)


@pytest.mark.parametrize("r", [0.3, 1.0, math.pi / 2, math.pi])
def test_analytic_gram_matches_quadrature(r):
    assert np.abs(cap_gram_analytic(r) - quadrature_gram(r)).max() < 1e-13


def test_full_sphere_gram_is_identity():
    assert np.abs(cap_gram_analytic(math.pi) - np.eye(4)).max() < 1e-15


def test_gram_symmetry_and_sparsity_pattern():
    G = cap_gram_analytic(0.7)
    assert np.array_equal(G, G.T)
    nonzero = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)}
    for i in range(4):
        for j in range(4):
            if (i, j) in nonzero:
                assert G[i, j] != 0.0
            else:
                assert G[i, j] == 0.0
    assert G[2, 2] == G[3, 3]  # longitude families identical by symmetry


def test_gram_entry_order_matches_basis():
    assert tuple(HarmonicBasis(1).orders()) == CAP_GRAM_ORDER


@pytest.mark.parametrize("r", [0.0, -0.5, math.pi + 1e-6])
def test_gram_rejects_bad_radii(r):
    with pytest.raises(ValueError, match=rf"^cap radius must be a real number in \(0, pi\], got {r}$"):
        cap_gram_analytic(r)


def test_min_eig_ratio_approaches_asymptote():
    # lambda_min(G / mu) ~ r^4 / (256 pi): the normalized ratio drifts to 1
    r3, r05, r01 = min_eig_ratio(0.3), min_eig_ratio(0.05), min_eig_ratio(0.01)
    assert r3 == pytest.approx(1.0187513809443902, rel=1e-10)
    assert abs(r05 - 1.0) < 1e-2
    assert abs(r01 - 1.0) < 1e-3
    assert abs(r01 - 1.0) < abs(r05 - 1.0) < abs(r3 - 1.0)


@pytest.mark.parametrize("r", [1e-2, 1e-3, 1e-4, 1e-6])
def test_min_eig_ratio_follows_its_series_on_small_caps(r):
    # lambda_min(G / mu) / (r^4 / (256 pi)) = 1 + 5 r^2 / 24 + O(r^4); below
    # r = 1e-4 the O(r^4) term is under the rounding of a double near 1
    rounding = 4.0 * np.finfo(np.float64).eps
    assert abs(min_eig_ratio(r) - (1.0 + 5.0 * r * r / 24.0)) <= r**4 + rounding


@pytest.mark.parametrize("r", [1e-9, 1e-4, 0.3, 1.0, 2.5, math.pi])
def test_cap_gram_extremes_match_the_matrix(r):
    lo, hi = cap_gram_extremes(r)
    assert (lo, hi) == (min(lo, hi), max(lo, hi)) and lo > 0.0
    spectrum = np.linalg.eigvalsh(cap_gram_analytic(r))
    assert hi == pytest.approx(spectrum[-1], rel=1e-14)
    if r >= 0.3:  # below, the eigensolver loses the small eigenvalue the closed form keeps
        assert lo == pytest.approx(spectrum[0], rel=1e-12)


def test_cap_comparison_holds_for_filling_sets():
    pts = cap_points(NORTH, 0.3, 1500)
    report = cap_gram_compare(pts, NORTH, 0.3)
    assert report.n_points == 1500
    assert report.r == 0.3
    assert report.within_hypothesis
    assert report.h_ratio <= 0.1
    assert report.satisfied
    assert report.norm_inv_discrete <= report.bound


def test_cap_comparison_bound_is_mu_over_min_eig():
    pts = cap_points(NORTH, 0.5, 800)
    report = cap_gram_compare(pts, NORTH, 0.5)
    lam = np.linalg.eigvalsh(cap_gram_analytic(0.5)).min()
    assert report.bound == pytest.approx(cap_area(0.5) / lam, rel=1e-12)


def test_cap_comparison_flags_sparse_fillings():
    pts = cap_points(NORTH, 0.3, 30)
    report = cap_gram_compare(pts, NORTH, 0.3)
    assert report.h_ratio > 0.1
    assert not report.within_hypothesis


def test_cap_comparison_rejects_points_outside():
    pts = cap_points(NORTH, 0.5, 100)
    with pytest.raises(ValueError, match="outside the cap"):
        cap_gram_compare(pts, NORTH, 0.3)


def test_cap_comparison_rejects_singular_sets():
    pts = np.tile(NORTH, (10, 1))
    with pytest.raises(NonUnisolventError):
        cap_gram_compare(pts, NORTH, 0.3)
