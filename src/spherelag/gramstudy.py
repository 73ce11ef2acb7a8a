"""Gram matrices of degree-<=1 harmonics restricted to spherical caps.

The continuous Gram over a polar cap of radius r has a closed form in the real
orthonormal basis ordered (0,0), (1,0), (1,1), (1,-1): six nonzero entries,
everything else zero by parity in longitude. Its smallest eigenvalue behaves
like r^4 / (256 pi) relative to the cap area, which quantifies how poorly a
small cap can pin down the polynomial part, and the discrete Gram of any point
set confined to the cap obeys ||G_C^{-1}||_2 <= mu(cap) ||G_cap^{-1}||_2 once
the points fill the cap well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import _chord_to_geodesic, cap_area, cap_points, geodesic_distance, sphere_point
from .kernel import HarmonicBasis
from .lagrange import gram_discrete
from .solver import NonUnisolventError, sym_eig_minmax

# Ordering of the 4 basis functions in the analytic Gram.
CAP_GRAM_ORDER = ((0, 0), (1, 0), (1, 1), (1, -1))

# Mesh-to-radius ratio below which the comparison inequality is expected to
# hold; coarser fillings are flagged as outside the hypothesis, not as errors.
HYPOTHESIS_H_RATIO = 0.1

# Probe points cap_gram_compare estimates the fill distance within the cap from.
CAP_PROBES = 20_000


def cap_gram_analytic(r):
    """Exact 4x4 Gram of Y_00, Y_10, Y_11c, Y_11s over a cap of radius r.

    Valid for 0 < r <= pi; at r = pi the matrix is the identity (orthonormality
    over the full sphere).
    """
    r = float(r)
    if not 0.0 < r <= math.pi:
        raise ValueError(f"cap radius must lie in (0, pi], got {r}")
    c = math.cos(r)
    G = np.zeros((4, 4))
    G[0, 0] = 0.5 * (1.0 - c)
    G[0, 1] = G[1, 0] = math.sqrt(3.0) / 4.0 * (1.0 - c) * (1.0 + c)
    G[1, 1] = 0.5 * (1.0 - c) * (1.0 + c + c * c)
    G[2, 2] = G[3, 3] = 0.25 * (1.0 - c) ** 2 * (2.0 + c)
    return G


def min_eig_ratio(r):
    """lambda_min(G / mu(cap)) divided by its leading asymptotic r^4/(256 pi)."""
    mu = cap_area(r)
    lam_min, _ = sym_eig_minmax(cap_gram_analytic(r) / mu)
    return lam_min / (r**4 / (256.0 * math.pi))


@dataclass
class CapGramReport:
    """Discrete-vs-analytic inverse Gram comparison for one cap-confined set."""

    n_points: int
    r: float
    norm_inv_discrete: float
    bound: float
    h_cap: float
    h_ratio: float
    satisfied: bool
    within_hypothesis: bool


def cap_gram_compare(points, center, r):
    """Check ||G_C^{-1}||_2 <= mu(cap) ||G_cap^{-1}||_2 for points inside a cap.

    h_cap is the fill distance of the points within the cap (probe estimate);
    a violation at h_cap / r beyond 0.1 is reported as out-of-hypothesis rather
    than as a failure, since the inequality only holds for cap-filling sets.
    """
    pts = np.asarray(points, dtype=np.float64)
    center = sphere_point(*np.asarray(center, dtype=np.float64))
    d = geodesic_distance(center, pts)
    if np.any(d > r + 1e-12):
        raise ValueError(
            f"{int((d > r + 1e-12).sum())} points lie outside the cap of radius {r}"
        )

    G = gram_discrete(pts, HarmonicBasis(1))
    lam_min, _ = sym_eig_minmax(G)
    if lam_min <= 1e-13:
        raise NonUnisolventError(
            f"cap point set has singular discrete Gram (lambda_min = {lam_min:.3e})"
        )
    norm_inv = 1.0 / lam_min

    mu = cap_area(r)
    lam_min_cap, _ = sym_eig_minmax(cap_gram_analytic(r))
    bound = mu / lam_min_cap

    probes = cap_points(center, r, CAP_PROBES)
    dist, _ = cKDTree(pts).query(probes, k=1)
    h_cap = float(_chord_to_geodesic(dist.max()))
    h_ratio = h_cap / r

    return CapGramReport(
        n_points=pts.shape[0],
        r=float(r),
        norm_inv_discrete=norm_inv,
        bound=bound,
        h_cap=h_cap,
        h_ratio=h_ratio,
        satisfied=bool(norm_inv <= bound * (1.0 + 1e-12)),
        within_hypothesis=bool(h_ratio <= HYPOTHESIS_H_RATIO),
    )
