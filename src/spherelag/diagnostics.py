"""Decay-rate fits and convergence studies for Lagrange-type bases.

Lagrange function values obey |chi(x)| <= C_L exp(-nu_L d(x, xi)/h) down to the
double-precision plateau near 1e-11; coefficients obey |A[zeta, xi]| <=
C_c q^(2-2m) exp(-nu_c d/h). Fitting a line to log-magnitude against d/h over a
window above the plateau recovers (nu, C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import checked_int, checked_real, ensure_stats, geodesic_distance
from .geom import probe_sequence, tangent_frame
from .kernel import evaluate_expansion
from .locallag import build_local_basis, interpolate_preconditioned, quasi_interpolate
from .solver import GmresNotConvergedError

PLATEAU_FLOOR = 1e-10
FIT_T_MIN = 2.0
MIN_SAMPLES = 10

# Longitudes and colatitudes of the grid decay_study samples a Lagrange function on.
DECAY_GRID_LON = 400
DECAY_GRID_LAT = 200

# Probe points convergence_study measures its sup errors at.
CONVERGENCE_PROBES = 20_000

# GMRES tol of the studies' preconditioned solves: tight enough that the
# printed decay rates and orders match those of a dense solve (docs/decisions.md).
STUDY_TOL = 1e-12


class InsufficientSamplesError(ValueError):
    """Fewer than 10 usable samples inside the fit window."""


@dataclass
class DecayFit:
    """Least-squares exponential fit v ~ C q^q_power exp(-nu t)."""

    nu: float
    C: float
    window: tuple
    r2: float
    kind: str
    q_power: int
    n_used: int


def fit_decay(samples, kind, q=None, m=2):
    """Fit (t, |v|) samples to C exp(-nu t), coefficient samples prescaled by q^(2m-2).

    The window is [FIT_T_MIN, t_plateau] with t_plateau the smallest t whose
    value drops below PLATEAU_FLOOR (samples below the floor are excluded as
    roundoff noise). kind is "function" (q_power 0) or "coefficient"
    (q_power 2 - 2m, requires q).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (t, value)")
    m = checked_int(m, "kernel order", 2)
    if kind == "function":
        q_power = 0
        scale = 1.0
    elif kind == "coefficient":
        q = checked_real(q, "separation q", 0, math.inf, "()")
        q_power = 2 - 2 * m
        scale = q ** (2 * m - 2)
    else:
        raise ValueError(f"unknown sample kind {kind!r}")

    t = samples[:, 0]
    v = np.abs(samples[:, 1])
    below = v < PLATEAU_FLOOR
    hi = float(t[below].min()) if below.any() else math.inf
    keep = (t >= FIT_T_MIN) & (t <= hi) & (v >= PLATEAU_FLOOR)
    if keep.sum() < MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"{int(keep.sum())} samples in window [{FIT_T_MIN}, {hi:.3g}], need {MIN_SAMPLES}"
        )

    ts = t[keep]
    ys = np.log(v[keep] * scale)
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (slope * ts + intercept)
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return DecayFit(
        nu=float(-slope),
        C=float(np.exp(intercept)),
        window=(FIT_T_MIN, hi),
        r2=r2,
        kind=kind,
        q_power=q_power,
        n_used=int(keep.sum()),
    )


@dataclass
class DecayStudy:
    """Decay data of one Lagrange function: band maxima and coefficient samples."""

    center_idx: int
    h: float
    q: float
    function_samples: np.ndarray
    coefficient_samples: np.ndarray
    fit_function: DecayFit
    fit_coefficient: DecayFit
    plateau_fraction_function: float
    plateau_fraction_coefficient: float
    iterations: int
    final_check: float


def _study_solve(nodes, spec, basis, data):
    """interpolate_preconditioned at STUDY_TOL; a solve that fails names N and m."""
    try:
        return interpolate_preconditioned(nodes, spec, basis, data, tol=STUDY_TOL)
    except GmresNotConvergedError as exc:
        exc.args = (f"study solve at N = {len(nodes)}, m = {spec.m}: {exc}",)
        raise


def decay_study(nodes, spec, center_idx=None):
    """Compute one full Lagrange column and fit both decay laws.

    The column is the interpolant of the cardinal data e_center, solved with
    the default local basis as preconditioner at STUDY_TOL. Function samples
    take the max of |chi| over each colatitude band of a lon-lat grid in a
    frame whose pole is the center node; coefficient samples are
    (d(center, zeta)/h, |A[zeta, center]|) over all nodes. The default center
    is the node nearest the north pole; a given one must be an integer in
    0..N-1.
    """
    pts = nodes.points
    n = pts.shape[0]
    if center_idx is None:
        center_idx = int(np.argmax(pts[:, 2]))
    center_idx = checked_int(center_idx, "center_idx", 0, n - 1)
    stats = ensure_stats(nodes)
    center = pts[center_idx]

    rhs = np.zeros(n)
    rhs[center_idx] = 1.0
    a, c, report = _study_solve(nodes, spec, build_local_basis(nodes, spec), rhs)

    e1, e2 = tangent_frame(center)
    theta2 = np.linspace(0.0, math.pi, DECAY_GRID_LAT)
    theta1 = np.linspace(0.0, 2.0 * math.pi, DECAY_GRID_LON, endpoint=False)
    sin2, cos2 = np.sin(theta2), np.cos(theta2)
    grid = (
        np.einsum("i,j,k->ijk", sin2, np.cos(theta1), e1)
        + np.einsum("i,j,k->ijk", sin2, np.sin(theta1), e2)
        + np.einsum("i,j,k->ijk", cos2, np.ones_like(theta1), center)
    ).reshape(-1, 3)
    vals = np.abs(evaluate_expansion(spec, pts, a, c, grid))
    vals = vals.reshape(DECAY_GRID_LAT, DECAY_GRID_LON)
    band_max = vals.max(axis=1)
    function_samples = np.column_stack([theta2 / stats.h, band_max])

    d = geodesic_distance(center, pts)
    coefficient_samples = np.column_stack([d / stats.h, np.abs(a)])

    fit_fn = fit_decay(function_samples, "function", m=spec.m)
    fit_cf = fit_decay(coefficient_samples, "coefficient", q=stats.q, m=spec.m)
    return DecayStudy(
        center_idx=center_idx,
        h=stats.h,
        q=stats.q,
        function_samples=function_samples,
        coefficient_samples=coefficient_samples,
        fit_function=fit_fn,
        fit_coefficient=fit_cf,
        plateau_fraction_function=float((band_max < PLATEAU_FLOOR).mean()),
        plateau_fraction_coefficient=float((np.abs(a) < PLATEAU_FLOOR).mean()),
        iterations=report.iterations,
        final_check=report.final_check,
    )


@dataclass
class ConvergenceRow:
    """Errors of interpolation and quasi-interpolation at one resolution."""

    n_nodes: int
    h: float
    err_interp: float
    err_quasi: float
    order_interp: float
    order_quasi: float
    iterations: int
    final_check: float


def convergence_study(node_sets, spec, f, footprint=None):
    """Interpolation vs quasi-interpolation sup errors over a ladder of NodeSets.

    f maps (P, 3) points to values. One local basis per level, built with
    footprint, gives the quasi-interpolant and preconditions the interpolation
    solve at STUDY_TOL. Errors are sup over the first CONVERGENCE_PROBES probe
    points; observed orders between consecutive levels use the measured fill
    distances. footprint None means FootprintRule(), the default count rule,
    at every level.
    """
    probes = probe_sequence(CONVERGENCE_PROBES)
    f_ref = np.asarray(f(probes), dtype=np.float64)
    rows = []
    for nodes in node_sets:
        stats = ensure_stats(nodes)
        y = np.asarray(f(nodes.points), dtype=np.float64)
        basis = build_local_basis(nodes, spec, footprint)

        a, c, report = _study_solve(nodes, spec, basis, y)
        err_i = float(np.abs(evaluate_expansion(spec, nodes.points, a, c, probes) - f_ref).max())
        err_q = float(np.abs(quasi_interpolate(basis, y)(probes) - f_ref).max())

        rows.append(
            ConvergenceRow(
                n_nodes=len(nodes),
                h=stats.h,
                err_interp=err_i,
                err_quasi=err_q,
                order_interp=math.nan,
                order_quasi=math.nan,
                iterations=report.iterations,
                final_check=report.final_check,
            )
        )

    for prev, cur in zip(rows, rows[1:]):
        dh = math.log(prev.h / cur.h)
        if dh != 0.0 and cur.err_interp > 0.0 and prev.err_interp > 0.0:
            cur.order_interp = math.log(prev.err_interp / cur.err_interp) / dh
        if dh != 0.0 and cur.err_quasi > 0.0 and prev.err_quasi > 0.0:
            cur.order_quasi = math.log(prev.err_quasi / cur.err_quasi) / dh
    return rows
