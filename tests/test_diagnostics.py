"""Exponential-decay fits and interpolation/quasi-interpolation ladders."""

import math

import numpy as np
import pytest

from spherelag import diagnostics
from spherelag.diagnostics import (
    InsufficientSamplesError,
    convergence_study,
    decay_study,
    fit_decay,
)
from spherelag.locallag import FootprintRule

from helpers import fib, spec, traced_peak


def exp_samples(nu, C, t_max=12.0, n=200):
    t = np.linspace(0.0, t_max, n)
    return np.column_stack([t, C * np.exp(-nu * t)])


def test_fit_recovers_synthetic_exponential():
    fit = fit_decay(exp_samples(1.35, 2.5), "function")
    assert fit.nu == pytest.approx(1.35, rel=1e-9)
    assert fit.C == pytest.approx(2.5, rel=1e-9)
    assert fit.r2 > 1.0 - 1e-12
    assert fit.q_power == 0
    assert fit.kind == "function"


def test_coefficient_fit_removes_separation_prefactor():
    # samples follow C q^(2-2m) exp(-nu t); the fit reports the bare C
    q, m, nu, C = 0.03, 2, 1.1, 0.7
    samples = exp_samples(nu, C * q ** (2 - 2 * m))
    fit = fit_decay(samples, "coefficient", q=q, m=m)
    assert fit.nu == pytest.approx(nu, rel=1e-9)
    assert fit.C == pytest.approx(C, rel=1e-9)
    assert fit.q_power == -2


def test_fit_is_scale_equivariant():
    # rescaling the values moves C by the same factor and leaves nu alone
    base = exp_samples(0.9, 1.0, t_max=10.0)
    ref = fit_decay(base, "function")
    for s in (1e-3, 100.0):
        scaled = base.copy()
        scaled[:, 1] *= s
        fit = fit_decay(scaled, "function")
        assert abs(fit.nu - ref.nu) < 1e-12
        assert fit.C == pytest.approx(s * ref.C, rel=1e-12)


def test_fit_window_stops_at_the_plateau():
    # values saturate at 1e-11 past the crossing; the flat tail must not bias
    # the slope, and sub-floor samples inside the window are dropped too
    t = np.linspace(0.0, 40.0, 600)
    v = np.maximum(np.exp(-t), 1e-11)
    fit = fit_decay(np.column_stack([t, v]), "function")
    assert fit.nu == pytest.approx(1.0, rel=1e-9)
    crossing = math.log(1e10)
    assert fit.window[0] == 2.0
    assert fit.window[1] == pytest.approx(crossing, abs=0.1)
    assert fit.n_used < 600


def test_fit_validation():
    good = exp_samples(1.0, 1.0)
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        fit_decay(good[:, 0], "function")
    with pytest.raises(ValueError, match="kind"):
        fit_decay(good, "magnitude")
    with pytest.raises(ValueError, match="separation"):
        fit_decay(good, "coefficient")


def test_fit_requires_enough_samples():
    with pytest.raises(InsufficientSamplesError):
        fit_decay(exp_samples(1.0, 1.0, n=8), "function")
    flat = np.column_stack([np.linspace(0, 10, 50), np.full(50, 1e-13)])
    with pytest.raises(InsufficientSamplesError):
        fit_decay(flat, "function")


def test_decay_study_on_a_fibonacci_set():
    study = decay_study(fib(900), spec(2))
    assert study.center_idx == int(np.argmax(fib(900).points[:, 2]))
    assert study.fit_function.nu > 0.5
    assert study.fit_coefficient.nu > 0.5
    assert study.fit_function.r2 > 0.99
    assert study.fit_coefficient.r2 > 0.9
    gap = abs(study.fit_function.nu - study.fit_coefficient.nu)
    assert gap <= 0.3 * max(study.fit_function.nu, study.fit_coefficient.nu)
    # both sample families reach the double-precision plateau on this set
    assert 0.0 < study.plateau_fraction_function < 1.0
    assert 0.0 < study.plateau_fraction_coefficient < 1.0


def test_decay_study_respects_center_choice():
    study = decay_study(fib(400), spec(2), center_idx=123)
    assert study.center_idx == 123
    assert study.coefficient_samples[123, 0] == 0.0
    assert study.coefficient_samples.shape == (400, 2)


@pytest.mark.parametrize("center_idx", [-1, 400, 99_999, 1.5, np.float64(2.0), True])
def test_decay_study_rejects_a_center_outside_the_set(center_idx):
    reason = "is outside" if type(center_idx) is int else "is not an integer in"
    with pytest.raises(ValueError, match=f"center_idx {center_idx} {reason} 0..399"):
        decay_study(fib(400), spec(2), center_idx=center_idx)


@pytest.fixture
def few_probes(monkeypatch):
    monkeypatch.setattr(diagnostics, "CONVERGENCE_PROBES", 2000)


def test_convergence_interpolation_errors_shrink(few_probes):
    rows = convergence_study([fib(n) for n in (100, 200, 400)], spec(2), lambda p: np.exp(p[:, 2]))
    errs = [r.err_interp for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert math.isnan(rows[0].order_interp)
    assert rows[2].order_interp > 2.0
    assert rows[0].h > rows[1].h > rows[2].h
    assert [r.n_nodes for r in rows] == [100, 200, 400]
    for row in rows:
        assert 1 <= row.iterations <= 200
        assert row.final_check < 1e-9


def test_convergence_quasi_tracks_interpolation_with_wide_footprints(few_probes):
    rows = convergence_study(
        [fib(200), fib(400)],
        spec(2),
        lambda p: np.exp(p[:, 2]),
        footprint=FootprintRule(M=11.0),
    )
    for row in rows:
        assert row.err_quasi <= 10.0 * row.err_interp


def test_convergence_reproduces_low_degree_harmonics(few_probes):
    rows = convergence_study([fib(100), fib(200)], spec(2), lambda p: p[:, 2])
    for row in rows:
        assert row.err_interp < 1e-8


def test_convergence_memory_is_at_most_one_kernel_matrix(few_probes):
    # the largest array of the preconditioned solve is the cached operator,
    # about 0.55 x 8 N^2 bytes; a dense bordered system would be 2 x 8 (N + 4)^2
    nodes = fib(3000)
    run = lambda: convergence_study([nodes], spec(2), lambda p: np.exp(p[:, 2]))
    assert traced_peak(run) <= 8 * 3000**2
