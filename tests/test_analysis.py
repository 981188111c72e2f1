import math

import numpy as np
import pytest

from kzquench import analysis
from kzquench import closedform as cf

from fit_helpers import (amplitude_slope, boxcar_period_average, find_peaks, fit_power_law,
                         scaled_collapse)


def _model(x, b0, M, omega, delta, exponent=-0.5):
    return x ** exponent * (b0 + M * np.cos(omega * x + delta))


def test_fit_oscillation_exact_on_own_model():
    x = np.arange(10.0, 60.0, 0.25)
    omega = 4.0
    y = _model(x, 0.59, 0.35, omega, 1.1)
    fit = analysis.fit_oscillation(analysis.Sweep(x, y), 2.0 * math.pi / 4.1)
    assert abs(fit.omega - omega) < 1e-6 * omega
    assert abs(fit.baseline - 0.59) < 1e-9
    assert abs(fit.amplitude - 0.35) < 1e-9
    assert abs((fit.phase - 1.1 + math.pi) % (2.0 * math.pi) - math.pi) < 1e-7
    assert fit.rel_residual < 1e-10


def test_fit_oscillation_scale_invariance():
    x = np.arange(5.0, 40.0, 0.2)
    y = _model(x, 1.0, 0.4, 2.0, 0.3)
    f1 = analysis.fit_oscillation(analysis.Sweep(x, y), math.pi)
    f2 = analysis.fit_oscillation(analysis.Sweep(x, 7.3 * y), math.pi)
    assert abs(f1.omega - f2.omega) < 1e-10
    assert abs(f2.amplitude / f1.amplitude - 7.3) < 1e-8


def test_fit_oscillation_sampling_guard():
    x = np.arange(10.0, 60.0, 2.0)
    y = _model(x, 0.6, 0.3, 4.0, 0.0)
    with pytest.raises(analysis.InsufficientData):
        analysis.fit_oscillation(analysis.Sweep(x, y), math.pi / 2.0)


def test_fit_oscillation_residual_gate():
    x = np.arange(10.0, 60.0, 0.25)
    rng = np.random.default_rng(7)
    y = _model(x, 0.6, 0.3, 4.0, 0.0) + 0.2 * rng.standard_normal(len(x)) * x ** -0.5
    with pytest.raises(analysis.FitFailure):
        analysis.fit_oscillation(analysis.Sweep(x, y), math.pi / 2.0)
    fit = analysis.fit_oscillation(analysis.Sweep(x, y), math.pi / 2.0, max_residual=None)
    assert fit.period > 0.0


def test_fit_oscillation_harmonics():
    x = np.arange(10.0, 40.0, 0.1)
    y = x ** -1.0 * (1.0 + 0.5 * np.cos(4.0 * x + 0.2) + 0.3 * np.cos(8.0 * x + 1.0))
    fit = analysis.fit_oscillation(analysis.Sweep(x, y), math.pi / 2.0,
                                   exponent=-1.0, harmonics=2)
    assert abs(fit.omega - 4.0) < 1e-6


def test_fit_power_law():
    x = np.geomspace(2.0, 500.0, 40)
    y = 0.37 * x ** -1.234
    pref, expo = fit_power_law(analysis.Sweep(x, y))
    assert abs(pref - 0.37) < 1e-12
    assert abs(expo + 1.234) < 1e-6
    with pytest.raises(ValueError):
        fit_power_law(analysis.Sweep(x, y - 1.0))


def test_fit_power_law_exact_n0():
    taus = np.geomspace(10.0, 200.0, 12)
    n0 = 1.0 / (2.0 * math.pi * np.sqrt(2.0 * taus))
    _, expo = fit_power_law(analysis.Sweep(taus, n0))
    assert abs(expo + 0.5) < 1e-6
    # the tricritical (g_0 = 2) baseline scales exactly as tau^(-1/6)
    n0_xy = np.array([cf.density_prediction_xy_roundtrip(t, 1.0, 2.0).n0 for t in taus])
    _, expo_xy = fit_power_law(analysis.Sweep(taus, n0_xy))
    assert abs(expo_xy + 1.0 / 6.0) < 1e-10


def test_amplitude_decay_exact_asymptote():
    # the limiting amplitude scales exactly as (ln tau)^{-3/2}
    taus = np.geomspace(50.0, 5000.0, 25)
    M = np.array([cf.amplitude_asymptote(t, 1.0) for t in taus])
    A = np.column_stack([np.ones_like(taus), np.log(np.log(taus))])
    coef, _, _, _ = np.linalg.lstsq(A, np.log(M), rcond=None)
    assert abs(coef[1] + 1.5) < 1e-9


def test_amplitude_decay_check_full_form():
    # the full Appendix amplitude in the stated window is pre-asymptotic:
    # the slope freezes at -0.9262 there and steepens towards -3/2 at larger tau
    s1 = amplitude_slope(np.geomspace(50.0, 5000.0, 25))
    assert abs(s1 + 0.9262) < 0.01
    s2 = amplitude_slope(np.geomspace(1e8, 1e12, 25))
    assert s2 < s1
    assert abs(s2 + 1.5) < 0.2


def test_find_peaks_quadratic_refinement():
    x = np.linspace(0.0, 10.0, 401)
    y = np.cos(2.0 * x - 0.7)
    peaks = find_peaks(x, y)
    expected = 0.35 + math.pi * np.arange(4)
    assert len(peaks) == 4
    assert np.max(np.abs(peaks - expected)) < 1e-3


def test_scaled_collapse_on_model():
    # curves generated from the closed-form density collapse exactly
    xs = np.arange(8.0, 8.0 + 2.5 * math.pi / 2.0, 0.05)
    sweeps = {}
    for g_rt in (0.0, 0.2, 0.4, 0.6, 0.8):
        taus = xs / (g_rt - 1.0) ** 2
        n = np.array([cf.density_prediction_roundtrip(float(t), 1.0, g_rt).n for t in taus])
        sweeps[g_rt] = analysis.Sweep(xs, n)
    disp = scaled_collapse(sweeps)
    assert disp < 0.02


def test_scaled_collapse_single_sweep_trivial():
    x = np.linspace(0.0, 10.0, 101)
    assert scaled_collapse({0.0: analysis.Sweep(x, np.cos(x))}) == 0.0


def test_scaled_collapse_insufficient_peaks():
    x = np.linspace(0.0, 1.0, 50)
    sweeps = {0: analysis.Sweep(x, x), 1: analysis.Sweep(x, x ** 2)}
    with pytest.raises(analysis.InsufficientData):
        scaled_collapse(sweeps)


def test_peak_positions_invariant_under_reparameterization():
    x = np.linspace(1.0, 20.0, 800)
    y = np.sin(x)
    p1 = find_peaks(x, y)
    # consistent monotone reparameterization u = 2x + 3 of model and axis
    u = 2.0 * x + 3.0
    p2 = find_peaks(u, y)
    assert np.max(np.abs((p2 - 3.0) / 2.0 - p1)) < 1e-6


def test_boxcar_period_average_strips_oscillation():
    x = np.arange(10.0, 40.0, 0.1)
    base = 0.3 * x ** -0.5
    y = base + 0.05 * np.cos(4.0 * x + 0.3) * x ** -0.5
    cen, avg = boxcar_period_average(x, y, math.pi / 2.0)
    ref = 0.3 * np.asarray(cen) ** -0.5
    assert np.max(np.abs(avg - ref) / ref) < 0.01


def test_sweep_validation():
    with pytest.raises(ValueError):
        analysis.Sweep(np.array([1.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        analysis.Sweep(np.array([1.0, 2.0]), np.zeros(3))


def _lstsq_rss(x, y, omega, exponent, harmonics):
    # the reference: one frequency's least squares by np.linalg.lstsq
    base = x ** exponent
    A = np.column_stack([base] + [base * trig(k * omega * x) for k in range(1, harmonics + 1)
                                  for trig in (np.cos, np.sin)])
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    r = y - A @ coef
    return r @ r


@pytest.mark.parametrize("exponent, harmonics, noise", [(-0.5, 1, 0.02), (-0.5, 1, 0.2),
                                                        (-1.0, 2, 0.05)])
def test_frequency_scan_matches_per_frequency_lstsq(exponent, harmonics, noise):
    # the batched scan of fit_oscillation gives each trial frequency's residual
    # as lstsq does, and so the same grid point
    x = np.arange(10.0, 40.0, 0.3)
    rng = np.random.default_rng(int(100 * noise) + harmonics)
    y = _model(x, 0.6, 0.3, 4.0, 0.5, exponent) * (1.0 + noise * rng.standard_normal(len(x)))
    grid = np.linspace(2.0, 6.0, 401)
    batched = analysis._scan(x, y, grid, exponent, harmonics)[0]
    single = np.array([_lstsq_rss(x, y, om, exponent, harmonics) for om in grid])
    assert np.max(np.abs(batched / single - 1.0)) <= 1e-12
    assert np.argmin(batched) == np.argmin(single)


@pytest.mark.parametrize("samples, harmonics", [(1, 1), (2, 1), (3, 1), (4, 1), (6, 2)])
def test_fit_oscillation_needs_a_sample_over_the_unknowns(samples, harmonics):
    # b0, Omega and a cos/sin pair per harmonic are unknown; with no sample to
    # spare the model can pass through the data at a wrong period with zero
    # residual, which the residual gate cannot catch
    x = 10.0 + 0.3 * np.arange(samples)
    y = x ** -0.5 * (1.0 + 0.3 * np.cos(4.0 * x))
    with pytest.raises(analysis.InsufficientData):
        analysis.fit_oscillation(analysis.Sweep(x, y), math.pi / 2.0, harmonics=harmonics)


@pytest.mark.parametrize("f", [i / 10 for i in range(10)])
def test_fit_oscillation_on_the_benchmark_grid(f):
    # the benchmark's sweep: 10 tau_Q 0.35 apart from 10 + 0.35 f, 4.5 per period
    # pi/2 over two periods, here on the closed-form round-trip density.  The
    # period holds to the benchmark's 3%, and the fit ends at a minimum of the
    # projected residual
    x = 10.0 + f * 0.35 + 0.35 * np.arange(10)
    y = np.array([cf.density_prediction_roundtrip(t, 1.0).n for t in x])
    fit = analysis.fit_oscillation(analysis.Sweep(x, y), math.pi / 2.0)
    assert abs(fit.period / (math.pi / 2.0) - 1.0) <= 0.03
    rss = analysis._scan(x, y, fit.omega * np.array([1.0 - 1e-7, 1.0, 1.0 + 1e-7]), -0.5, 1)[0]
    assert rss[0] >= rss[1] and rss[2] >= rss[1]
