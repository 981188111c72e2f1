"""Fits and extraction of emergent quantities from sweeps.

The oscillation fit uses variable projection: for a trial frequency the model
n(x) = x^(-1/2) (b0 + A cos(Omega x) + B sin(Omega x)) is linear, so the
baseline and quadrature amplitudes come from least squares and only Omega is
scanned (around the caller-supplied expectation, which kills frequency
aliasing) and then refined by golden-section search.  This makes the fit
exact on data generated from its own model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class FitFailure(RuntimeError):
    """A fit did not converge to the required residual."""


class InsufficientData(ValueError):
    """Not enough structure in the data for the requested extraction."""


@dataclass(frozen=True)
class Sweep:
    """Strictly increasing x against y samples."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("x must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class OscillationFit:
    """Result of the oscillatory-baseline fit."""

    baseline: float         # b0 of b0 * x^exponent
    amplitude: float        # combined oscillation amplitude (same scaling)
    omega: float
    phase: float
    period: float
    exponent: float
    rel_residual: float
    relative_amplitude: float  # amplitude / |baseline|


def _design(x, omega, exponent, harmonics):
    base = x ** exponent
    cols = [base]
    for k in range(1, harmonics + 1):
        cols.append(base * np.cos(k * omega * x))
        cols.append(base * np.sin(k * omega * x))
    return np.column_stack(cols)


def _lstsq_residual(x, y, omega, exponent, harmonics):
    A = _design(x, omega, exponent, harmonics)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    r = y - A @ coef
    return float(r @ r), coef


def fit_oscillation(sweep, expected_period, exponent=-0.5, harmonics=1,
                    max_residual=0.05):
    """Fit n(x) = x^exponent (b0 + M cos(Omega x + delta)) with Omega near
    2 pi / expected_period.

    The caller supplies the expected period (from the closed-form period
    operation) as initialization; the sweep must hold at least 4 samples per
    expected period.  ``harmonics`` adds cos/sin columns at multiples of Omega
    for signals carrying overtones (the defect-defect correlator mixes the
    base frequency with its double).  Raises FitFailure when the relative
    residual exceeds ``max_residual`` (pass None to extract a period from data
    whose envelope is not captured by the power-law baseline).
    """
    x, y = sweep.x, sweep.y
    if expected_period <= 0.0 or not np.isfinite(expected_period):
        raise ValueError("expected_period must be positive and finite")
    if np.median(np.diff(x)) > expected_period / 4.0:
        raise InsufficientData("need >= 4 samples per expected period")
    omega0 = 2.0 * math.pi / expected_period
    grid = np.linspace(0.5 * omega0, 1.5 * omega0, 1201)
    res = np.array([_lstsq_residual(x, y, om, exponent, harmonics)[0] for om in grid])
    i = int(np.argmin(res))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    # golden-section refinement of the projected residual
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _lstsq_residual(x, y, c, exponent, harmonics)[0]
    fd = _lstsq_residual(x, y, d, exponent, harmonics)[0]
    for _ in range(200):
        if b - a < 1e-13 * omega0:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _lstsq_residual(x, y, c, exponent, harmonics)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _lstsq_residual(x, y, d, exponent, harmonics)[0]
    omega = 0.5 * (a + b)
    rss, coef = _lstsq_residual(x, y, omega, exponent, harmonics)
    b0, ac, as_ = coef[0], coef[1], coef[2]
    amplitude = math.hypot(ac, as_)
    phase = math.atan2(-as_, ac)
    rel_residual = math.sqrt(rss) / math.sqrt(float(y @ y))
    if max_residual is not None and rel_residual > max_residual:
        raise FitFailure("oscillation fit residual %.3g exceeds %.3g"
                         % (rel_residual, max_residual))
    return OscillationFit(baseline=float(b0), amplitude=float(amplitude),
                          omega=float(omega), phase=float(phase),
                          period=2.0 * math.pi / float(omega), exponent=exponent,
                          rel_residual=rel_residual,
                          relative_amplitude=float(amplitude / abs(b0)) if b0 else math.inf)


def fit_power_law(sweep):
    """(prefactor, exponent) of y = prefactor * x^exponent by log-log least squares."""
    x, y = sweep.x, sweep.y
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fit requires positive data")
    A = np.column_stack([np.ones_like(x), np.log(x)])
    coef, _, _, _ = np.linalg.lstsq(A, np.log(y), rcond=None)
    return float(math.exp(coef[0])), float(coef[1])


def amplitude_decay_check(tau_q_list, R=1.0):
    """Slope of log M against log ln tau_Q for the closed-form amplitude M.

    The dephasing of the oscillation amplitude gives slope -3/2 at large tau.
    """
    from .closedform import density_prediction_roundtrip

    taus = np.asarray(tau_q_list, dtype=float)
    M = np.array([density_prediction_roundtrip(t, R).M for t in taus])
    A = np.column_stack([np.ones_like(taus), np.log(np.log(taus))])
    coef, _, _, _ = np.linalg.lstsq(A, np.log(M), rcond=None)
    return float(coef[1])


def find_peaks(x, y):
    """Sub-grid local-maximum positions by 3-point quadratic interpolation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    peaks = []
    for i in range(1, len(x) - 1):
        if y[i] >= y[i - 1] and y[i] > y[i + 1]:
            d1 = (y[i + 1] - y[i - 1]) / 2.0
            d2 = y[i + 1] - 2.0 * y[i] + y[i - 1]
            if d2 < 0.0:
                # uniform-grid vertex offset; grids here are uniform
                peaks.append(x[i] - d1 / d2 * (x[i + 1] - x[i]))
            else:
                peaks.append(x[i])
    return np.array(peaks)


def scaled_collapse(sweeps):
    """Maximum relative dispersion of matched peak positions across sweeps.

    ``sweeps`` maps labels (e.g. turning points) to Sweep objects sampled on a
    common scaled-time axis.  Peaks of the first sweep anchor the matching;
    each other sweep must have a peak within half the median anchor spacing.
    A single sweep trivially collapses (0.0).
    """
    items = list(sweeps.items()) if isinstance(sweeps, dict) else list(enumerate(sweeps))
    if len(items) == 1:
        return 0.0
    all_peaks = []
    for _, sw in items:
        p = find_peaks(sw.x, sw.y)
        if len(p) < 2:
            raise InsufficientData("fewer than 2 peaks detected in a sweep")
        all_peaks.append(p)
    anchors = all_peaks[0]
    match_window = 0.5 * float(np.median(np.diff(anchors)))
    worst = 0.0
    matched_any = False
    for a in anchors:
        group = [a]
        ok = True
        for p in all_peaks[1:]:
            j = int(np.argmin(np.abs(p - a)))
            if abs(p[j] - a) > match_window:
                ok = False
                break
            group.append(p[j])
        if not ok:
            continue
        matched_any = True
        g = np.array(group)
        worst = max(worst, float((g.max() - g.min()) / g.mean()))
    if not matched_any:
        raise InsufficientData("no peak group matched across all sweeps")
    return worst


def boxcar_period_average(x, y, period):
    """Average y over sliding one-period windows; returns (centers, averages).

    Removes a known oscillation so the non-oscillatory part can be compared
    against closed forms.  Window endpoints are interpolated so every average
    covers exactly one period; centers too close to the data edges are dropped.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    centers = []
    means = []
    for i in range(len(x)):
        lo = x[i] - period / 2.0
        hi = x[i] + period / 2.0
        if lo < x[0] or hi > x[-1]:
            continue
        m = (x > lo) & (x < hi)
        xs = np.concatenate([[lo], x[m], [hi]])
        ys = np.concatenate([[np.interp(lo, x, y)], y[m], [np.interp(hi, x, y)]])
        centers.append(x[i])
        means.append(float(np.trapezoid(ys, xs) / period))
    return np.array(centers), np.array(means)
