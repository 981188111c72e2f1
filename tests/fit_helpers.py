"""Fits that only the tests use: power laws, amplitude slopes, peak collapse,
period averaging.

They state no formula of the paper and no CLI run calls them, so they live
with the tests; the oscillation fit that the sweep reports stays in
``kzquench.analysis``.
"""

import math

import numpy as np

from kzquench import closedform
from kzquench.analysis import InsufficientData, Sweep


def fit_power_law(sweep):
    """(prefactor, exponent) of y = prefactor * x^exponent by log-log least squares."""
    x, y = sweep.x, sweep.y
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fit requires positive data")
    A = np.column_stack([np.ones_like(x), np.log(x)])
    coef, _, _, _ = np.linalg.lstsq(A, np.log(y), rcond=None)
    return float(math.exp(coef[0])), float(coef[1])



def amplitude_slope(taus):
    """Slope of log M against log ln tau_Q for the closed-form amplitude M at R = 1.

    The dephasing of the oscillation amplitude gives slope -3/2 at large tau.
    """
    M = np.array([closedform.density_prediction_roundtrip(t, 1.0).M for t in taus])
    return fit_power_law(Sweep(np.log(taus), M))[1]

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
