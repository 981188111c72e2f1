"""The oscillation fit of a swept defect density: period, amplitude, phase.

The fit uses variable projection: for a trial frequency the model
n(x) = x^(-1/2) (b0 + A cos(Omega x) + B sin(Omega x)) is linear, so the
baseline and quadrature amplitudes come from least squares and only Omega is
scanned (around the caller-supplied expectation, which kills frequency
aliasing) and then refined by zoomed batched scans.  This makes the fit
exact on data generated from its own model.  The benchmark and the tests
call it; the power-law, peak and period-average fits that only the
acceptance tests use live with them, in ``tests/fit_helpers.py``.
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
    rel_residual: float
    relative_amplitude: float  # amplitude / |baseline|


def _scan(x, y, omegas, exponent, harmonics):
    """The model's least squares at every trial frequency, in one batched solve.

    Returns each frequency's residual sum of squares and its coefficients
    (b0, then the cos and sin amplitudes of each harmonic).  The design
    matrices of all frequencies are stacked and each one's least squares
    comes from its normal equations; the residual is then formed from y, not
    from the normal equations, so that it keeps its precision.
    """
    base = x ** exponent
    cols = [np.broadcast_to(base, (len(omegas), len(x)))]
    for k in range(1, harmonics + 1):
        phase = np.multiply.outer(k * omegas, x)
        cols += [base * np.cos(phase), base * np.sin(phase)]
    A = np.stack(cols, axis=-1)
    At = A.transpose(0, 2, 1)
    coef = np.linalg.solve(At @ A, At @ y[:, None])
    r = y - (A @ coef)[..., 0]
    return np.einsum("gn,gn->g", r, r), coef[..., 0]


def fit_oscillation(sweep, expected_period, exponent=-0.5, harmonics=1,
                    max_residual=0.05):
    """Fit n(x) = x^exponent (b0 + M cos(Omega x + delta)) with Omega near
    2 pi / expected_period.

    The caller supplies the expected period (from the closed-form period
    operation) as initialization.  Raises InsufficientData unless the sweep
    holds one sample more than the fit's unknowns (b0, Omega and a cos/sin
    pair per harmonic) and at least 4 samples per expected period.
    ``harmonics`` adds cos/sin columns at multiples of Omega for signals
    carrying overtones (the defect-defect correlator mixes the base frequency
    with its double).  Raises FitFailure when the relative residual exceeds
    ``max_residual`` (pass None to extract a period from data whose envelope
    is not captured by the power-law baseline).
    """
    x, y = sweep.x, sweep.y
    if len(x) < 2 * harmonics + 3:
        raise InsufficientData("need >= %d samples, one more than the fit's unknowns"
                               % (2 * harmonics + 3))
    if expected_period <= 0.0 or not np.isfinite(expected_period):
        raise ValueError("expected_period must be positive and finite")
    if np.median(np.diff(x)) > expected_period / 4.0:
        raise InsufficientData("need >= 4 samples per expected period")
    omega0 = 2.0 * math.pi / expected_period
    # scan [0.5, 1.5] omega0, then zoom into the bracket of the best point
    lo, hi, n = 0.5 * omega0, 1.5 * omega0, 1201
    while hi - lo >= 1e-13 * omega0:
        grid = np.linspace(lo, hi, n)
        i = int(np.argmin(_scan(x, y, grid, exponent, harmonics)[0]))
        lo, hi, n = grid[max(i - 1, 0)], grid[min(i + 1, n - 1)], 41
    omega = 0.5 * (lo + hi)
    rss, coef = _scan(x, y, np.array([omega]), exponent, harmonics)
    b0, ac, as_ = coef[0, :3]
    amplitude = math.hypot(ac, as_)
    phase = math.atan2(-as_, ac)
    rel_residual = math.sqrt(rss[0]) / math.sqrt(float(y @ y))
    if max_residual is not None and rel_residual > max_residual:
        raise FitFailure("oscillation fit residual %.3g exceeds %.3g"
                         % (rel_residual, max_residual))
    return OscillationFit(baseline=float(b0), amplitude=float(amplitude),
                          omega=float(omega), phase=float(phase),
                          period=2.0 * math.pi / float(omega),
                          rel_residual=rel_residual,
                          relative_amplitude=float(amplitude / abs(b0)) if b0 else math.inf)

