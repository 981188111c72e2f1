"""Special-function kernels used by the closed-form predictions.

Only a handful of kernels are required (the gamma phase on the line a+ix,
digamma at 1/2, real Airy functions), so they are implemented here rather
than pulled in from an external package, and the runtime depends on numpy
alone; the real gamma function is the standard library's ``math.gamma``.
"""

from __future__ import annotations

import math

import numpy as np

GAMMA_E = 0.5772156649015328606065  # Euler-Mascheroni constant
LN2 = math.log(2.0)

# Series/asymptotic crossover, fixed by dual-evaluation agreement (see
# tests/test_specfun.py::test_airy_crossover_dual_method_agreement).
AIRY_SERIES_CUTOFF = 7.2        # |x| above which the oscillatory asymptotics are used
_STIRLING_RADIUS = 10.0         # |z| from which arg_gamma uses the Stirling series

def constants():
    """Return (gamma_E, digamma(1/2), Gamma(7/6)) to >= 12 significant digits.

    digamma(1/2) = -gamma_E - 2 ln 2 exactly.
    """
    return GAMMA_E, -GAMMA_E - 2.0 * LN2, math.gamma(7.0 / 6.0)


def arg_gamma(a, x):
    """arg Gamma(a + i x) for real a > 0 (vectorized in x), by upward
    recurrence into |z| >= 10 and the Stirling series there."""
    x = np.asarray(x, dtype=float)
    z = a + 1j * x
    shift = np.zeros_like(x)
    for _ in range(12):
        need = np.abs(z) < _STIRLING_RADIUS
        if not np.any(need):
            break
        shift = shift - np.where(need, np.angle(z), 0.0)
        z = np.where(need, z + 1.0, z)
    # Bernoulli terms B_2..B_10
    zi = 1.0 / z
    zi2 = zi * zi
    corr = zi * (1.0 / 12.0 + zi2 * (-1.0 / 360.0 + zi2 * (1.0 / 1260.0
           + zi2 * (-1.0 / 1680.0 + zi2 * (1.0 / 1188.0)))))
    val = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + corr
    out = val.imag + shift
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Airy functions
# ---------------------------------------------------------------------------

def _airy_series(x):
    """Ai, Bi by the Maclaurin series (reliable for |x| <= ~6)."""
    x = np.asarray(x, dtype=float)
    # y'' = x y with two independent solutions f (f(0)=1, f'(0)=0) and
    # g (g(0)=0, g'(0)=1); a_{n+3} = a_n / ((n+3)(n+2)).
    f = np.ones_like(x)
    g = x.copy()
    tf = np.ones_like(x)   # current f term, power n
    tg = x.copy()          # current g term, power n+1
    x3 = x ** 3
    n = 0
    for _ in range(80):
        tf = tf * x3 / ((n + 3.0) * (n + 2.0))
        tg = tg * x3 / ((n + 4.0) * (n + 3.0))
        f += tf
        g += tg
        n += 3
        if np.all(np.abs(tf) < 1e-18) and np.all(np.abs(tg) < 1e-18):
            break
    c1 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))   # Ai(0)
    c2 = 1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))   # -Ai'(0)
    return c1 * f - c2 * g, math.sqrt(3.0) * (c1 * f + c2 * g)


def _airy_asymptotic_neg(x):
    """Oscillatory asymptotics for Ai, Bi at x <= -AIRY_SERIES_CUTOFF."""
    z = -np.asarray(x, dtype=float)
    zeta = (2.0 / 3.0) * z ** 1.5
    nterms = 14
    u = np.zeros(nterms)
    u[0] = 1.0
    for k in range(1, nterms):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
    zi = 1.0 / zeta
    # Alternating even/odd tails: P = sum (-1)^k u_{2k} zeta^{-2k}, etc.
    pu = np.zeros_like(z)
    qu = np.zeros_like(z)
    for k in range(nterms - 1, -1, -1):
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2 == 0:
            pu = pu + sign * u[k] * zi ** k
        else:
            qu = qu + sign * u[k] * zi ** k
    ang = zeta - math.pi / 4.0
    c, s = np.cos(ang), np.sin(ang)
    rt = 1.0 / (math.sqrt(math.pi) * z ** 0.25)
    return rt * (c * pu + s * qu), rt * (-s * pu + c * qu)


def airy_ai_bi(x):
    """(Ai(x), Bi(x)) for real x <= AIRY_SERIES_CUTOFF, abs error <= 1e-10 on [-1e3, 0]."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    if np.any(x > AIRY_SERIES_CUTOFF):
        raise ValueError(
            "airy evaluation requested at x > %.1f, outside the supported domain"
            % AIRY_SERIES_CUTOFF
        )
    out = [np.empty_like(x) for _ in range(2)]
    ser = x >= -AIRY_SERIES_CUTOFF
    if np.any(ser):
        for o, v in zip(out, _airy_series(x[ser])):
            o[ser] = v
    if np.any(~ser):
        for o, v in zip(out, _airy_asymptotic_neg(x[~ser])):
            o[~ser] = v
    if scalar:
        return tuple(float(o[0]) for o in out)
    return tuple(out)
