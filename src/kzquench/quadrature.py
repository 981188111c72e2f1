"""Gauss-Legendre panel quadrature over the positive Brillouin zone.

The excitation probability decays like a Gaussian away from the critical
quasimomenta, so uniform grids waste points.  Panels are refined on the mode
regions that actually transit: for each mode the Landau-Zener adiabaticity
exponent pi * min_t omega_q(t)^2 / |d(eps,delta)/dt|, minimized over the
segments, comes in closed form from ``Schedule.closest_approach`` (the
parameters are affine in t), and panels concentrate where that exponent is
small.  A panel-width cap resolves cos(qr)/sin(qr) factors when correlators
at large r are requested.
"""

from __future__ import annotations

import functools
import math

import numpy as np

EXPONENT_CAP = 40.0  # modes with LZ exponent above this never get excited at double precision


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order (read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_panels(edges, order=16):
    """Composite Gauss-Legendre nodes and weights for the given panel edges."""
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(order)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    nodes = 0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w[None, :]
    return nodes.ravel(), weights.ravel()


def support_regions(schedule):
    """(q_lo, q_hi) intervals on (0, pi) where modes get appreciably excited."""
    qs = np.linspace(0.0, math.pi, 4001)[1:-1]
    e = schedule.closest_approach(qs)[1]
    mask = e < EXPONENT_CAP
    if not np.any(mask):
        return []
    # each run of the mask starts where it steps up and ends before it steps down
    steps = np.diff(mask.astype(np.int8), prepend=0, append=0)
    regions = zip(qs[np.flatnonzero(steps > 0)], qs[np.flatnonzero(steps < 0) - 1])
    # widen each region by 30% and merge
    padded = []
    for lo, hi in regions:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * 1.3 + 0.02 * (hi - lo + 1e-3)
        padded.append([max(mid - half, 0.0), min(mid + half, math.pi)])
    padded.sort()
    merged = [padded[0]]
    for lo, hi in padded[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def support_panels(schedule, order=16, n_support=12, max_r=0.0):
    """Quadrature nodes/weights on (0, pi) adapted to the schedule's mode support.

    ``max_r`` caps the panel width so that oscillatory cos(qr)/sin(qr) factors
    up to distance r are resolved by the Gauss-Legendre order.
    """
    regions = support_regions(schedule)
    width_cap = np.inf
    if max_r > 0.0:
        # keep >= ~6 nodes per oscillation wavelength 2 pi / r
        width_cap = order * math.pi / (3.0 * max_r)
    edges = [0.0]
    def add_panels(lo, hi, n):
        n = max(n, int(math.ceil((hi - lo) / width_cap)) if np.isfinite(width_cap) else n)
        for e in np.linspace(lo, hi, n + 1)[1:]:
            if e > edges[-1] + 1e-12:
                edges.append(e)
    cursor = 0.0
    for lo, hi in regions:
        if lo > cursor + 1e-9:
            add_panels(cursor, lo, max(2, int((lo - cursor) / 0.6) + 1))
        add_panels(max(lo, edges[-1]), hi, n_support)
        cursor = hi
    if cursor < math.pi - 1e-9:
        add_panels(cursor, math.pi, max(4, int((math.pi - cursor) / 0.6) + 1))
    return gauss_legendre_panels(np.array(edges), order=order)
