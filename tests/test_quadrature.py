import math

import numpy as np
import pytest

from kzquench import protocol as proto
from kzquench import quadrature as quad


def test_gauss_legendre_panels_exactness():
    # degree-31 polynomial integrated exactly by 16-point panels
    q, w = quad.gauss_legendre_panels([0.0, 1.0, 3.0], order=16)
    val = float(np.sum(w * q ** 31))
    assert abs(val - 3.0 ** 32 / 32.0) < 1e-9 * 3.0 ** 32 / 32.0


def test_lz_exponent_ising_matches_formula():
    # single g-ramp: exponent is 2 pi tau sin^2 q
    tau = 17.0
    sch = proto.one_way(10.0, 0.0, tau)
    q = np.linspace(0.01, 1.0, 40)
    e = sch.closest_approach(q)[1]
    assert np.max(np.abs(e - 2.0 * math.pi * tau * np.sin(q) ** 2)) < 1e-9


def test_lz_exponent_no_crossing_is_large():
    sch = proto.one_way(10.0, 2.0, 15.0)  # stays gapped for small q
    e = sch.closest_approach(np.array([0.05]))[1]
    # closest approach omega ~ 2(g_end - 1): exponent ~ 2 pi tau (g_end-1)^2
    assert e[0] > 50.0


def test_support_panels_weights_cover_zone():
    sch = proto.round_trip(0.0, 25.0, 1.0)
    q, w = quad.support_panels(sch)
    assert np.all(w > 0)
    assert abs(np.sum(w) - math.pi) < 1e-12
    assert q[0] > 0.0 and q[-1] < math.pi
    # refinement concentrates points at small q for this protocol
    assert np.mean(q < 4.0 / math.sqrt(25.0)) > 0.5


def test_support_panels_max_r_caps_width():
    sch = proto.round_trip(0.0, 25.0, 1.0)
    q1, _ = quad.support_panels(sch)
    q2, _ = quad.support_panels(sch, max_r=300.0)
    assert len(q2) > len(q1)
    # largest node gap resolves sin(q r) at r = 300
    gap = np.max(np.diff(q2))
    assert gap < 2.0 * math.pi / 300.0


def test_quarter_turn_support_includes_interior_crossing():
    g_qt = 1.5
    sch = proto.quarter_turn(g_qt, 20.0, 1.0)
    regions = quad.support_regions(sch)
    qc = math.acos(g_qt / 2.0)
    assert any(lo <= qc <= hi for lo, hi in regions)
    assert any(lo < 0.05 for lo, _ in regions)


def _regions_one_index_at_a_time(schedule):
    """support_regions with its runs of the mask found by walking the indices."""
    qs = np.linspace(0.0, math.pi, 4001)[1:-1]
    idx = np.flatnonzero(schedule.closest_approach(qs)[1] < quad.EXPONENT_CAP)
    if not len(idx):
        return []
    runs, start = [], idx[0]
    for prev, i in zip(idx[:-1], idx[1:]):
        if i != prev + 1:
            runs.append((qs[start], qs[prev]))
            start = i
    runs.append((qs[start], qs[idx[-1]]))
    padded = []
    for lo, hi in runs:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * 1.3 + 0.02 * (hi - lo + 1e-3)
        padded.append([max(mid - half, 0.0), min(mid + half, math.pi)])
    padded.sort()
    merged = [padded[0]]
    for lo, hi in padded[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


@pytest.mark.parametrize("schedule", [
    *(proto.round_trip(0.0, 10.0 + 0.35 * i, 1.0) for i in range(10)),
    proto.round_trip(0.5, 32.0, 2.0), proto.reversed_round_trip(1.5, 8.0, 1.0),
    proto.quarter_turn(1.5, 20.0, 1.0), proto.quarter_turn(2.0, 10.0, 1.0, jy_initial=6.0),
    proto.one_way(10.0, 2.0, 15.0), proto.one_way(0.0, 10.0, 0.01)])
def test_support_panels_bitwise_as_built_one_index_at_a_time(schedule, monkeypatch):
    # the runs of the mask from np.diff and Gauss-Legendre rules built once per
    # order give the nodes and weights bit for bit
    cases = [(order, max_r) for order in (4, 16) for max_r in (0.0, 40.0, 300.0)]
    fast = [quad.support_panels(schedule, order=o, max_r=r) for o, r in cases]
    monkeypatch.setattr(quad, "support_regions", _regions_one_index_at_a_time)
    monkeypatch.setattr(quad, "_leggauss", np.polynomial.legendre.leggauss)
    for (o, r), (q, w) in zip(cases, fast):
        q_ref, w_ref = quad.support_panels(schedule, order=o, max_r=r)
        assert q.tobytes() == q_ref.tobytes() and w.tobytes() == w_ref.tobytes()
