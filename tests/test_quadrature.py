import math

import numpy as np

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
