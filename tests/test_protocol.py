import math

import numpy as np
import pytest

from kzquench import evolver as ev
from kzquench import lattice as lat
from kzquench import protocol as proto


def test_round_trip_structure():
    sch = proto.round_trip(0.0, 10.0, 1.0, g_i=10.0, g_f=10.0)
    assert sch.t_start == -100.0 and sch.t_end == 100.0
    g, jx, jy = sch.params_at(0.0)
    assert g == 0.0 and jx == 1.0 and jy == 0.0
    g, _, _ = sch.params_at(-5.0)
    assert abs(g - 0.5) < 1e-14


def test_round_trip_final_time():
    sch = proto.round_trip(0.0, 10.0, 1.0, g_f=10.0)
    assert abs(sch.t_end - 100.0) < 1e-12
    # t_f = (g_f - g_rt) tau_Q' in general
    sch2 = proto.round_trip(0.5, 4.0, 2.0, g_f=3.0)
    assert abs(sch2.t_end - (3.0 - 0.5) * 8.0) < 1e-12


def test_round_trip_crossings():
    g_rt, tau, R = 0.25, 7.0, 1.5
    sch = proto.round_trip(g_rt, tau, R)
    ts = [c.t for c in sch.crossings]
    assert abs(ts[0] + (1 - g_rt) * tau) < 1e-14
    assert abs(ts[1] - (1 - g_rt) * tau * R) < 1e-14
    for c in sch.crossings:
        g, _, _ = sch.params_at(c.t)
        assert abs(g - 1.0) < 1e-13


def test_round_trip_critical_turn_flag():
    sch = proto.round_trip(1.0, 5.0, 1.0)
    assert sch.labels["g_rt"] == 1.0
    assert sch.crossings[0].t == 0.0 and sch.crossings[1].t == 0.0


def test_round_trip_matches_stated_parameterization():
    # g(t) = g_rt - t/tau (t <= 0), g_rt + t/tau' (t > 0)
    g_rt, tau, R = 0.3, 11.0, 1.7
    sch = proto.round_trip(g_rt, tau, R)
    for t in np.linspace(sch.t_start, 0.0, 17):
        g, _, _ = sch.params_at(float(t))
        assert abs(g - (g_rt - t / tau)) < 1e-14
    for t in np.linspace(0.0, sch.t_end, 17):
        g, _, _ = sch.params_at(float(t))
        assert abs(g - (g_rt + t / (R * tau))) < 1e-14 * max(1.0, abs(g))


def test_round_trip_validation():
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError):
            proto.round_trip(bad, 10.0, 1.0)
    with pytest.raises(ValueError):
        proto.round_trip(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        proto.round_trip(0.0, 10.0, 1.0, g_i=0.5)


def test_reversed_round_trip():
    sch = proto.reversed_round_trip(1.5, 4.0, 1.0)
    assert abs((sch.t_end - sch.t_start) - 3.0 * 4.0) < 1e-13
    g, _, _ = sch.params_at(0.0)
    assert g == 1.5
    g0, _, _ = sch.params_at(sch.t_end)
    assert g0 == 0.0
    # two-branch parameterization gbar(t)
    tau, R, g_rt = 4.0, 1.0, 1.5
    for t in np.linspace(-g_rt * tau, 0.0, 9):
        g, _, _ = sch.params_at(float(t))
        assert abs(g - (g_rt + t / tau)) < 1e-14
    with pytest.raises(ValueError):
        proto.reversed_round_trip(0.9, 4.0, 1.0)


def test_quarter_turn():
    sch = proto.quarter_turn(1.5, 3.0, 1.0, jy_initial=10.0)
    g, jx, jy = sch.params_at(sch.t_start)
    assert (g, jx, jy) == (1.5, 1.0, 10.0)
    g, _, jy = sch.params_at(0.0)
    assert g == 1.5 and jy == 0.0
    assert abs(sch.t_end - 1.5 * 3.0) < 1e-14
    # J_y = 0 exactly on the second ramp
    for t in (0.5, 2.0, 4.0):
        _, _, jy = sch.params_at(t)
        assert jy == 0.0
    labels = {c.label for c in sch.crossings}
    assert any("Jy=Jx" in s for s in labels)
    assert len(sch.crossings) == 3
    # g_qt > 2: only the two q_c = 0 crossings
    sch2 = proto.quarter_turn(2.5, 3.0, 1.0)
    assert len(sch2.crossings) == 2
    # g_qt = 2 crosses the tricritical point
    sch3 = proto.quarter_turn(2.0, 3.0, 1.0)
    assert any("tricritical" in c.label for c in sch3.crossings)
    with pytest.raises(ValueError):
        proto.quarter_turn(0.9, 3.0, 1.0)


def test_one_way():
    sch = proto.one_way(10.0, 0.0, 50.0)
    assert abs((sch.t_end - sch.t_start) - 500.0) < 1e-12
    rev = proto.one_way(0.0, 10.0, 50.0)
    g, _, _ = rev.params_at(rev.t_end)
    assert g == 10.0
    with pytest.raises(ValueError):
        proto.one_way(1.0, 1.0, 5.0)


def test_eval_continuity_at_joints():
    sch = proto.round_trip(0.4, 6.0, 2.0)
    for t in [s.t_start for s in sch.segments] + [sch.t_end]:
        g, jx, jy = sch.params_at(t)
        assert np.isfinite(g)
    # exact equality at the joint from both segments
    j = sch.segments[0].t_end
    assert sch.segments[0].eval(j)[0] == sch.segments[1].eval(j)[0]


def test_eval_slopes_by_finite_difference():
    tau, R = 9.0, 1.5
    sch = proto.round_trip(0.0, tau, R)
    h = 1e-6
    g1 = sch.params_at(-5.0 + h)[0] - sch.params_at(-5.0 - h)[0]
    assert abs(g1 / (2 * h) + 1.0 / tau) < 1e-9
    g2 = sch.params_at(5.0 + h)[0] - sch.params_at(5.0 - h)[0]
    assert abs(g2 / (2 * h) - 1.0 / (R * tau)) < 1e-9


def test_eval_out_of_span():
    sch = proto.one_way(10.0, 0.0, 5.0)
    with pytest.raises(ValueError):
        sch.params_at(-1.0)
    with pytest.raises(ValueError):
        sch.params_at(sch.t_end + 1.0)


def test_schedule_refuses_jx_other_than_one():
    # J_x is the energy unit: the evolver and the closed forms assume it is 1
    with pytest.raises(ValueError, match="J_x"):
        proto.Schedule((proto.Segment(0.0, 3.0, (0.5, 1.0, 0.0), (0.5, 2.0, 0.0)),), "ramp")
    with pytest.raises(ValueError, match="J_x"):
        proto.Schedule((proto.Segment(0.0, 3.0, (0.5, 2.0, 0.0), (0.5, 2.0, 0.0)),), "ramp")


def test_segment_duration_limit():
    # a segment may last MAX_DURATION and no longer; at that length the
    # evolver's first step still clears its underflow floor
    sch = proto.one_way(10.0, 0.0, 1e9)
    assert sch.segments[0].duration == proto.MAX_DURATION == 1e10
    (res,) = ev.evolve([(sch, [0.5])], ev.SolverOptions(rel_tol=1e-6, abs_tol=1e-6))
    assert res.meta["accepted"] > 0
    longer = math.nextafter(proto.MAX_DURATION, math.inf)
    with pytest.raises(ValueError, match="more than 1e\\+10"):
        proto.Segment(0.0, longer, (10.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="more than 1e\\+10"):
        proto.round_trip(0.0, 1e300)


def test_segment_refuses_non_finite_parameters():
    for bad in (math.nan, math.inf, -math.inf):
        for where in range(6):
            params = [10.0, 1.0, 0.0, 0.0, 1.0, 0.0]
            params[where] = bad
            with pytest.raises(ValueError, match="parameters must be finite"):
                proto.Segment(0.0, 10.0, tuple(params[:3]), tuple(params[3:]))


def test_segment_rate_limit():
    # a parameter may change at MAX_RATE and no faster; at that rate the squared
    # speed of (epsilon_q, delta_q) stays finite, and the segment evolves
    # without a floating-point warning (the suite makes RuntimeWarning an error)
    seg = proto.Segment(0.0, 1e-149, (10.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    assert max(abs(r) for r in seg.rates()) == proto.MAX_RATE == 1e150
    assert np.all(np.isfinite(seg.affine(np.linspace(0.01, 3.13, 64))))
    sch = proto.Schedule((proto.Segment(-100.0, 0.0, (10.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
                          proto.Segment(0.0, 1e-149, (0.0, 1.0, 0.0), (10.0, 1.0, 0.0))), "kick")
    (res,) = ev.evolve([(sch, [0.3, 1.5, 2.8])], ev.SolverOptions(1e-6, 1e-8))
    assert np.all(np.isfinite(res.p)) and res.meta["lab_modes"] == 3
    with pytest.raises(ValueError, match="rate 1.1e\\+150, more than 1e\\+150"):
        proto.Segment(0.0, 1e-149, (11.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    # R = 1e-300 and tau_q = 1e-300 ask for rates near 1e300, whose squares overflow
    for args in ((0.0, 10.0, 1e-300), (0.0, 1e-300)):
        with pytest.raises(ValueError, match="more than 1e\\+150"):
            proto.round_trip(*args)


def test_segment_parameter_limit():
    # |g|, |J_x| and |J_y| may reach MAX_PARAM and no more; a dwell at the limit
    # evolves without a floating-point warning (the suite makes RuntimeWarning an error)
    big = proto.MAX_PARAM
    assert big == 1e6
    sch = proto.Schedule((proto.Segment(0.0, 10.0, (big, 1.0, 0.0), (big, 1.0, 0.0)),), "dwell")
    (res,) = ev.evolve([(sch, [0.3, 1.5, 2.8])])
    assert np.all(np.isfinite(res.p))
    over = math.nextafter(big, math.inf)
    for where in range(6):
        params = [10.0, 1.0, 0.0, 0.0, 1.0, 0.0]
        params[where] = -over if where % 2 else over
        with pytest.raises(ValueError, match="more than 1e\\+06"):
            proto.Segment(0.0, 10.0, tuple(params[:3]), tuple(params[3:]))
    # a dwell whose SA generator would overflow, and a ramp that would never end
    for start, end in (((1e70, 1.0, 0.0), (1e70, 1.0, 0.0)), ((1e20, 1.0, 0.0), (5e19, 1.0, 0.0))):
        with pytest.raises(ValueError, match="more than 1e\\+06"):
            proto.Segment(0.0, 10.0, start, end)
    with pytest.raises(ValueError, match="more than 1e\\+06"):
        proto.round_trip(0.0, 1e-61, g_i=1e70)


def test_closest_approach_matches_dense_scan():
    # on the first segment of the quarter turn both epsilon and delta move
    sch = proto.quarter_turn(1.5, 20.0)
    q = np.array([0.05, 0.4, math.acos(0.75), 1.2, 2.0, 3.0])
    scan_min, scan_expo = [], []
    for seg in sch.segments:
        om2, speed = seg.closest_approach(q)
        t = np.linspace(seg.t_start, seg.t_end, 4001)
        om2_t = np.array([np.hypot(*lat.eps_delta(*seg.eval(ti), np.cos(q), np.sin(q))) ** 2
                          for ti in t])
        assert np.all(om2 <= om2_t.min(axis=0) + 1e-12)
        assert np.max(np.abs(om2_t.min(axis=0) - om2)) < 1e-5
        eps0, delta0 = lat.eps_delta(*seg.params_start, np.cos(q), np.sin(q))
        eps1, delta1 = lat.eps_delta(*seg.params_end, np.cos(q), np.sin(q))
        rate = np.hypot(eps1 - eps0, delta1 - delta0) / seg.duration
        assert np.allclose(speed, rate, rtol=1e-12, atol=0.0)
        scan_min.append(om2_t.min(axis=0))
        scan_expo.append(math.pi * om2_t.min(axis=0) / rate)
    om2_min, expo = sch.closest_approach(q)
    assert np.max(np.abs(om2_min - np.min(scan_min, axis=0))) < 1e-5
    # the gap closes at J_y = J_x
    assert np.sqrt(sch.closest_approach([math.acos(0.75)])[0][0]) < 1e-12
    assert np.all(expo <= np.min(scan_expo, axis=0) + 1e-12)
    assert np.max(np.abs(expo - np.min(scan_expo, axis=0))) < 1e-3
