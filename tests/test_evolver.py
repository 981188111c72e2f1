import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzquench import closedform as cf
from kzquench import edoracle as ed
from kzquench import evolver as ev
from kzquench import lattice as lat
from kzquench import protocol as proto
from kzquench.quadrature import support_panels


def _bdg_ground(g, q):
    """(u, v): the +omega eigenvector of [[eps, delta], [delta, -eps]], u >= 0."""
    eps, delta = lat.eps_delta(g, 1.0, 0.0, math.cos(q), math.sin(q))
    vec = np.linalg.eigh([[eps, delta], [delta, -eps]])[1][:, 1]
    return vec * np.sign(vec[0])


def test_sudden_limit_state_frozen():
    # tau_Q -> 0+: the state cannot follow; excitation against the new ground
    # state equals the frozen-amplitude overlap
    q = 0.9
    sch = proto.one_way(10.0, 0.2, 1e-7)
    (res,) = ev.evolve([(sch, [q])], ev.SolverOptions(1e-10, 1e-12))
    u0, v0 = _bdg_ground(10.0, q)
    assert abs(res.u[0] - u0) < 1e-5 and abs(res.v[0] - v0) < 1e-5
    uf, vf = _bdg_ground(0.2, q)
    p_frozen = abs(u0 * vf - v0 * uf) ** 2
    assert abs(res.p[0] - p_frozen) < 1e-5


def test_adiabatic_limit_gapped_mode():
    sch = proto.round_trip(0.0, 500.0, 1.0, g_i=3.0, g_f=3.0)
    (res,) = ev.evolve([(sch, [math.pi / 2])], ev.SolverOptions(1e-9, 1e-11))
    assert res.p[0] < 1e-6


def test_one_way_matches_landau_zener(fast_opts):
    # p_q ~ exp(-2 pi tau q^2) within 2% for small q with q sqrt(tau) <= 1
    tau = 20.0
    sch = proto.one_way(10.0, 0.0, tau)
    q = np.array([0.02, 0.05, 0.08, 0.1])
    (res,) = ev.evolve([(sch, q)], fast_opts)
    ref = cf.pq0(q, tau)
    assert np.max(np.abs(res.p / ref - 1.0)) < 0.02


def test_norm_conservation_along_trajectory(tight_opts):
    sch = proto.round_trip(0.0, 12.0, 1.0)
    (sp,) = ev.evolve([(sch, lat.mode_grid(128))], tight_opts)
    assert sp.norm_drift <= 10.0 * tight_opts.rel_tol
    assert np.max(np.abs(np.abs(sp.u) ** 2 + np.abs(sp.v) ** 2 - 1.0)) <= 10.0 * tight_opts.rel_tol


def test_determinism_bitwise(fast_opts):
    sch = proto.round_trip(0.0, 9.0, 1.3)
    (a,) = ev.evolve([(sch, lat.mode_grid(64))], fast_opts)
    (b,) = ev.evolve([(sch, lat.mode_grid(64))], fast_opts)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_batch_independence_of_composition(fast_opts):
    # evolving a mode alone or inside a batch gives the same result to tolerance
    sch = proto.round_trip(0.0, 9.0, 1.0)
    q = lat.mode_grid(32)
    (batch,) = ev.evolve([(sch, q)], fast_opts)
    (single,) = ev.evolve([(sch, [q[5]])], fast_opts)
    assert abs(batch.p[5] - single.p[0]) < 1e-6


@pytest.mark.parametrize("sch", [proto.round_trip(0.0, 11.0, 1.0),
                                 proto.round_trip(0.0, 11.0, 2.0),
                                 proto.quarter_turn(1.5, 5.0, 1.0, jy_initial=4.0)],
                         ids=["mirror", "R2", "quarter_turn"])
def test_frames_agree(sch, monkeypatch):
    # GAP_FLOOR = inf puts every mode in the lab frame, -inf none.  The frames
    # agree on p and on the phases of u_rot v_rot* and u v*; the amplitudes
    # themselves may differ by a global sign, where the principal Bogoliubov
    # angle jumps by pi as delta changes sign, and that sign reaches no output
    q = np.array([0.05, 0.2, 0.7])
    monkeypatch.setattr(ev, "GAP_FLOOR", math.inf)
    (lab,) = ev.evolve([(sch, q)], ev.SolverOptions(1e-10, 1e-12))
    monkeypatch.setattr(ev, "GAP_FLOOR", -math.inf)
    (adi,) = ev.evolve([(sch, q)], ev.SolverOptions(1e-10, 1e-12))
    assert lab.meta["lab_modes"] == 3 and adi.meta["lab_modes"] == 0
    assert np.max(np.abs(lab.p - adi.p)) < 1e-8
    for u, v in (("u_rot", "v_rot"), ("u", "v")):
        uv_lab = getattr(lab, u) * getattr(lab, v).conj()
        uv_adi = getattr(adi, u) * getattr(adi, v).conj()
        assert np.max(np.abs(uv_lab - uv_adi)) < 1e-8, u


def test_interference_revival_smallest_mode(fast_opts):
    # after the first ramp the q = pi/N mode saturates; after the full round
    # trip it returns almost to the ground state
    tau = 12.87
    q = math.pi / 1000.0
    half = proto.one_way(10.0, 0.0, tau)
    full = proto.round_trip(0.0, tau, 1.0)
    p_half, p_full = (r.p[0] for r in ev.evolve([(half, [q]), (full, [q])], fast_opts))
    assert p_half > 0.99
    assert p_full < 0.01


def test_interference_peak_not_at_origin(fast_opts):
    # p_q^f peaks near q* ~ sqrt(ln2/(2 pi tau)), not at q -> 0
    tau = 12.87
    (sp,) = ev.evolve([(proto.round_trip(0.0, tau, 1.0), lat.mode_grid(1000))], fast_opts)
    qpk = sp.q[int(np.argmax(sp.p))]
    assert abs(qpk - cf.qstar(tau, 1.0)) < 0.03


def test_defect_density_trivial_cases():
    spec = ev.SpectrumResult(q=np.array([0.1, 0.2]),
                             p=np.zeros(2), u=None, v=None, u_rot=None, v_rot=None)
    assert ev.defect_density(spec) == 0.0
    spec1 = ev.SpectrumResult(q=np.array([0.1, 0.2]),
                              p=np.ones(2), u=None, v=None, u_rot=None, v_rot=None)
    assert ev.defect_density(spec1) == 1.0


def test_one_way_density_baseline(fast_opts):
    tau = 50.0
    sch = proto.one_way(10.0, 0.0, tau)
    n = ev.defect_density(ev.evolve_spectra_quadrature([sch], fast_opts)[0])
    assert abs(n - 1.0 / (2.0 * math.pi * math.sqrt(2.0 * tau))) < 0.03 / (2.0 * math.pi * math.sqrt(2.0 * tau))


def test_short_wave_modes_contribute_negligibly(fast_opts):
    # Short-wave modes never cross the gap, so their only excitation is the
    # O(sin^2 q / (64 tau^2)) boundary response to the ramp's endpoint kinks
    # (measured here at the g = 0 end where omega = 2).  Their contribution to
    # n is bounded by that envelope and is a vanishing fraction of the core.
    tau = 10.0
    sch = proto.one_way(10.0, 0.0, tau)
    (sp,) = ev.evolve_spectra_quadrature([sch], fast_opts)
    m = sp.q > math.pi / 2.0
    envelope = np.sin(sp.q[m]) ** 2 / (64.0 * tau * tau)
    assert np.all(sp.p[m] <= 3.0 * envelope + 1e-12)
    tail = float(np.sum(sp.weights[m] * sp.p[m]) / math.pi)
    assert tail < 1e-4
    assert tail < 0.002 * ev.defect_density(sp)


def test_time_reversal_sanity(fast_opts):
    # a gapped mode driven out and back adiabatically returns to the ground
    # state; the residual is the turning-point kink response ~ sin^2 q/(16 tau^2)
    q = 1.2
    p200, p400 = (r.p[0] for r in ev.evolve(
        [(proto.round_trip(0.0, tau, 1.0, g_i=4.0, g_f=4.0), [q]) for tau in (200.0, 400.0)],
        fast_opts))
    assert p200 < 1e-5
    assert p400 < 0.5 * p200  # -> 0 as tau grows


def test_spectrum_rejects_bad_modes(fast_opts):
    # q must be a non-empty 1-d array inside (0, pi); NaN is outside
    sch = proto.one_way(10.0, 0.0, 5.0)
    for q in ([0.0], [math.pi], [math.nan], [], [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="quasimomenta"):
            ev.evolve([(sch, q)], fast_opts)


def test_nan_step_error_fails_at_once(monkeypatch):
    # NaN rows make every step error NaN: the controller stops at the first one
    # instead of growing h and retrying until the budget runs out.  A Segment
    # refuses NaN parameters, so the rows are made NaN where they are read
    monkeypatch.setattr(ev, "MAX_STEPS", 1000)
    affine = proto.Segment.affine
    monkeypatch.setattr(proto.Segment, "affine", lambda seg, q: affine(seg, q) * math.nan)
    with pytest.raises(ev.NumericalFailure, match=r"step at t=0 has a NaN error"):
        ev.evolve([(proto.one_way(10.0, 0.0, 1.0), [0.5])])


def test_batch_failure_names_its_schedule(monkeypatch):
    # in a batch of more than one job a failure names its job and tau_q first;
    # the first job fits the budget, the second runs out in its window
    jobs = [(proto.one_way(10.0, 0.0, 2.0), [0.5]), (proto.one_way(10.0, 0.0, 7.0), [0.5])]
    first, second = (ev.evolve([job])[0].meta for job in jobs)
    assert first["steps"] < second["steps"] - 1 and second["sa_windows"] == 1
    monkeypatch.setattr(ev, "MAX_STEPS", second["steps"] - 1)
    with pytest.raises(ev.NumericalFailure,
                       match=r"^schedule 1 \(tau_q=7\.0\): superadiabatic frame failed for modes "
                             r"\[0\]: step budget exhausted"):
        ev.evolve(jobs)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        ev.SolverOptions(rel_tol=1e-2)
    with pytest.raises(ValueError):
        ev.SolverOptions(abs_tol=0.0)
    # the tolerances are the only options
    assert [f.name for f in dataclasses.fields(ev.SolverOptions)] == ["rel_tol", "abs_tol"]


def test_evolved_bounds_sample(fast_opts):
    # evolved p within the long-wave interference bounds at R=1 (1e-3 slack)
    tau = 10.0
    (sp,) = ev.evolve([(proto.round_trip(0.0, tau, 1.0), lat.mode_grid(200))], fast_opts)
    t = cf.interference_terms_roundtrip(sp.q, tau, 1.0)
    assert np.all(sp.p >= (t.A - t.B) ** 2 - 1e-3)
    assert np.all(sp.p <= (t.A + t.B) ** 2 + 1e-3)


def test_closed_form_pqf_matches_evolved(fast_opts):
    # |p_closed - p_evolved| < 0.01 for q <= 3/sqrt(tau) at tau = 32, R = 1
    tau = 32.0
    sch = proto.round_trip(0.0, tau, 1.0)
    q = np.linspace(0.01, 3.0 / math.sqrt(tau), 40)
    (res,) = ev.evolve([(sch, q)], fast_opts)
    p_cf = cf.pqf(cf.interference_terms_roundtrip(q, tau, 1.0))
    assert np.max(np.abs(res.p - p_cf)) < 0.01


def test_failing_step_is_never_accepted():
    # no tolerance can be met: the step shrinks to h <= 1e-12 at t = 0 and
    # the solver stops there instead of accepting the failing step
    sch = proto.Schedule((proto.Segment(0.0, 1.0, (2.0, 1.0, 0.0), (0.0, 1.0, 0.0)),), "ramp")
    with pytest.raises(ev.NumericalFailure, match=r"at t=0 fails its tolerance at h=8.192e-13"):
        ev.evolve([(sch, [0.5])], ev.SolverOptions(rel_tol=1e-300, abs_tol=1e-300))


def test_step_budget_is_enforced(monkeypatch):
    # a segment that needs more than MAX_STEPS attempted steps stops with an error
    monkeypatch.setattr(ev, "MAX_STEPS", 3)
    with pytest.raises(ev.NumericalFailure, match="step budget exhausted"):
        ev.evolve([(proto.one_way(10.0, 0.0, 5.0), [0.5])])


def test_step_budget_is_the_limit(monkeypatch):
    # a segment may try exactly MAX_STEPS steps, and not one more
    job = (proto.one_way(10.0, 0.0, 5.0), [0.5])
    (res,) = ev.evolve([job])
    steps = res.meta["steps"]
    monkeypatch.setattr(ev, "MAX_STEPS", steps)
    (again,) = ev.evolve([job])
    assert again.meta["steps"] == steps and again.p.tobytes() == res.p.tobytes()
    monkeypatch.setattr(ev, "MAX_STEPS", steps - 1)
    with pytest.raises(ev.NumericalFailure, match="step budget exhausted"):
        ev.evolve([job])


def test_spans_share_the_segment_step_budget(monkeypatch):
    # this segment has two superadiabatic windows, so it runs in three spans;
    # MAX_STEPS bounds their attempted steps together, and a failure names the
    # frame of the span where the budget ran out
    job = (proto.one_way(10.0, -10.0, 10.0), [0.5, 2.5])
    (res,) = ev.evolve([job])
    steps = res.meta["steps"]
    assert res.meta["sa_windows"] == 2
    monkeypatch.setattr(ev, "MAX_STEPS", steps)
    (again,) = ev.evolve([job])
    assert again.meta == res.meta and again.p.tobytes() == res.p.tobytes()
    monkeypatch.setattr(ev, "MAX_STEPS", steps - 1)
    with pytest.raises(ev.NumericalFailure,
                       match=r"^superadiabatic frame failed for modes \[0 1\]: step budget exhausted"):
        ev.evolve([job])


def test_solver_statistics(fast_opts, monkeypatch):
    sch = proto.round_trip(0.0, 6.0, 1.0)
    (sp,) = ev.evolve_spectra_quadrature([sch], fast_opts, order=8, n_support=4)
    meta = sp.meta
    assert meta["accepted"] + meta["rejected"] == meta["steps"]
    assert meta["accepted"] > 0 and meta["rejected"] >= 0
    assert 0.0 < meta["h_min"] <= 1e-3 and meta["lab_modes"] == 0
    # the trip is a mirror, so only its first ramp is evolved: one
    # superadiabatic window there, away from the crossing
    assert meta["mirrored"] and meta["sa_windows"] == 1 and 0.5 < meta["sa_share"] < 1.0
    monkeypatch.setattr(ev, "GAP_FLOOR", math.inf)
    lab = ev.evolve([(sch, lat.mode_grid(16))], ev.SolverOptions(1e-7, 1e-9))[0].meta
    assert lab["lab_modes"] == 8 and lab["sa_windows"] == 0 and lab["sa_share"] == 0.0
    assert lab["accepted"] + lab["rejected"] == lab["steps"]


def _batch_cases():
    return [proto.round_trip(0.0, 4.0, 1.0),                 # two segments
            proto.one_way(10.0, 0.0, 5.0),                   # one segment
            proto.quarter_turn(1.5, 3.0, 1.0, jy_initial=4.0),
            proto.reversed_round_trip(1.5, 3.5, 2.0),
            # a closing gap: some modes of this one run in the lab frame
            proto.Schedule((proto.Segment(0.0, 16.0, (2.0, 1.0, 4.0), (2.0, 1.0, 0.0)),),
                           "xy_ramp", {"tau_q": 4.0}),
            proto.Schedule((proto.Segment(-30.0, 0.0, (10.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
                            proto.Segment(0.0, 9.0, (0.0, 1.0, 0.0), (3.0, 1.0, 0.0))),
                           "two_ramps", {"tau_q": 3.0}),
            # R = 1: a mirror, evolved at half the tolerance, and a trip that
            # ends elsewhere, evolved whole
            proto.reversed_round_trip(1.5, 3.0, 1.0),
            proto.round_trip(0.0, 5.0, 1.0, g_f=6.0),
            # different superadiabatic windows side by side
            proto.round_trip(0.0, 2.0, 1.0),
            proto.round_trip(0.0, 128.0, 1.0)]


@pytest.mark.parametrize("frame", ["auto", "lab", "adiabatic"])
def test_batch_bitwise_equals_solo(frame, monkeypatch):
    # every schedule in a lock-step batch gets exactly what it gets alone,
    # whatever else is in the batch and in whatever order
    floor = {"auto": ev.GAP_FLOOR, "lab": math.inf, "adiabatic": -math.inf}[frame]
    monkeypatch.setattr(ev, "GAP_FLOOR", floor)
    opts = ev.SolverOptions(1e-7, 1e-9)
    schedules = _batch_cases()
    if frame == "lab":
        schedules = schedules[:-2]  # the lab frame has no SA windows
    solo = [ev.evolve_spectra_quadrature([s], opts, order=8, n_support=4, max_r=4.0)[0]
            for s in schedules]
    for order in (1, -1):
        batch = ev.evolve_spectra_quadrature(schedules[::order], opts, order=8, n_support=4,
                                             max_r=4.0)[::order]
        for one, many in zip(solo, batch):
            for name in ("q", "weights", "p", "u", "v", "u_rot", "v_rot"):
                assert getattr(one, name).tobytes() == getattr(many, name).tobytes(), name
            assert one.norm_drift == many.norm_drift
            assert one.meta == many.meta
    if frame == "auto":
        assert solo[4].meta["lab_modes"] > 0
    assert [one.meta["mirrored"] for one in solo[6:8]] == [True, False]


@pytest.mark.parametrize("floor", [ev.GAP_FLOOR, math.inf])
def test_lab_amplitudes_rotate_the_final_basis(floor, monkeypatch):
    # (u, v) is (u_rot, v_rot) turned by the Bogoliubov angle atan2(delta, eps) / 2
    # of the schedule's final parameters, whichever frame each mode ran in
    monkeypatch.setattr(ev, "GAP_FLOOR", floor)
    q = np.array([0.05, 0.3, 0.7, 1.5, 2.5, 3.0])
    cq, sq = np.cos(q), np.sin(q)
    schedules = _batch_cases()
    for sch, res in zip(schedules, ev.evolve([(s, q) for s in schedules], ev.SolverOptions(1e-7, 1e-9))):
        eps, delta = lat.eps_delta(*sch.segments[-1].params_end, cq, sq)
        theta = 0.5 * np.arctan2(delta, eps)
        c, s = np.cos(theta), np.sin(theta)
        assert np.max(np.abs(res.u - (c * res.u_rot - s * res.v_rot))) <= 1e-15
        assert np.max(np.abs(res.v - (s * res.u_rot + c * res.v_rot))) <= 1e-15


def test_lockstep_blocks_bitwise_equal_one_block(monkeypatch):
    # a frame's groups split into blocks of a few modes give what one block gives
    jobs = [(s, [0.1, 0.7, 2.0]) for s in _batch_cases()]
    jobs.append((proto.round_trip(0.0, 6.0, 1.0), lat.mode_grid(24)))  # larger than a block
    opts = ev.SolverOptions(1e-7, 1e-9)
    whole = ev.evolve(jobs, opts)
    calls = []
    lockstep = ev._lockstep
    monkeypatch.setattr(ev, "_LOCKSTEP_BLOCK", 7)
    monkeypatch.setattr(ev, "_lockstep", lambda frame, groups: (calls.append(len(groups)),
                                                                  lockstep(frame, groups)))
    blocked = ev.evolve(jobs, opts)
    assert len(calls) > 2 and max(calls) == 2
    for one, many in zip(whole, blocked):
        for name in ("p", "u", "v", "u_rot", "v_rot"):
            assert getattr(one, name).tobytes() == getattr(many, name).tobytes(), name
        assert one.norm_drift == many.norm_drift and one.meta == many.meta


def _dwell_trip():
    """Ramp g 10 -> 0, dwell at g = 0, ramp back: a palindrome of three segments."""
    return proto.Schedule((proto.Segment(-50.0, 0.0, (10.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
                           proto.Segment(0.0, 4.0, (0.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
                           proto.Segment(4.0, 54.0, (0.0, 1.0, 0.0), (10.0, 1.0, 0.0))),
                          "dwell", {"tau_q": 5.0})


def _four_ramp_palindrome():
    """Ramp g 10 -> 2 -> 0 and back the same way: segments 2 and 3 retrace 1 and 0."""
    points = [(-50.0, 10.0), (-10.0, 2.0), (0.0, 0.0), (10.0, 2.0), (50.0, 10.0)]
    return proto.Schedule(tuple(proto.Segment(t0, t1, (g0, 1.0, 0.0), (g1, 1.0, 0.0))
                                for (t0, g0), (t1, g1) in zip(points[:-1], points[1:])),
                          "palindrome", {"tau_q": 5.0})


@pytest.mark.parametrize("schedule, mirrored", [
    (proto.round_trip(0.0, 10.0, 1.0), True),
    (proto.round_trip(0.5, 10.0, 1.0, g_i=6.0, g_f=6.0), True),
    (proto.reversed_round_trip(1.5, 10.0, 1.0), True),
    (proto.round_trip(0.0, 10.0, 1.3), False),
    (proto.round_trip(0.0, 10.0, 1.0, g_f=9.0), False),
    (proto.quarter_turn(1.5, 10.0, 1.0), False),
    (proto.one_way(10.0, 0.0, 10.0), False),
    (_dwell_trip(), True),                          # the dwell is evolved, the ramp reused
    (_four_ramp_palindrome(), True)])
def test_mirror_detection(schedule, mirrored):
    # a palindrome evolves its first half once, at half the tolerance, and a
    # middle segment of its own at the full tolerance: its steps are those parts'
    opts = ev.SolverOptions(1e-6, 1e-8)
    (res,) = ev.evolve([(schedule, [0.3])], opts)
    assert res.meta["mirrored"] == mirrored
    if mirrored:
        segs = schedule.segments
        half = ev.SolverOptions(0.5 * opts.rel_tol, 0.5 * opts.abs_tol)
        parts = [(seg, half) for seg in segs[:len(segs) // 2]]
        parts += [(segs[len(segs) // 2], opts)] if len(segs) % 2 else []
        steps = [ev.evolve([(proto.Schedule((seg,), "part"), [0.3])], o)[0].meta["steps"]
                 for seg, o in parts]
        assert res.meta["steps"] == sum(steps)


# g at which the gap of the N = 8 mode q = 3 pi / 8 (5 pi / 8 for -g) closes
# as J_y crosses J_x = 1
_G_CLOSING = 2.0 * math.cos(3.0 * math.pi / 8.0)
_G = st.floats(-3.0, 4.0)
_JY = st.floats(0.0, 3.0)
# a very short segment moves too fast for any mode: the LAB_EXPONENT cut; one
# shorter than the step floor takes no step, in whatever frame it runs
_DURATION = st.one_of(st.floats(0.2, 3.0), st.just(1e-9), st.just(1e-14))


@st.composite
def _chains(draw):
    """Breakpoints (g, J_y) and durations of a chain of 1 to 4 linear segments.

    A step ramps to a new point, where g may be +-_G_CLOSING, dwells, or
    ramps J_y alone (across 1 at +-_G_CLOSING the gap of one mode closes).
    A chain may end in the classical Ising limit g = J_y = 0, or be a
    palindrome whose second half retraces its first, around a dwell or not.
    """
    shape = draw(st.sampled_from(["chain", "palindrome", "palindrome around a dwell"]))
    most = {"chain": 4, "palindrome": 2, "palindrome around a dwell": 1}[shape]
    half = draw(st.integers(1, most))
    points, durations = [(draw(_G), draw(_JY))], []
    for _ in range(half):
        g, jy = points[-1]
        step = draw(st.sampled_from(["ramp", "dwell", "J_y ramp"]))
        if step == "ramp":
            points.append((draw(st.one_of(_G, st.sampled_from([_G_CLOSING, -_G_CLOSING]))),
                           draw(_JY)))
        else:
            points.append((g, jy if step == "dwell" else draw(_JY)))
        durations.append(draw(_DURATION))
    if shape == "chain" and draw(st.booleans()):
        points[-1] = (0.0, 0.0)
    elif shape == "palindrome":
        points += points[-2::-1]
        durations += durations[::-1]
    elif shape == "palindrome around a dwell":
        points += points[::-1]
        durations += [draw(_DURATION)] + durations
    return points, durations


def _chain_schedule(points, durations):
    t, segments = 0.0, []
    for (g0, jy0), (g1, jy1), d in zip(points[:-1], points[1:], durations):
        segments.append(proto.Segment(t, t + d, (g0, 1.0, jy0), (g1, 1.0, jy1)))
        t += d
    return proto.Schedule(tuple(segments), "chain")


# chains (breakpoints, durations) that the fuzzing below always includes
_CHAIN_EXAMPLES = {
    # transposed reuse at tol / 2, around an evolved dwell
    "palindrome": ([(4.0, 0.0), (0.3, 1.5), (0.3, 1.5), (4.0, 0.0)], [3.0, 1.0, 3.0]),
    # a dwell, ending where kinks count the excitations
    "dwell": ([(4.0, 0.0), (0.5, 0.5), (0.5, 0.5), (0.0, 0.0)], [3.0, 2.0, 3.0]),
    # J_y crosses 1 at g = _G_CLOSING: q = 3 pi / 8 runs in the lab frame
    "closing gap": ([(3.0, 0.2), (_G_CLOSING, 0.2), (_G_CLOSING, 2.5), (0.0, 0.0)],
                    [2.0, 2.0, 2.0]),
    # every mode runs the 1e-9 ramp in the lab frame
    "very short": ([(4.0, 0.0), (0.0, 0.0), (3.0, 2.0)], [3.0, 1e-9]),
    # a ramp shorter than the step floor: a sudden quench in both evolutions
    "below the floor": ([(4.0, 0.0), (0.0, 0.0), (3.0, 2.0)], [3.0, 1e-14]),
    # a dwell shorter than the step floor: its SA window ends at once, with no step
    "dwell below the floor": ([(4.0, 0.0), (0.5, 0.5), (0.5, 0.5), (0.0, 0.0)],
                              [3.0, 1e-14, 3.0]),
    # a ramp below the floor too small for the LAB_EXPONENT cut: its adiabatic-frame
    # span takes the lab frame's change (the adiabatic frame's alone moved n by 1.9e-8)
    "nudge below the floor": ([(4.0, 0.0), (1.0, 0.0), (1.0 + 1e-7, 0.0), (0.0, 0.0)],
                              [3.0, 1e-14, 3.0]),
}


def test_chain_examples_reach_the_table():
    metas = {name: ev.evolve([(_chain_schedule(*chain), lat.mode_grid(8))])[0].meta
             for name, chain in _CHAIN_EXAMPLES.items()}
    assert [m["mirrored"] for m in metas.values()] == [True] + [False] * 6
    assert [m["lab_modes"] for m in metas.values()] == [0, 0, 1, 4, 4, 0, 0]


@settings(max_examples=100)
@given(chain=_chains())
@example(chain=_CHAIN_EXAMPLES["palindrome"])
@example(chain=_CHAIN_EXAMPLES["dwell"])
@example(chain=_CHAIN_EXAMPLES["closing gap"])
@example(chain=_CHAIN_EXAMPLES["very short"])
@example(chain=_CHAIN_EXAMPLES["below the floor"])
@example(chain=_CHAIN_EXAMPLES["dwell below the floor"])
@example(chain=_CHAIN_EXAMPLES["nudge below the floor"])
def test_table_matches_exact_diagonalization(chain):
    # N = 8 grid modes through the transfer table against the exact many-body
    # evolution, at default tolerances
    points, durations = chain
    sch = _chain_schedule(points, durations)
    (sp,) = ev.evolve([(sch, lat.mode_grid(8))])
    exact = ed.evolve_exact(sch, 8)
    for name in ("p", "u", "v", "u_rot", "v_rot"):
        assert np.all(np.isfinite(getattr(sp, name))), name
    assert abs(ev.fermion_density(sp) - ed.measure_defects(exact, "paramagnetic")) <= 1e-9
    assert abs(ed.parity_expectation(exact) - 1.0) <= 1e-9
    if points[-1] == (0.0, 0.0):
        assert abs(ev.defect_density(sp) - ed.measure_defects(exact, "ferromagnetic")) <= 1e-9
    # a segment that retraces an earlier one backwards is a transposed key
    segs = sch.segments
    assert sp.meta["mirrored"] == any(
        s.duration == t.duration and (s.params_start, s.params_end) == (t.params_end, t.params_start)
        for k, t in enumerate(segs) for s in segs[:k])


# At the acceptance suite's TIGHT tolerances, the worst cases over the chains
# below were 2.4e-10 in p and 8.5e-10 in the column (bounds 2e-9 and 5e-9).
@settings(max_examples=100)
@given(chain=_chains())
@example(chain=_CHAIN_EXAMPLES["palindrome"])
@example(chain=_CHAIN_EXAMPLES["dwell"])
@example(chain=_CHAIN_EXAMPLES["closing gap"])
@example(chain=_CHAIN_EXAMPLES["very short"])
@example(chain=_CHAIN_EXAMPLES["below the floor"])
@example(chain=_CHAIN_EXAMPLES["dwell below the floor"])
@example(chain=_CHAIN_EXAMPLES["nudge below the floor"])
def test_time_reversal_transposes_the_transfer(chain):
    # H(t) of a mode is real symmetric, so the chain run backwards has the
    # transposed transfer: a column (a, b) becomes (a, -b*), and p is the
    # same.  The reversal is a job of its own, so it shares no transfer entry
    # with the forward chain.
    points, durations = chain
    q = lat.mode_grid(24)       # holds the N = 8 modes 3 pi / 8 and 5 pi / 8
    fwd, rev = ev.evolve([(_chain_schedule(points, durations), q),
                          (_chain_schedule(points[::-1], durations[::-1]), q)],
                         ev.SolverOptions(1e-9, 1e-11))
    assert np.max(np.abs(fwd.p - rev.p)) <= 2e-9
    assert max(np.max(np.abs(fwd.u_rot - rev.u_rot)),
               np.max(np.abs(fwd.v_rot + rev.v_rot.conj()))) <= 5e-9


def _split_second_ramp(schedule):
    """The same path as a three-segment Schedule that is not a palindrome."""
    s1, s2 = schedule.segments
    tm = 0.5 * (s2.t_start + s2.t_end)
    pm = s2.eval(tm)
    return proto.Schedule((s1, proto.Segment(s2.t_start, tm, s2.params_start, pm),
                           proto.Segment(tm, s2.t_end, pm, s2.params_end)), "split", schedule.labels)


@pytest.mark.parametrize("mirror", [proto.round_trip(0.0, 32.0, 1.0),
                                    proto.reversed_round_trip(1.5, 8.0, 1.0)])
def test_mirror_composition_matches_full_evolution(mirror):
    # U = U1^T U1 from the first half against both halves evolved step by step
    path = _split_second_ramp(mirror)
    q, _ = support_panels(mirror, order=4, n_support=3)
    opts = ev.SolverOptions(1e-12, 1e-14)
    composed, full = ev.evolve([(mirror, q), (path, q)], opts)
    assert composed.meta["mirrored"] and not full.meta["mirrored"]
    assert composed.meta["steps"] < full.meta["steps"]
    assert max(np.max(np.abs(composed.u - full.u)), np.max(np.abs(composed.v - full.v))) <= 1e-9
    assert np.max(np.abs(composed.p - full.p)) <= 1e-9
    assert composed.norm_drift <= 10.0 * opts.rel_tol


@pytest.mark.parametrize("schedule", [proto.quarter_turn(2.0, 10.0, 1.0, jy_initial=6.0),
                                      proto.round_trip(0.0, 10.0, 2.0)])
def test_transfers_compose_bitwise(schedule):
    # a schedule with no reused segment ends at the product of its segments'
    # transfers, each segment evolved alone as a one-segment schedule
    q, _ = support_panels(schedule)
    opts = ev.SolverOptions(1e-8, 1e-10)
    (whole,) = ev.evolve([(schedule, q)], opts)
    parts = ev.evolve([(proto.Schedule((seg,), "part"), q) for seg in schedule.segments], opts)
    a, b = parts[0].u_rot, parts[0].v_rot
    for part in parts[1:]:
        ta, tb = part.u_rot, part.v_rot
        a, b = ta * a - tb.conj() * b, tb * a + ta.conj() * b
    assert whole.u_rot.tobytes() == a.tobytes() and whole.v_rot.tobytes() == b.tobytes()
    assert whole.meta["steps"] == sum(part.meta["steps"] for part in parts)
    assert not whole.meta["mirrored"] and (whole.meta["lab_modes"] > 0) == (schedule.kind == "quarter_turn")


def test_transposed_transfer_of_its_own_column():
    # a mirror's end state from the transposed apply is (a^2 + b^2, 2i Im(a* b)) exactly
    rng = np.random.default_rng(5)
    a = rng.normal(size=256) + 1j * rng.normal(size=256)
    b = rng.normal(size=256) + 1j * rng.normal(size=256)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    a, b = a / norm, b / norm
    x, y = ev._apply_transfer(a, b, a, b, True)
    assert np.all(x == a * a + b * b) and np.all(y == 2j * (a.conj() * b).imag)


@pytest.mark.parametrize("frame", ["adiabatic", "sa", "lab"])
def test_frame_round_trip_is_identity(frame):
    # entering a frame and leaving it at the same t changes nothing
    rng = np.random.default_rng(3)
    seg = proto.quarter_turn(1.5, 5.0, 1.0, jy_initial=4.0).segments[0]
    modes = seg.affine(rng.uniform(0.01, math.pi - 0.01, 64))
    dt = rng.uniform(0.0, seg.duration, 64)
    a = rng.normal(size=64) + 1j * rng.normal(size=64)
    b = rng.normal(size=64) + 1j * rng.normal(size=64)
    p, q = ev._frame(frame, modes, dt)
    a2, b2 = ev._apply_transfer(p.conj(), -q, *ev._apply_transfer(p, q, a, b, False), False)
    assert np.max(np.abs(a2 - a)) < 1e-15 and np.max(np.abs(b2 - b)) < 1e-15


@pytest.mark.parametrize("schedule", [proto.round_trip(0.0, 10.0, 1.0),
                                      proto.quarter_turn(1.5, 5.0, 1.0, jy_initial=4.0)])
def test_sa_generator_matches_finite_difference(schedule):
    # each superadiabatic turn by angle(t) = atan2(-w, z) / 2 of the frame it starts
    # from gives the generator (0, angle', hypot(z, w)).  The first ("sa1") turns
    # the adiabatic frame's (-theta', omega) by alpha; the "sa" frame's generator
    # turns the first one's (w1, z1) by beta.  Compare each rate with a central
    # difference of its angle.  The generators (w, z) read from the segment
    # constants are (-delta, eps) in the lab frame and (-theta', omega) in the
    # adiabatic frame, with eps and delta from the schedule's parameters at t
    q = np.array([0.05, 0.3, 1.0, 2.0, 3.0])
    cq, sq = np.cos(q), np.sin(q)
    for seg in schedule.segments:
        modes = seg.affine(q)
        epsdot, deltadot = lat.eps_delta(*seg.rates(), cq, sq)
        for x in (0.1, 0.5, 0.9):
            dt = x * seg.duration
            h = 1e-4 * seg.duration
            for inner, outer in (("adiabatic", "sa1"), ("sa1", "sa")):
                angle = []
                for j in (-2, -1, 1, 2):
                    w_in, z_in = ev._generator(inner, modes, dt + j * h)
                    angle.append(0.5 * np.arctan2(-w_in, z_in))
                fd = (angle[0] - 8 * angle[1] + 8 * angle[2] - angle[3]) / (12 * h)
                w, z = ev._generator(outer, modes, dt)
                w_in, z_in = ev._generator(inner, modes, dt)
                assert np.allclose(w, fd, rtol=1e-6, atol=1e-12 * np.max(np.abs(w_in)))
                assert np.allclose(z, np.hypot(z_in, w_in), rtol=1e-14)
            w_ad, z_ad = ev._generator("adiabatic", modes, dt)
            eps, delta = lat.eps_delta(*seg.eval(seg.t_start + dt), cq, sq)
            om2 = eps * eps + delta * delta
            assert np.allclose(z_ad, np.sqrt(om2), rtol=1e-13)
            assert np.allclose(w_ad, -(eps * deltadot - delta * epsdot) / (2 * om2), rtol=1e-12)
            w_lab, z_lab = ev._generator("lab", modes, dt)
            assert np.allclose(w_lab, -delta, rtol=1e-13, atol=1e-13)
            assert np.allclose(z_lab, eps, rtol=1e-13, atol=1e-13)


def test_magnus_apply_is_the_exact_exponential():
    # one lab-frame apply with Magnus vectors from phi = 0 up to 1e5: the half-angle
    # tangent gives the cos/sin form of exp(-i Omega.sigma) to 1e-15, keeps the norm
    # to 2e-15 and gives the identity at phi = 0
    rng = np.random.default_rng(11)
    lam = np.concatenate(([0.0], np.logspace(-9, 5, 57)))
    n = lam.size
    # (eps, delta) of length lam with a slope of 1e-6 lam: phi is lam to 1e-3
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    modes = np.zeros((8, n))
    modes[:4] = lam * np.array([np.cos(angle), np.sin(angle), *(1e-6 * rng.normal(size=(2, n)))])
    e0, d0, e1, d1 = modes[:4]
    h = 1.0
    dt1, dt2, hh, k = ev._GL_LO * h, ev._GL_HI * h, 0.5 * h, math.sqrt(3.0) * h * h / 6.0
    rows = np.array([[dt1], [dt2], [hh], [k]]) * np.ones(n)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    a, b = a / norm, b / norm
    am, bm = ev._magnus_apply("lab", modes, rows, a, b)
    # the Magnus vector of the generators (0, -delta, eps) at the two Gauss points
    w1, z1 = -(d0 + d1 * rows[0]), e0 + e1 * rows[0]
    w2, z2 = -(d0 + d1 * rows[1]), e0 + e1 * rows[1]
    dx, dy, dz = k * (w2 * z1 - z2 * w1), hh * (w1 + w2), hh * (z1 + z2)
    phi = np.sqrt(dx * dx + dy * dy + dz * dz)
    assert phi[0] == 0.0 and np.allclose(phi, lam, rtol=1e-3) and np.all(dx[1:] != 0.0)
    c = np.cos(phi)
    s = np.sin(phi) / np.where(phi > 0.0, phi, 1.0)
    s[0] = 1.0
    ref_a = (c - 1j * s * dz) * a - (s * dy + 1j * s * dx) * b
    ref_b = (s * dy - 1j * s * dx) * a + (c + 1j * s * dz) * b
    assert np.max(np.abs(am - ref_a)) <= 1e-15 and np.max(np.abs(bm - ref_b)) <= 1e-15
    assert np.max(np.abs(np.abs(am) ** 2 + np.abs(bm) ** 2 - 1.0)) <= 2e-15
    assert am[0] == a[0] and bm[0] == b[0]


def test_roundtrip_density_accuracy_gate():
    # the evolver's accuracy gate: |dn|/n at rel_tol 1e-8 over 13 round trips,
    # against references frozen from rel_tol 1e-13, abs_tol 1e-15 runs.  The error
    # scatters with the step sequence, so the median and the worst case are bounded
    # (measured: 7.6e-10 and 2.42e-9 over 13,163 steps)
    with open(Path(__file__).parent / "data" / "roundtrip_density_refs.json") as fh:
        refs = json.load(fh)
    schedules = [proto.round_trip(0.0, tau, 1.0) for tau in refs["tau_q"]]
    spectra = ev.evolve_spectra_quadrature(schedules, ev.SolverOptions(1e-8, 1e-10))
    dn = np.abs([ev.defect_density(sp) / n - 1.0
                 for sp, n in zip(spectra, refs["defect_density"])])
    assert np.median(dn) <= 2e-9 and np.max(dn) <= 4e-9


def test_nonmirror_density_accuracy_gate():
    # the same gate for schedules that are no mirror: the quarter turn at
    # g_qt = 2 (the tricritical path of c07), 1.5 and 2.5, and the R = 2 round
    # trip, against references frozen from rel_tol 1e-13, abs_tol 1e-15 runs
    # (measured: median 1.21e-9 and worst 3.64e-9 over 21,017 steps)
    with open(Path(__file__).parent / "data" / "nonmirror_density_refs.json") as fh:
        refs = json.load(fh)
    build = {"quarter_turn": lambda g, tau, R: proto.quarter_turn(g, tau, R, jy_initial=6.0),
             "round_trip": proto.round_trip}
    schedules = [build[kind](g, tau, R)
                 for kind, g, tau, R in zip(refs["protocol"], refs["g"], refs["tau_q"], refs["R"])]
    spectra = ev.evolve_spectra_quadrature(schedules, ev.SolverOptions(1e-8, 1e-10))
    assert not any(sp.meta["mirrored"] for sp in spectra)
    dn = np.abs([ev.defect_density(sp) / n - 1.0
                 for sp, n in zip(spectra, refs["defect_density"])])
    assert np.median(dn) <= 2e-9 and np.max(dn) <= 5e-9


def test_sweep_range_density_accuracy_gate():
    # the same gate on the tau_Q range of the benchmark sweep, tau = 10.0, 10.25,
    # ..., 13.5, where the first superadiabatic frame let |dn|/n reach 1.33e-8
    # (tau = 10.5; median 9.9e-10).  Measured: median 8.2e-10 and worst 1.32e-9
    # over 9,408 steps
    with open(Path(__file__).parent / "data" / "sweep_density_refs.json") as fh:
        refs = json.load(fh)
    schedules = [proto.round_trip(0.0, tau, 1.0) for tau in refs["tau_q"]]
    spectra = ev.evolve_spectra_quadrature(schedules, ev.SolverOptions(1e-8, 1e-10))
    dn = np.abs([ev.defect_density(sp) / n - 1.0
                 for sp, n in zip(spectra, refs["defect_density"])])
    assert np.median(dn) <= 2e-9 and np.max(dn) <= 4e-9


@pytest.mark.parametrize("schedule, share", [
    (proto.round_trip(0.0, 10.0, 1.0), 0.7),
    (proto.round_trip(0.5, 128.0, 2.0), 0.7),
    # g stays within [0, 1.5]: every mode is too close to a crossing
    (proto.reversed_round_trip(1.5, 8.0, 1.0), 0.0),
    (proto.quarter_turn(1.5, 10.0, 1.0), 0.6)])
def test_sa_windows_exclude_gap_minima(schedule, share):
    # no window holds a mode's gap minimum, and inside every window each mode's
    # 1.5 |omega'| / (omega^2 + theta'^2) stays at or below the threshold
    q = np.linspace(0.01, math.pi - 0.01, 40)
    cq, sq = np.cos(q), np.sin(q)
    total = 0.0
    for seg in schedule.segments:
        windows = [(ta, tb) for ta, tb, frame in ev._spans([ev._Transfer(seg, q, "")])[0]
                   if frame == "sa"]
        om2, _ = seg.closest_approach(q)
        e0, d0 = lat.eps_delta(*seg.params_start, cq, sq)
        e1, d1 = lat.eps_delta(*seg.rates(), cq, sq)
        t_min = seg.t_start - (e0 * e1 + d0 * d1) / (e1 * e1 + d1 * d1)
        for ta, tb in windows:
            assert seg.t_start <= ta < tb <= seg.t_end
            assert not np.any((t_min >= ta) & (t_min <= tb))
            t = np.linspace(ta, tb, 801)[:, None]
            eps, delta = e0 + e1 * (t - seg.t_start), d0 + d1 * (t - seg.t_start)
            w2 = eps * eps + delta * delta
            thetadot = (eps * d1 - delta * e1) / (2 * w2)
            omdot = (eps * e1 + delta * d1) / np.sqrt(w2)
            factor = 1.5 * np.abs(omdot) / (w2 + thetadot ** 2)
            assert np.max(factor) <= ev.SA_THRESHOLD * (1 + 1e-9)
            total += tb - ta
        assert all(b0[1] < b1[0] for b0, b1 in zip(windows[:-1], windows[1:]))
    assert total >= share * (schedule.t_end - schedule.t_start)


def test_sa_windows_of_a_batch_are_those_of_each_case():
    # one bisection over the modes of every entry gives each entry's spans
    # exactly as alone; no modes give no span, and modes that stand still
    # (a dwell) exclude nothing
    dwell = proto.Segment(0.0, 5.0, (0.5, 1.0, 0.0), (0.5, 1.0, 0.0))
    cases = [(dwell, np.array([0.5, 1.5])), (proto.one_way(10.0, 0.0, 10.0).segments[0], np.array([]))]
    for sch in (proto.round_trip(0.0, 10.0, 1.0), proto.quarter_turn(2.0, 10.0, 1.0, jy_initial=6.0),
                proto.round_trip(0.5, 32.0, 2.0)):
        q, _ = support_panels(sch)
        cases += [(seg, qs) for seg in sch.segments for qs in (q, q[::5], q[-3:])]
    entries = [ev._Transfer(seg, q, "") for seg, q in cases]
    spans = ev._spans(entries)
    assert spans == [ev._spans([e])[0] for e in entries]
    assert spans[0] == [(0.0, 5.0, "sa")] and spans[1] == [] and ev._spans([]) == []
    assert sum(frame == "sa" for s in spans[2:] for _, _, frame in s) >= 10


@pytest.mark.parametrize("schedule", [
    *(proto.round_trip(0.0, 10.0 + 0.35 * i, 1.0) for i in range(10)),   # the benchmark sweep
    proto.quarter_turn(2.0, 10.0, 1.0, jy_initial=6.0),                   # has lab-frame modes
    proto.round_trip(0.0, 10.0, 2.0),
    proto.one_way(10.0, -10.0, 10.0),
    proto.round_trip(0.0, 10.0, 1e-10),                                   # an all-lab second ramp
    proto.Schedule((proto.Segment(0.0, 5.0, (0.5, 1.0, 0.0), (0.5, 1.0, 0.0)),), "dwell")])
def test_spans_tile_each_segment(schedule, monkeypatch):
    # every group is one of its entry's spans, with at least one mode, and the
    # spans of each evolved segment's modes are contiguous in exact floats and
    # cover the segment: lab-frame modes in one span, the others cut at their SA
    # windows, each window a span of its own and no two of them adjacent
    seen, planned = [], []
    lockstep, spans_of = ev._lockstep, ev._spans
    monkeypatch.setattr(ev, "_lockstep", lambda frame, groups: (
        seen.extend((frame, g) for g in groups), lockstep(frame, groups)))
    monkeypatch.setattr(ev, "_spans", lambda entries: (planned.extend(entries), spans_of(entries))[1])
    q, _ = support_panels(schedule)
    (res,) = ev.evolve([(schedule, q)], ev.SolverOptions(1e-8, 1e-10))
    assert sorted(map(id, (g for e in planned for g in e.groups))) == sorted(id(g) for _, g in seen)
    for e in planned:
        assert [(*g.span, g.frame) for g in e.groups] == spans_of([e])[0]
    runs = {}
    for frame, g in seen:
        assert g.frame == frame and g.t == g.span[1] and len(g.q) > 0
        runs.setdefault((id(g.segment), g.q.tobytes()), []).append(g)
    for spans in runs.values():
        spans.sort(key=lambda g: g.span)
        seg, frames = spans[0].segment, [g.frame for g in spans]
        assert spans[0].span[0] == seg.t_start and spans[-1].span[1] == seg.t_end
        assert all(g0.span[1] == g1.span[0] for g0, g1 in zip(spans[:-1], spans[1:]))
        if "lab" in frames:
            assert frames == ["lab"]
            continue
        assert ("sa", "sa") not in zip(frames[:-1], frames[1:])
    # an entry whose modes all run in the lab frame has that one span alone, as
    # the sudden second ramp of the R = 1e-10 trip does
    all_lab = [e for e in planned if np.all(e.lab)]
    assert all([(*g.span, g.frame) for g in e.groups] == [(e.segment.t_start, e.segment.t_end, "lab")]
               for e in all_lab)
    assert len(all_lab) == (schedule.labels.get("R") == 1e-10)
    assert res.meta["sa_windows"] == sum(frame == "sa" for frame, _ in seen)
    assert res.meta["lab_modes"] == sum(len(g.q) for frame, g in seen if frame == "lab")


def test_sa_windows_accuracy_tau32():
    # rel_tol 1e-8 against a rel_tol 1e-12 reference on 32 Gauss nodes of the
    # tau_Q = 32 round trip, a mirror of which only the first ramp is evolved.
    # With SA windows: 676 steps, |dn|/n = 1.3e-9 and a largest amplitude error
    # of 9.7e-9 (both ramps evolved, the second cut in two so that it is not
    # reused: 1,187 steps, 3.1e-9 and 1.8e-8; with the first SA frame in the
    # windows 866 steps, 9.8e-10 and 3.3e-8); in the adiabatic frame alone, both
    # ramps: 4,482 steps, 3.3e-9 and 1.7e-8.
    sch = proto.round_trip(0.0, 32.0, 1.0)
    q, w = support_panels(sch, order=4, n_support=3)
    (ref,) = ev.evolve([(sch, q)], ev.SolverOptions(1e-12, 1e-14))
    (res,) = ev.evolve([(sch, q)], ev.SolverOptions(1e-8, 1e-10))
    n, n_ref = np.sum(w * res.p), np.sum(w * ref.p)
    assert abs(n - n_ref) / n_ref <= 1e-8
    assert max(np.max(np.abs(res.u - ref.u)), np.max(np.abs(res.v - ref.v))) <= 1e-7
    assert res.meta["steps"] <= 4476 / 2 and res.meta["sa_windows"] == 1 and res.meta["mirrored"]
