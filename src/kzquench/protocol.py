"""Piecewise-linear quench schedules for the two-ramp protocols.

A schedule is an ordered list of contiguous segments, each interpolating the
Hamiltonian parameters (g, J_x, J_y) linearly in time.  J_x is the energy
unit and is pinned to 1: a schedule with J_x != 1 at any breakpoint is
refused when it is built.  Along each segment the BdG
coefficients (epsilon_q, delta_q) are then affine in t.  Builders are provided
for the round-trip, reversed round-trip, quarter-turn and one-way protocols;
any other path is a ``Schedule`` of ``Segment``s built directly.  Quench
times follow the convention that a ramp "at rate 1/tau" changes its driven
parameter by 1 per tau time units, and R = tau_Q' / tau_Q is the ratio of the
quench times of the two ramps.

Schedules carry the quantum-critical-point crossing times computed at
construction; the oscillation-period formulas depend on this crossing
structure, so having them attached helps diagnostics.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import eps_delta

# Protocol defaults: "large enough" initial parameters.  g_i = 10 keeps the
# initial excitation below ~1e-40 for tau_q >= 1 and changes the final defect
# density by < 0.1% compared with doubling it.
DEFAULT_G_INITIAL = 10.0
DEFAULT_G_FINAL = 10.0
DEFAULT_JY_INITIAL = 10.0
# Longest segment.  The step controller refuses steps below 1e-13 of a
# segment's duration and starts at h = 1e-3, so past 1e10 every evolution
# would stop at its first step with "step underflow".
MAX_DURATION = 1e10


@dataclass(frozen=True)
class Segment:
    """One linear ramp of (g, J_x, J_y) over [t_start, t_end]."""

    t_start: float
    t_end: float
    params_start: tuple
    params_end: tuple

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("segment must have t_end > t_start")
        if self.duration > MAX_DURATION:
            raise ValueError("segment lasts %g, more than %g time units"
                             % (self.duration, MAX_DURATION))

    @property
    def duration(self):
        return self.t_end - self.t_start

    def rates(self):
        """d/dt of (g, J_x, J_y) on this segment."""
        d = self.duration
        return tuple((e - s) / d for s, e in zip(self.params_start, self.params_end))

    def eval(self, t):
        x = (np.asarray(t, dtype=float) - self.t_start) / self.duration
        # convex form: exact at both endpoints
        return tuple(s * (1.0 - x) + e * x for s, e in zip(self.params_start, self.params_end))

    def affine(self, q):
        """Per-mode (e0, d0, e1, d1, v2, s_v) of (epsilon_q, delta_q) on this segment.

        epsilon = e0 + e1 (t - t_start) and delta = d0 + d1 (t - t_start),
        with (e0, d0) from the starting parameters and (e1, d1) from the rates;
        v2 = e1^2 + d1^2 is the squared speed, and omega_q^2 is smallest at the
        vertex t = t_start + s_v on the whole line (s_v = 0 where v2 = 0).
        """
        q = np.asarray(q, dtype=float)
        c, s = np.cos(q), np.sin(q)
        e0, d0 = eps_delta(*self.params_start, c, s)
        e1, d1 = eps_delta(*self.rates(), c, s)
        v2 = e1 * e1 + d1 * d1
        s_v = np.where(v2 > 0.0, -(e0 * e1 + d0 * d1) / np.where(v2 > 0, v2, 1.0), 0.0)
        return e0, d0, e1, d1, v2, s_v

    def closest_approach(self, q):
        """(smallest omega_q^2, speed |d(epsilon_q, delta_q)/dt|) on this segment, per mode."""
        e0, d0, e1, d1, v2, s_v = self.affine(q)
        tmin = np.clip(s_v, 0.0, self.duration)
        om2 = (e0 + e1 * tmin) ** 2 + (d0 + d1 * tmin) ** 2
        return om2, np.sqrt(v2)


@dataclass(frozen=True)
class Crossing:
    """A quantum-critical-point crossing: time, critical quasimomentum, label."""

    t: float
    q_c: float
    label: str


@dataclass(frozen=True)
class Schedule:
    """Contiguous piecewise-linear path of (g, J_x, J_y)."""

    segments: tuple
    kind: str
    labels: dict = field(default_factory=dict)
    crossings: tuple = ()

    def __post_init__(self):
        for seg in self.segments:
            if seg.params_start[1] != 1.0 or seg.params_end[1] != 1.0:
                raise ValueError("J_x is the reference energy scale and must be 1 "
                                 "at every breakpoint")
        for a, b in zip(self.segments[:-1], self.segments[1:]):
            if a.t_end != b.t_start or a.params_end != b.params_start:
                raise ValueError("segments must be contiguous in time and parameters")

    @property
    def t_start(self):
        return self.segments[0].t_start

    @property
    def t_end(self):
        return self.segments[-1].t_end

    @property
    def tau_q(self):
        return self.labels.get("tau_q")

    def params_at(self, t):
        """(g, J_x, J_y) at time t as floats; raises if t is outside the schedule span."""
        t = float(t)
        if not self.t_start <= t <= self.t_end:
            raise ValueError("t outside schedule span [%g, %g]" % (self.t_start, self.t_end))
        k = bisect.bisect_right([s.t_start for s in self.segments[1:]], t)
        return tuple(float(v) for v in self.segments[k].eval(t))


def _validated_positive(name, value):
    if not value > 0.0:
        raise ValueError("%s must be > 0, got %r" % (name, value))
    return float(value)


def round_trip(g_rt, tau_q, R=1.0, g_i=DEFAULT_G_INITIAL, g_f=DEFAULT_G_FINAL):
    """Round-trip quench: g ramps g_i -> g_rt (rate 1/tau_q, ending at t = 0),
    then g_rt -> g_f (rate 1/(R tau_q)).

    The turning point g_rt must lie in [0, 1]; g_rt = 1 is allowed and is the
    critical turn (both crossings coincide at t = 0).
    """
    tau_q = _validated_positive("tau_q", tau_q)
    R = _validated_positive("R", R)
    if not 0.0 <= g_rt <= 1.0:
        raise ValueError("g_rt must lie in [0, 1], got %r" % (g_rt,))
    if not (g_i > 1.0 and g_f > 1.0):
        raise ValueError("g_i and g_f must be > 1 (paramagnetic start/end)")
    tau_qp = R * tau_q
    seg1 = Segment(-(g_i - g_rt) * tau_q, 0.0, (g_i, 1.0, 0.0), (g_rt, 1.0, 0.0))
    seg2 = Segment(0.0, (g_f - g_rt) * tau_qp, (g_rt, 1.0, 0.0), (g_f, 1.0, 0.0))
    crossings = (
        Crossing(-(1.0 - g_rt) * tau_q, 0.0, "g=1 (ramp down)"),
        Crossing((1.0 - g_rt) * tau_qp, 0.0, "g=1 (ramp up)"),
    )
    labels = {"tau_q": tau_q, "R": R, "g_rt": g_rt, "g_i": g_i, "g_f": g_f}
    return Schedule((seg1, seg2), "round_trip", labels, crossings)


def reversed_round_trip(g_rt, tau_q, R=1.0):
    """Reversed round-trip: g ramps 0 -> g_rt over (-g_rt tau_q, 0], then back to 0.

    Starts and ends in the classical Ising limit g = 0, where kinks along x
    count the excitations exactly; g_rt must exceed 1 so both ramps cross the
    critical point.
    """
    tau_q = _validated_positive("tau_q", tau_q)
    R = _validated_positive("R", R)
    if not g_rt > 1.0:
        raise ValueError("g_rt must be > 1 for the reversed protocol, got %r" % (g_rt,))
    tau_qp = R * tau_q
    seg1 = Segment(-g_rt * tau_q, 0.0, (0.0, 1.0, 0.0), (g_rt, 1.0, 0.0))
    seg2 = Segment(0.0, g_rt * tau_qp, (g_rt, 1.0, 0.0), (0.0, 1.0, 0.0))
    crossings = (
        Crossing(-(g_rt - 1.0) * tau_q, 0.0, "g=1 (ramp up)"),
        Crossing((g_rt - 1.0) * tau_qp, 0.0, "g=1 (ramp down)"),
    )
    labels = {"tau_q": tau_q, "R": R, "g_rt": g_rt}
    return Schedule((seg1, seg2), "reversed_round_trip", labels, crossings)


def quarter_turn(g_qt, tau_q, R=1.0, jy_initial=DEFAULT_JY_INITIAL):
    """Quarter-turn quench on the XY chain.

    First J_y ramps jy_initial -> 0 at rate 1/tau_q with g fixed at g_qt, then
    g ramps g_qt -> 0 at rate 1/(R tau_q) with J_y = 0, ending in the
    classical Ising limit.
    """
    tau_q = _validated_positive("tau_q", tau_q)
    R = _validated_positive("R", R)
    if not g_qt > 1.0:
        raise ValueError("g_qt must be > 1, got %r" % (g_qt,))
    if not jy_initial > max(1.0, g_qt - 1.0):
        raise ValueError("jy_initial must start deep in the y-FM phase")
    tau_qp = R * tau_q
    seg1 = Segment(-jy_initial * tau_q, 0.0, (g_qt, 1.0, jy_initial), (g_qt, 1.0, 0.0))
    seg2 = Segment(0.0, g_qt * tau_qp, (g_qt, 1.0, 0.0), (0.0, 1.0, 0.0))
    crossings = [Crossing(-(g_qt - 1.0) * tau_q, 0.0, "g=Jx+Jy (Jy ramp)")]
    if g_qt < 2.0:
        crossings.append(Crossing(-tau_q, math.acos(g_qt / 2.0), "Jy=Jx boundary"))
    elif g_qt == 2.0:
        crossings.append(Crossing(-tau_q, 0.0, "tricritical point"))
    crossings.append(Crossing((g_qt - 1.0) * tau_qp, 0.0, "g=1 (g ramp)"))
    labels = {"tau_q": tau_q, "R": R, "g_qt": g_qt, "jy_initial": jy_initial}
    return Schedule((seg1, seg2), "quarter_turn", labels, tuple(crossings))


def one_way(g_i, g_f, tau_q):
    """Single linear ramp of the transverse field, either direction."""
    tau_q = _validated_positive("tau_q", tau_q)
    if g_i == g_f:
        raise ValueError("one_way requires g_i != g_f")
    duration = abs(g_f - g_i) * tau_q
    seg = Segment(0.0, duration, (g_i, 1.0, 0.0), (g_f, 1.0, 0.0))
    crossings = ()
    if min(g_i, g_f) < 1.0 < max(g_i, g_f):
        tc = duration * (1.0 - g_i) / (g_f - g_i)
        crossings = (Crossing(tc, 0.0, "g=1"),)
    labels = {"tau_q": tau_q, "R": 1.0, "g_i": g_i, "g_f": g_f}
    return Schedule((seg,), "one_way", labels, crossings)

