"""Time-dependent Bogoliubov-de Gennes evolution of quasimomentum modes.

Each positive-q mode obeys

    i d/dt (u, v) = [[eps_q(t), delta_q(t)], [delta_q(t), -eps_q(t)]] (u, v)

with eps and delta read off the instantaneous schedule parameters (delta is
time dependent for the quarter-turn protocol, where J_y varies).  This module
is the exact numerical oracle against which every closed form is checked.

Integrator.  The system is a driven two-level problem whose solution rotates
at frequency ~2 omega_q, so a plain embedded Runge-Kutta pair has to resolve
every oscillation even deep in the adiabatic regime and is far too slow for
the tau_Q sweeps.  Instead each accepted step applies the exact exponential of
a 4th-order Magnus expansion on su(2) (two Gauss-Legendre samples of the
coefficients plus their commutator), which is exact for a constant Hamiltonian
no matter the step size; steps are controlled by step doubling.  In the
instantaneous-eigenbasis (adiabatic) frame the generator is
(0, -theta_dot, omega), and the coupling theta_dot is small away from the
critical crossings.  Far from them it still sets the step, riding on a large
omega, so each group also has superadiabatic (SA) windows per segment: the
time spans where 1.5 |omega_dot| / (omega^2 + theta_dot^2) <= SA_THRESHOLD
for all its modes, on the far side of each mode's gap minimum.  There the
state steps in the second SA frame ("sa").  Since eps and delta are affine
on a segment, the first SA frame has the generator
(0, alpha_dot, sqrt(omega^2 + theta_dot^2)) with the much smaller
alpha_dot = -1.5 theta_dot omega_dot / (omega^2 + theta_dot^2); the second
turns that one's coupling away in turn, and its coupling beta_dot is
smaller again, 34 times over a window of the benchmark sweep.  Inside a
window the step error counts SA_ERROR_WEIGHT times.  Modes whose
gap closes on a segment (possible only at isolated quasimomenta of the XY
protocols) fall back to the lab frame on that segment, where the equation is
smooth and there are no windows, and so do all modes of a segment too fast
for any of them to follow (every Landau-Zener exponent below LAB_EXPONENT,
as on the second ramp of the tau_Q = 10 round trip with R <= 1e-8).  A lab span shorter
than the step floor takes no step: its transfer is its frame change alone,
the sudden quench.

Frames.  Each frame is one per-mode SU(2) rotation out of the eigenbasis
(``_frame``), read off the segment's affine rows: the "adiabatic" frame is
the eigenbasis itself; the "sa" frame is W^dagger exp(i alpha sigma_x) with
alpha = atan2(theta_dot, omega) / 2, into the first SA frame, followed by
W^dagger exp(i beta sigma_x) with beta = atan2(-alpha_dot,
sqrt(omega^2 + theta_dot^2)) / 2; and the "lab" frame is W^dagger R(theta),
which carries the lab amplitudes as W^dagger (u, v), with the Bogoliubov
angle theta = atan2(delta, eps) / 2.  W = diag(e^{-i pi/4}, e^{i pi/4})
puts every frame's generator in the one form (0, w, z), so one Magnus step
serves all three.  Every step and frame change is exactly unitary, so norm
conservation is automatic.

Step arithmetic.  A group reads its modes' rows on its segment once, when
its batch starts, from ``Segment.affine``: eps and delta are affine in the
time dt since the segment's start, omega^2 = v2 (dt - s_v)^2 + m2 is a
quadratic with its vertex at s_v, and theta_dot = c / omega^2 with the
constant c = (eps delta_dot - delta eps_dot) / 2.
A step evaluates these at its Gauss points.  Its exponential takes cos(phi)
and sin(phi) from one t = tan(phi / 2), as (1 - t^2) / (1 + t^2) and
2 t / (1 + t^2): numpy runs float64 tan on SIMD units but cos and sin one
element at a time, and the two forms agree to 2.2e-16 for phi up to 1e5.

Groups and lock step.  A segment's modes are cut into spans: the modes that
run in the adiabatic frame at the edges of their SA windows, with each
window a span in the "sa" frame, and the lab-frame modes in one span of the
whole segment.  A group is one span of one segment's modes in one frame.
The modes of a group share one adaptive step: its controller accepts a step
only if every mode of the group meets the tolerance (a step that fails at
h <= 1e-12 raises NumericalFailure instead).  Many groups of one frame, from
one schedule or from a whole tau_Q sweep, advance together in one loop
(``_lockstep``): each pass tries one step of every group, each at its own t
and h, on mode arrays concatenated over the groups, so numpy's per-call
overhead is paid once for the batch instead of once per span.  A group
enters its frame from the ground state (1, 0) by the frame's rotation at
its span's start, and leaves for the eigenbasis at its span's end by the
inverse, each applied as a transfer (below).  A frame's groups run in
consecutive batches of at most _LOCKSTEP_BLOCK modes, which bounds the
memory of a long sweep, and the frames run one after another.
Each group keeps its own t, h, tolerance, step counts and norm drift, and
its controller does the same scalar arithmetic as for the group alone, so
its results are bitwise the same whichever groups share the batch and in
whatever order.  There are two entry points: ``evolve`` takes given modes
of any number of schedules, and ``evolve_spectra_quadrature`` each
schedule's Gauss-Legendre panels.  A result's ``meta`` records the
attempted ``steps``, of them ``accepted`` and ``rejected``, the smallest
accepted step ``h_min``, the number of ``lab_modes`` (in the lab frame on
some segment), the number of ``sa_windows``, ``sa_share``, the share of the
schedule's time spent in them, and whether it was ``mirrored``.

Transfers.  Each mode's propagator over a span, from the eigenbasis at its
start into that at its end, is an SU(2) transfer [[a, -b*], [b, a*]], fixed
by the one column (a, b) that a group evolves from the ground state (1, 0).
A segment's transfer is the product of its spans' in time order, and a
result is the product of its segments' transfers applied to (1, 0), the
adiabatic-impulse composition of Landau-Zener-Stueckelberg interferometry
(Shevchenko, Ashhab & Nori, Phys. Rep. 492 (2010) 1).  One
``_apply_transfer`` applies them all, and also the frame rotations and the
final turn by the Bogoliubov angle into the lab frame's (u, v).
H = eps sigma_z + delta sigma_x is real symmetric, so a segment that
retraces an earlier one backwards (equal duration, start and end
parameters swapped, compared exactly) has the transposed transfer and is
not evolved again: the R = 1 round trip with g_i = g_f and the R = 1
reversed round trip evolve their first ramp only (``mirrored``).  A
transfer that enters its schedule m times brings its error in m times, so
its steps are held to rel_tol/m and abs_tol/m.  ``steps``, ``accepted``,
``rejected``, ``h_min`` and ``sa_windows`` count the spans evolved,
``sa_share`` counts each reuse, and the norm drift is the largest of the
groups' and that of the composed state.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .quadrature import support_panels

_SQRT3 = math.sqrt(3.0)
_GL_LO = 0.5 - _SQRT3 / 6.0
_GL_HI = 0.5 + _SQRT3 / 6.0
_GL_NODES = np.array([[_GL_LO], [_GL_HI]])


class NumericalFailure(RuntimeError):
    """The adaptive integrator could not reach the requested tolerance."""


# Modes whose smallest gap on a segment is at or below GAP_FLOOR integrate there
# in the lab frame, all others in the adiabatic frame (inf: all lab, -inf: none).
GAP_FLOOR = 1e-4
# A segment on which every mode's Landau-Zener exponent pi omega_min^2 / speed is
# below LAB_EXPONENT is too fast for any mode to follow: all its modes run in the
# lab frame, where the step need not resolve a crossing.  The adiabatic frame
# fails on the second ramp of the tau_Q = 10 round trip from R = 1e-10 on,
# whose largest exponent over the panels is 6.3e-9 (6.3e-7 at R = 1e-8, which
# this cut also takes); on the schedules of the benchmark and of the accuracy
# gates every segment has some exponent of 50 or more.
LAB_EXPONENT = 1e-6
# attempted steps per segment
MAX_STEPS = 2_000_000
# most modes in one lock-step batch: a frame's groups run in consecutive blocks
# of at most this many modes, so a batch holds about 40 MB of working arrays
# (about 0.6 kB per mode)
_LOCKSTEP_BLOCK = 2 ** 16


@dataclass
class SolverOptions:
    """Tolerances of the mode evolver and of the ED oracle."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3 and 0.0 < self.abs_tol <= 1e-3):
            raise ValueError("tolerances must lie in (0, 1e-3]")


@dataclass
class SpectrumResult:
    """Final amplitudes and excitation probabilities over a set of modes.

    ``u_rot``/``v_rot`` are the amplitudes rotated into the equilibrium
    quasiparticle basis of the schedule's final parameters, so that
    p = |v_rot|^2; ``weights`` is None for plain mode grids and carries
    quadrature weights for Gauss-Legendre spectra.
    """

    q: np.ndarray
    p: np.ndarray
    u: np.ndarray
    v: np.ndarray
    u_rot: np.ndarray
    v_rot: np.ndarray
    weights: np.ndarray | None = None
    norm_drift: float = 0.0
    meta: dict = field(default_factory=dict)


class StepControl:
    """The step-size policy of the mode evolver and the ED oracle.

    The caller tries a step-doubled step of h = ``clip()`` from t and passes
    its error, in units of the tolerance, to ``control``.  h starts at 1e-3
    and scales by 0.9 err^(-1/5), clamped to [0.2, 5]; a step that reaches the
    end of its span lands exactly on it.  NumericalFailure, prefixed by
    ``where``, stops a segment after MAX_STEPS tries, a step below
    1e-13 max(1, duration), a step that fails its tolerance at h <= 1e-12 and
    a step whose error is NaN.
    ``enter`` starts the segment's count of tries, ``tried``, which spans of
    one segment may share.
    """

    def __init__(self, where):
        self.where = where
        self.h = 1e-3
        self.steps = 0              # attempted, over all spans
        self.accepted = 0
        self.h_min = math.inf

    def fail(self, msg):
        return NumericalFailure("%s: %s" % (self.where, msg))

    def enter(self, t, t_end, segment):
        """Start the span [t, t_end] of ``segment`` with a fresh step budget."""
        self.h_tiny = 1e-13 * max(1.0, segment.duration)
        self.tried = [0]
        self.t, self.t_end = t, t_end
        self.h = min(self.h, t_end - t)

    def clip(self):
        """The step size to try next; raises once the step budget or size runs out."""
        if self.tried[0] >= MAX_STEPS:
            raise self.fail("step budget exhausted at t=%g (h=%g)" % (self.t, self.h))
        if self.h < self.h_tiny:
            raise self.fail("step underflow at t=%g" % (self.t,))
        self.tried[0] += 1
        self.lands = self.h >= self.t_end - self.t
        self.h = min(self.h, self.t_end - self.t)
        return self.h

    def control(self, err):
        """Accept or reject the step just tried (err in units of the tolerance)."""
        if math.isnan(err):
            raise self.fail("step at t=%g has a NaN error (h=%g)" % (self.t, self.h))
        self.steps += 1
        accepted = err <= 1.0
        if accepted:
            self.t = self.t_end if self.lands else self.t + self.h
            self.accepted += 1
            self.h_min = min(self.h_min, self.h)
        elif self.h <= 1e-12:
            raise self.fail("step at t=%g fails its tolerance at h=%g (err=%g)"
                            % (self.t, self.h, err))
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        self.h = self.h * min(5.0, max(0.2, factor))
        return accepted


class _Group(StepControl):
    """One span of one segment's modes in one frame, advanced under its own step controller.

    The controller state and the drift are scalar and belong to the group
    alone; its modes hold one contiguous slice of the lock-step batch.  The
    group starts from the ground state (1, 0) in the eigenbasis at the start
    t_a of its ``span`` (t_a, t_b), and ``_lockstep`` leaves its amplitudes
    (a, b) in the eigenbasis at t_b: the first column of the span's transfer
    [[a, -b*], [b, a*]].  ``tol`` is the unit of step error,
    (abs_tol + rel_tol) / m for a transfer that enters its schedule m times.
    The spans of one segment share ``tried``, so MAX_STEPS bounds them together.
    """

    def __init__(self, segment, q, where, frame, tol, span, tried):
        super().__init__(where)
        self.segment, self.q, self.frame, self.tol, self.span = segment, q, frame, tol, span
        self.enter(*span, segment)
        self.tried = tried
        self.drift = 0.0
        if frame == "lab" and span[1] - span[0] < self.h_tiny:
            # no step fits: the span takes only its frame change, a sudden quench
            self.t = span[1]


def _step_rows(t, h, t0):
    """Per-group inputs of the three Magnus applies of one step-doubled step.

    ``t`` and ``h`` hold each group's time and step, ``t0`` the start of
    each group's segment.  Row i of the result is apply i (full step, first
    half, second half) and holds the times since the segment's start at its
    two Gauss points, then h/2 and the commutator weight sqrt(3) h^2 / 6.
    """
    hs = np.array([h, 0.5 * h, 0.5 * h])
    ts = np.array([t, t, t + 0.5 * h])
    rows = np.empty((3, 4, len(t)))
    rows[:, 0:2] = ts[:, None] + _GL_NODES * hs[:, None] - t0
    rows[:, 2] = 0.5 * hs
    rows[:, 3] = _SQRT3 * hs * hs / 6.0
    return rows


def _generator(frame, modes, dt):
    """The two non-zero components (w, z) of every mode's su(2) generator (0, w, z) at dt.

    ``modes`` holds the rows of ``Segment.affine`` and ``dt`` the time
    since the segment's start.  Every frame's generator has the (0, w, z)
    form: (0, -delta, eps) in the lab frame, whose state is carried as
    W^dagger (u, v) (see ``_frame``), and (0, -theta_dot, omega) in the
    adiabatic frame.  The first superadiabatic frame ("sa1", which only
    ``_frame`` reads) has (w1, z1) = (alpha_dot, sqrt(omega^2 + theta_dot^2));
    on an affine segment theta_ddot = -2 theta_dot omega_dot / omega exactly,
    so alpha_dot = -1.5 theta_dot omega_dot / (omega^2 + theta_dot^2), where
    omega omega_dot = eps eps_dot + delta delta_dot = v2 x, x = dt - s_v.
    A span in a superadiabatic window (the "sa" frame) steps in the second
    one, (0, beta_dot, sqrt(z1^2 + w1^2)) with beta = -atan(mu) / 2 and
    mu = w1 / z1 = -1.5 c v2 x omega^3 / P^1.5, P = omega^6 + c^2, whose rate
    is mu_dot = -1.5 c v2 omega [(omega^2 + 3 v2 x^2) P - 9 v2 x^2 omega^6] / P^2.5.
    Both are written in s = theta_dot / omega and g = omega_dot / omega^2,
    so that no power of omega beyond the fifth is formed.
    """
    e0, d0, e1, d1, v2, s_v, c, m2 = modes
    if frame == "lab":
        return -(d0 + d1 * dt), e0 + e1 * dt
    x = dt - s_v
    vx = v2 * x
    om2 = vx * x + m2
    om = np.sqrt(om2)
    if frame == "adiabatic":
        return -c / om2, om
    om3 = om2 * om
    s, g = c / om3, vx / om3
    q = 1.0 + s * s
    sq = np.sqrt(q)
    if frame == "sa1":
        return -1.5 * s * g * om / q, om * sq
    mu = -1.5 * s * g / (q * sq)
    y = vx * x
    mudot = -1.5 * s * v2 * ((om2 + 3.0 * y) * q - 9.0 * y) / (om3 * om2 * q * q * sq)
    mu2 = 1.0 + mu * mu
    return -0.5 * mudot / mu2, om * np.sqrt(q * mu2)


def _magnus_apply(frame, modes, rows, a, b):
    """One 4th-order Magnus step: exact su(2) exponential of the averaged generator.

    The Magnus vector is h/2 (G1 + G2) + sqrt(3) h^2 / 6 (G2 x G1) for the
    generators G1, G2 at the two Gauss points.  Every frame's generator has
    the (0, w, z) form, so the Magnus vector is
    (sqrt(3) h^2 / 6 (w2 z1 - z2 w1), h/2 (w1 + w2), h/2 (z1 + z2)).  Its
    exponential takes cos(phi) and sin(phi) / phi from one half-angle tangent.
    """
    dt1, dt2, hh, k = rows
    w1, z1 = _generator(frame, modes, dt1)
    w2, z2 = _generator(frame, modes, dt2)
    dx = k * (w2 * z1 - z2 * w1)
    dy = hh * (w1 + w2)
    dz = hh * (z1 + z2)
    phi = np.sqrt(dx * dx + dy * dy + dz * dz)
    # cos phi = (1 - t^2) / (1 + t^2) and sin phi = 2 t / (1 + t^2), t = tan(phi / 2)
    t = np.tan(0.5 * phi)
    t2 = t * t
    r = 1.0 / (1.0 + t2)
    c = (1.0 - t2) * r
    if phi.min() < 1e-8:
        small = phi < 1e-8
        s = np.where(small, 1.0 - phi * phi / 6.0, 2.0 * t * r / np.where(small, 1.0, phi))
    else:
        s = 2.0 * t * r / phi
    # exp(-i Omega.sigma) = [[conj(p), -q], [conj(q), p]], p = c + i s dz, q = s (dy + i dx)
    p = np.empty(a.shape, dtype=complex)
    q = np.empty(a.shape, dtype=complex)
    p.real = c
    np.multiply(s, dz, out=p.imag)
    np.multiply(s, dy, out=q.real)
    np.multiply(s, dx, out=q.imag)
    return p.conj() * a - q * b, q.conj() * a + p * b


# Superadiabatic (SA) windows.  Far from its gap minimum a mode's adiabatic-
# frame coupling theta_dot rides on a large omega and sets the step there.
# Two more adiabatic iterations (M. V. Berry, Proc. R. Soc. A 414 (1987) 31)
# scale it down, the first by about 1.5 |omega_dot| / omega^2, so a segment's
# modes step in the second SA frame wherever that factor is small for all of
# them.  On the seed-1 benchmark sweep |beta_dot| integrates to at most 4.9e-5
# over a window, 34 times less than |alpha_dot| (1.7e-3), so the steps lengthen.
# SA local errors add up coherently along a window, so they count
# SA_ERROR_WEIGHT times.  SA_THRESHOLD comes from round trips at 13 tau_Q in
# [10, 128], rel_tol 1e-8, against rel_tol 1e-13 references: with the first
# SA frame, thresholds 0.03-0.05 all took 2.7-2.9 times fewer steps than the
# adiabatic frame, and 0.04 gave the lowest median |dn|/n.  In the second
# frame, weights 2, 4, 8, 16 and 32 gave worst |dn|/n of 7.9e-9, 4.0e-9,
# 3.6e-9, 1.3e-9 and 1.6e-9 over tau_Q = 10 to 13.5 (4e-9 allowed), and of
# 4.9e-9, 2.5e-9, 2.8e-9, 1.1e-9 and 1.4e-9 over the 13 tau_Q, where they took
# 9,790 to 11,254 steps; 16 has the lowest worst cases.
# SA everywhere, the gap minima included, takes fewer steps still but biased
# n by -0.9e-8, -1.3e-8 and -2.0e-8 at tau_Q = 10, 32 and 128 (first frame).
SA_THRESHOLD = 0.04
SA_ERROR_WEIGHT = 16.0
# spans shorter than this share of their segment are not cut out, so that
# landing on a window edge never underflows the step
_SA_MIN_SPAN = 1e-6
_EXP_IPI4 = complex(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))


def _sa_windows(cases):
    """For each (seg, q) of ``cases``, the (t_a, t_b) spans of seg where every
    mode q is on the far side of its gap minimum with
    1.5 |omega_dot| / (omega^2 + theta_dot^2) <= SA_THRESHOLD; none for no modes.

    eps and delta are affine in t, so omega^2 = v^2 (t - t_v)^2 + m^2 with
    m v = |eps delta_dot - delta eps_dot| = 2 |c|, c from ``Segment.affine``.
    In y = v (t - t_v) / m that factor is
    F(u) = 1.5 k y u^1.5 / (u^3 + k^2 / 4) with u = 1 + y^2 and k = v / m^2.
    F rises from 0 at the minimum to one peak, where
    P(u) = -2u^4 + 3u^3 + k^2 u - 0.75 k^2 changes sign, and then falls.
    Each mode excludes |y| < sqrt(u* - 1), u* the first u past the peak with
    F <= SA_THRESHOLD, found by one bisection over the modes of all cases;
    the windows are what no mode excludes.  A mode whose (eps, delta) stands
    still never couples and excludes nothing.
    """
    rows = [seg.affine(q)[4:7] for seg, q in cases]
    bounds = np.cumsum([0] + [r.shape[1] for r in rows])
    v2, s_v, c = np.concatenate(rows, axis=1) if rows else np.empty((3, 0))
    cross = 2.0 * np.abs(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = v2 * np.sqrt(v2) / (cross * cross)
        lo = np.ones_like(k)
        # past the peak (P < 0) and with F <= 1.5 k / u <= SA_THRESHOLD
        hi = np.maximum(2.0 + np.cbrt(2.0 * k * k), 1.5 * k / SA_THRESHOLD)
        for _ in range(64):
            u = 0.5 * (lo + hi)
            rising = u * u * (3.0 - 2.0 * u) * u + k * k * (u - 0.75) > 0.0
            above = (1.5 * k * np.sqrt(u - 1.0) * u * np.sqrt(u)
                     > SA_THRESHOLD * (u ** 3 + 0.25 * k * k))
            inside = rising | above
            lo, hi = np.where(inside, u, lo), np.where(inside, hi, u)
        half = np.sqrt(hi - 1.0) * cross / v2
    # a closed gap (k infinite) excludes the whole line
    half = np.where(np.isfinite(half), half, np.inf)
    return [_windows(seg, s_v[i:j], half[i:j], v2[i:j] > 0.0) if j > i else []
            for (seg, _), i, j in zip(cases, bounds[:-1], bounds[1:])]


def _windows(seg, s_v, half, moves):
    """The windows of seg that no moving mode's excluded span s_v +- half meets."""
    t_v = seg.t_start + s_v[moves]
    half = half[moves]
    order = np.argsort(t_v - half, kind="stable")
    starts = np.concatenate(([-np.inf], np.maximum.accumulate((t_v + half)[order])))
    ends = np.concatenate(((t_v - half)[order], [np.inf]))
    gap = ends > starts
    starts = np.clip(starts[gap], seg.t_start, seg.t_end)
    ends = np.clip(ends[gap], seg.t_start, seg.t_end)
    tiny = _SA_MIN_SPAN * seg.duration
    windows = []
    for ta, tb in zip(starts.tolist(), ends.tolist()):
        ta = seg.t_start if ta - seg.t_start < tiny else ta
        tb = seg.t_end if seg.t_end - tb < tiny else tb
        if windows and ta - windows[-1][1] < tiny:
            windows[-1][1] = tb
        elif tb - ta >= tiny:
            windows.append([ta, tb])
    return [tuple(w) for w in windows]


def _frame(frame, modes, dt):
    """The first column (P, Q) of each mode's rotation [[P, -Q*], [Q, P*]] into ``frame``.

    The rotation takes the eigenbasis at dt, the time since the segment's
    start, into ``frame``; ``modes`` holds the rows of ``Segment.affine``.
    It is a chain of turns: none for "adiabatic", W^dagger R(theta) for
    "lab", and for "sa" W^dagger exp(i alpha sigma_x) followed by
    W^dagger exp(i beta sigma_x), with W = diag(e^{-i pi/4}, e^{i pi/4}) and
    R(theta) = [[cos theta, -sin theta], [sin theta, cos theta]].  Each angle
    is atan2(-w, z) / 2 of the generator (w, z) of ``_generator`` in the
    frame that the turn starts from: the Bogoliubov angle
    theta = atan2(delta, eps) / 2 of the lab frame's, alpha =
    atan2(theta_dot, omega) / 2 of the adiabatic frame's and
    beta = atan2(-w1, z1) / 2 of the first superadiabatic frame's ("sa1").
    """
    p = np.ones(modes.shape[1], dtype=complex)
    q = np.zeros(modes.shape[1], dtype=complex)
    for turn in {"adiabatic": (), "sa": ("adiabatic", "sa1"), "lab": ("lab",)}[frame]:
        w, z = _generator(turn, modes, dt)
        angle = 0.5 * np.arctan2(-w, z)
        p, q = _apply_transfer(_EXP_IPI4 * np.cos(angle),
                               (1.0 if turn == "lab" else 1j) * np.sin(angle) / _EXP_IPI4,
                               p, q, False)
    return p, q


def _spans(seg, windows):
    """The (t_a, t_b, frame) spans of seg for modes with these SA windows, in time order.

    Lab-frame modes (``windows`` None) have one span, the whole segment; the
    others run in the adiabatic frame, cut at the edges of their windows,
    and each window is a span of its own in the "sa" frame.
    """
    if windows is None:
        return [(seg.t_start, seg.t_end, "lab")]
    spans, t = [], seg.t_start
    for ta, tb in windows:
        if ta > t:
            spans.append((t, ta, "adiabatic"))
        spans.append((ta, tb, "sa"))
        t = tb
    if t < seg.t_end:
        spans.append((t, seg.t_end, "adiabatic"))
    return spans


def _drift(a, b):
    return np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))


def _lockstep(frame, groups):
    """Advance every group across its span in one frame, all in lock step.

    Each group enters the frame from (1, 0) in the eigenbasis at its span's
    start, by the frame's rotation ``_frame`` there.  Each pass tries one
    step-doubled Magnus-4 step of every group at the group's own t and h, on
    mode arrays concatenated over the groups.  Each group's controller then
    accepts or rejects on the largest error among its own modes in units of
    its own ``tol``, weighted by SA_ERROR_WEIGHT in the SA frame.  The
    arithmetic per mode and per group is the same as for the group alone, so
    its results are bitwise independent of the batch.  A group that ends its
    span leaves the frame for the eigenbasis there by the inverse rotation,
    keeps its amplitudes and leaves the batch.
    """
    counts = np.array([len(g.q) for g in groups])
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    modes = np.concatenate([g.segment.affine(g.q) for g in groups], axis=1)
    t0 = np.array([g.segment.t_start for g in groups])
    a, b = _frame(frame, modes, np.repeat([g.span[0] for g in groups] - t0, counts))
    weight = SA_ERROR_WEIGHT if frame == "sa" else 1.0
    # each pass first retires the groups that have ended (a span shorter than the
    # step floor ends before its first step), then steps the others
    accepted = [False] * len(groups)
    while True:
        done = []
        for i, g in enumerate(groups):
            sl = slice(starts[i], starts[i] + counts[i])
            ended = not g.t < g.t_end
            if ended or accepted[i] and g.steps % 64 == 0:
                g.drift = max(g.drift, _drift(a[sl], b[sl]))
            if ended:
                # new arrays, so that no view keeps the batch's arrays alive
                p, q = _frame(frame, modes[:, sl], g.t - t0[i])
                g.a, g.b = _apply_transfer(p.conj(), -q, a[sl], b[sl], False)
                done.append(i)
        if done:
            keep = np.ones(len(groups), dtype=bool)
            keep[done] = False
            take = np.repeat(keep, counts)
            a, b, modes = a[take], b[take], modes[:, take]
            t0 = t0[keep]
            counts = counts[keep]
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            groups = [g for g, k in zip(groups, keep) if k]
        if not groups:
            return
        t = np.array([g.t for g in groups])
        h = np.array([g.clip() for g in groups])
        rows = _step_rows(t, h, t0)
        if len(groups) > 1:
            rows = np.repeat(rows, counts, axis=2)
        a1, b1 = _magnus_apply(frame, modes, rows[0], a, b)
        ah, bh = _magnus_apply(frame, modes, rows[1], a, b)
        a2, b2 = _magnus_apply(frame, modes, rows[2], ah, bh)
        err = np.maximum(np.maximum.reduceat(np.abs(a1 - a2), starts),
                         np.maximum.reduceat(np.abs(b1 - b2), starts))
        accepted = [g.control(e / g.tol * weight) for g, e in zip(groups, err)]
        if all(accepted):
            a, b = a2, b2
        elif any(accepted):
            take = np.repeat(accepted, counts)
            a, b = np.where(take, a2, a), np.where(take, b2, b)


def _blocks(groups):
    """Consecutive runs of groups with at most _LOCKSTEP_BLOCK modes each (a larger group runs alone)."""
    block, size = [], 0
    for g in groups:
        if block and size + len(g.q) > _LOCKSTEP_BLOCK:
            yield block
            block, size = [], 0
        block.append(g)
        size += len(g.q)
    if block:
        yield block


def evolve(jobs, opts=None):
    """Evolve the positive quasimomenta q of every (schedule, q) job; one SpectrumResult per job.

    A result carries no weights: lab-frame (u, v), final-equilibrium-frame
    (u_rot, v_rot), p = |v_rot|^2, the worst norm drift and the solver
    statistics in ``meta``: the product of its segments' transfers applied
    to (1, 0), a reused transfer evolved once at tol / m (see Transfers).
    Each evolved segment's modes are cut into spans, one group each, at SA
    windows found for all jobs' segments in one ``_sa_windows`` call, and the
    groups of each frame advance together in lock-step batches of up to
    _LOCKSTEP_BLOCK modes, so each result is bitwise what its job gives alone.
    """
    opts = opts or SolverOptions()
    tol = opts.abs_tol + opts.rel_tol
    plans, cases = [], []
    for schedule, q in jobs:
        q = np.atleast_1d(np.asarray(q, dtype=float))
        # written so that NaN fails it
        if q.ndim != 1 or q.size == 0 or not np.all((q > 0.0) & (q < math.pi)):
            raise ValueError("quasimomenta must be a non-empty 1-d array in (0, pi)")
        segs = schedule.segments
        # per segment (i, transposed): it applies segment i's transfer; one that
        # retraces an earlier segment backwards (compared exactly) reuses that one's
        sources = []
        for k, seg in enumerate(segs):
            sources.append(next(((i, not tr) for (i, tr), s in zip(sources, segs)
                                 if s.duration == seg.duration and s.params_start == seg.params_end
                                 and s.params_end == seg.params_start), (k, False)))
        labs = {}       # evolved segment -> its lab-frame modes
        for k in dict.fromkeys(i for i, _ in sources):
            om2, speed = segs[k].closest_approach(q)
            # the smallest gap, not its square, meets GAP_FLOOR (sqrt is monotone), and
            # every Landau-Zener exponent pi om2 / speed below LAB_EXPONENT, without a division
            labs[k] = (np.sqrt(om2) <= GAP_FLOOR) | np.all(math.pi * om2 < LAB_EXPONENT * speed)
            if not np.all(labs[k]):
                cases.append((segs[k], q[~labs[k]]))
        plans.append((schedule, q, sources, labs))
    windows = iter(_sa_windows(cases))
    groups = {"adiabatic": [], "sa": [], "lab": []}
    composed = []
    for j, (schedule, q, sources, labs) in enumerate(plans):
        reuses = Counter(i for i, _ in sources)
        parts = {}      # evolved segment -> (mask, spans)s
        for k, lab_mask in labs.items():
            seg, tried = schedule.segments[k], [0]    # the segment's spans share one step budget
            parts[k] = []
            for mask in (~lab_mask, lab_mask):
                if np.any(mask):
                    spans = []
                    for ta, tb, frame in _spans(seg, None if mask is lab_mask else next(windows)):
                        name = "superadiabatic" if frame == "sa" else frame
                        where = "%s frame failed for modes %s" % (name, np.flatnonzero(mask)[:8])
                        if len(jobs) > 1:
                            where = "schedule %d (tau_q=%s): %s" % (j, schedule.tau_q, where)
                        spans.append(_Group(seg, q[mask], where, frame, tol / reuses[k],
                                            (ta, tb), tried))
                        groups[frame].append(spans[-1])
                    parts[k].append((mask, spans))
        lab_modes = int(np.count_nonzero(np.logical_or.reduce(list(labs.values()))))
        composed.append((schedule, q, sources, parts, lab_modes))
    for frame, frame_groups in groups.items():
        for block in _blocks(frame_groups):
            _lockstep(frame, block)
    return [_compose(*plan) for plan in composed]


def _apply_transfer(ta, tb, a, b, transposed):
    """The transfer [[ta, -tb*], [tb, ta*]], or its transpose, applied to (a, b).

    The transpose's second row is written so that at (a, b) = (ta, tb) it is
    2i Im(ta* tb) to the bit: a mirror ends at (ta^2 + tb^2, ta* tb - ta tb*).
    """
    if transposed:
        return ta * a + tb * b, ta.conj() * b - (a.conj() * tb).conj()
    return ta * a - tb.conj() * b, tb * a + ta.conj() * b


def _compose(schedule, q, sources, parts, lab_modes):
    """One job's SpectrumResult from the groups of its evolved segments.

    A segment's transfer is its first span's (a, b) with each later span's
    transfer [[a, -b*], [b, a*]] applied in turn.  The state starts as the
    first segment's transfer, and each later segment's, or its transpose, is
    applied to it in turn.
    """
    transfers = {}
    for k, pairs in parts.items():
        transfers[k] = np.empty((2, len(q)), dtype=complex)
        for mask, spans in pairs:
            a, b = spans[0].a, spans[0].b
            for g in spans[1:]:
                a, b = _apply_transfer(g.a, g.b, a, b, False)
            transfers[k][:, mask] = a, b
    a, b = transfers[0]
    for i, transposed in sources[1:]:
        a, b = _apply_transfer(*transfers[i], a, b, transposed)
    groups = [g for pairs in parts.values() for _, spans in pairs for g in spans]
    drift = max([_drift(a, b)] + [g.drift for g in groups])
    steps, accepted = sum(g.steps for g in groups), sum(g.accepted for g in groups)
    # each reuse of a transfer counts its windows again
    sa_time = sum(sum(g.span[1] - g.span[0] for _, spans in parts[i] for g in spans
                      if g.frame == "sa") for i, _ in sources)
    meta = {"steps": steps, "accepted": accepted, "rejected": steps - accepted,
            "h_min": min([math.inf] + [float(g.h_min) for g in groups]),
            "lab_modes": lab_modes, "sa_windows": sum(g.frame == "sa" for g in groups),
            "sa_share": sa_time / (schedule.t_end - schedule.t_start),
            "mirrored": any(i != k for k, (i, _) in enumerate(sources))}
    # the lab frame's (u, v) rotate (a, b) by the Bogoliubov angle at the end
    last = schedule.segments[-1]
    w, z = _generator("lab", last.affine(q), last.duration)
    theta = 0.5 * np.arctan2(-w, z)
    u, v = _apply_transfer(np.cos(theta), np.sin(theta), a, b, False)
    return SpectrumResult(q, np.abs(b) ** 2, u, v, a, b, norm_drift=drift, meta=meta)


def evolve_spectra_quadrature(schedules, opts=None, order=16, n_support=12, max_r=0.0):
    """Evolve each schedule's modes on its own Gauss-Legendre panels over (0, pi).

    ``max_r`` is one panel-width distance for every schedule or a sequence
    of one per schedule.  All schedules advance in one lock-step batch, as
    in ``evolve``, and each result also carries the quadrature weights.
    """
    max_rs = np.broadcast_to(np.asarray(max_r, dtype=float), (len(schedules),))
    panels = [support_panels(s, order=order, n_support=n_support, max_r=float(r))
              for s, r in zip(schedules, max_rs)]
    results = evolve([(s, q) for s, (q, _) in zip(schedules, panels)], opts)
    for res, (_, w) in zip(results, panels):
        res.weights = w
    return results


def _zone_average(spectrum, x):
    """(1/pi) integral_0^pi x_q dq: the plain mean on a mode grid, the weighted sum on panels."""
    if spectrum.weights is None:
        return float(np.mean(x))
    return float(np.sum(spectrum.weights * x) / math.pi)


def defect_density(spectrum):
    """n = (1/pi) integral_0^pi p_q dq (mean over the grid for finite-N spectra)."""
    return _zone_average(spectrum, spectrum.p)


def fermion_density(spectrum):
    """Density of c-fermions (1/pi) integral |v_q|^2 dq; the sigma^z defect measure."""
    return _zone_average(spectrum, np.abs(spectrum.v) ** 2)
