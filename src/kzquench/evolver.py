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
for all its modes, on the far side of each mode's gap minimum.  Inside a
window the state is xi = W^dagger exp(i alpha sigma_x) phi with
alpha = atan2(theta_dot, omega) / 2 and W = diag(e^{-i pi/4}, e^{i pi/4});
since eps and delta are affine on a segment, its generator is
(0, alpha_dot, sqrt(omega^2 + theta_dot^2)) with the much smaller
alpha_dot = -1.5 theta_dot omega_dot / (omega^2 + theta_dot^2), in the form
the adiabatic step already takes.  The state is rotated exactly into the SA
frame at a window's start and back at its end, and the step error there
counts SA_ERROR_WEIGHT times.  Modes whose gap closes along the path
(possible only at isolated quasimomenta of the XY protocols) fall back to the
lab frame, where the equation is smooth and there are no windows.  Every step
and frame change is exactly unitary, so norm conservation is automatic.

Step arithmetic.  When a group enters a segment, it reads its modes'
rows there once from ``Segment.affine``: eps and delta are affine in the
time dt since the segment's start, omega^2 = v2 (dt - s_v)^2 + m2 is a
quadratic with its vertex at s_v, and theta_dot = c / omega^2 with the
constant c = (eps delta_dot - delta eps_dot) / 2.
A step evaluates these at its Gauss points.  Its exponential takes cos(phi)
and sin(phi) from one t = tan(phi / 2), as (1 - t^2) / (1 + t^2) and
2 t / (1 + t^2): numpy runs float64 tan on SIMD units but cos and sin one
element at a time, and the two forms agree to 2.2e-16 for phi up to 1e5.

Groups and lock step.  A group is one schedule's modes in one frame.  The
modes of a group share one adaptive step: its controller accepts a step only
if every mode of the group meets the tolerance (a step that fails at
h <= 1e-12 raises NumericalFailure instead).  Many groups, from one schedule
or from a whole tau_Q sweep, advance together in one loop (``_lockstep``):
each pass tries one step of every group, each at its own t and h, on mode
arrays concatenated over the groups, so numpy's per-call overhead is paid
once for the batch instead of once per schedule.  A frame's groups run in
consecutive batches of at most _LOCKSTEP_BLOCK modes, which bounds the
memory of a long sweep.  Each group keeps its own t, h, tolerance, segment,
window, step counts and norm drift, and its controller does the same scalar
arithmetic as for the group alone; groups inside and outside their windows
share one pass, with the generator picked per mode.  Its results are
therefore bitwise the same whichever groups share the batch and in whatever
order.  There are two entry points: ``evolve`` takes given modes of any
number of schedules, and ``evolve_spectra_quadrature`` each schedule's
Gauss-Legendre panels.  A result's ``meta`` records the attempted ``steps``,
of them ``accepted`` and ``rejected``, the smallest accepted step ``h_min``,
the number of ``lab_modes``, the number of ``sa_windows``, ``sa_share``, the
share of the schedule's time spent in them, and whether it was ``mirrored``.

Mirrors.  A schedule that is its own time reversal evolves its first half
only: it has an even number n of segments, segment k and segment n-1-k last
equally long, and segment k starts at the parameters where segment n-1-k
ends, compared exactly.  The R = 1 round trip
with g_i = g_f and the R = 1 reversed round trip are mirrors.  Each mode's
H = eps sigma_z + delta sigma_x is real symmetric, so the second half's
propagator is the transpose of the first half's U1, and the trip is
U = U1^T U1, the transfer-matrix composition of the adiabatic-impulse model
of Landau-Zener-Stueckelberg interferometry (Shevchenko, Ashhab & Nori,
Phys. Rep. 492 (2010) 1).  U1 is in SU(2), so its one evolved column fixes
it: U1 [psi0, J psi0*] = [psi1, J psi1*] with J = i sigma_y.  The half's
error enters the trip twice, so its steps are held to rel_tol/2 and
abs_tol/2.  A mirrored result's ``steps``, ``accepted``, ``rejected``,
``h_min`` and ``sa_windows`` count the half actually evolved; ``sa_share``
is the same on the half as on the trip, and the norm drift is the larger of
the half's and that of the composed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lattice
from .quadrature import support_panels

_SQRT3 = math.sqrt(3.0)
_GL_LO = 0.5 - _SQRT3 / 6.0
_GL_HI = 0.5 + _SQRT3 / 6.0
_GL_NODES = np.array([[_GL_LO], [_GL_HI]])


class NumericalFailure(RuntimeError):
    """The adaptive integrator could not reach the requested tolerance."""


# Modes whose smallest gap along the schedule is at or below GAP_FLOOR integrate
# in the lab frame, all others in the adiabatic frame (inf: all lab, -inf: none).
GAP_FLOOR = 1e-4
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
    end of its piece lands exactly on it.  NumericalFailure, prefixed by
    ``where``, stops a segment after MAX_STEPS tries, a step below
    1e-13 max(1, duration) and a step that fails its tolerance at h <= 1e-12.
    """

    def __init__(self, where):
        self.where = where
        self.h = 1e-3
        self.steps = 0              # attempted, over all segments
        self.accepted = 0
        self.h_min = math.inf

    def fail(self, msg):
        return NumericalFailure("%s: %s" % (self.where, msg))

    def enter(self, t, t_end, segment=None):
        """Start the piece [t, t_end], the first of ``segment`` if one is given."""
        if segment is not None:
            self.h_tiny = 1e-13 * max(1.0, segment.duration)
            self.seg_steps = 0
        self.t, self.t_end = t, t_end
        self.h = min(self.h, t_end - t)

    def clip(self):
        """The step size to try next; raises once the step budget or size runs out."""
        if self.seg_steps >= MAX_STEPS:
            raise self.fail("step budget exhausted at t=%g (h=%g)" % (self.t, self.h))
        if self.h < self.h_tiny:
            raise self.fail("step underflow at t=%g" % (self.t,))
        self.lands = self.h >= self.t_end - self.t
        self.h = min(self.h, self.t_end - self.t)
        return self.h

    def control(self, err):
        """Accept or reject the step just tried (err in units of the tolerance)."""
        self.seg_steps += 1
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
    """One schedule's modes in one frame, advanced under its own step controller.

    The controller state and the drift are scalar and belong to the group
    alone; its modes hold one contiguous slice of the lock-step batch.
    ``out`` is the schedule's SpectrumResult and ``mask`` picks the group's
    modes out of it.  ``tol`` is abs_tol + rel_tol.  A ``mirrored`` group
    walks only the first half of its schedule (``schedule`` is that half),
    whose error enters the trip twice, so its unit of step error is tol / 2;
    ``finish`` composes the trip.
    The group walks its schedule in pieces (segment index, t_a, t_b, sa):
    the segments, cut at the edges of the group's superadiabatic windows in
    the adiabatic frame.
    """

    def __init__(self, schedule, q, mask, out, where, frame, tol, mirrored):
        super().__init__(where)
        self.schedule = schedule
        self.q = q
        self.mask = mask
        self.out = out
        self.tol = 0.5 * tol if mirrored else tol
        self.mirrored = mirrored
        self.pieces = []
        for k, seg in enumerate(schedule.segments):
            t = seg.t_start
            for ta, tb in _sa_windows(seg, q) if frame == "adiabatic" else ():
                if ta > t:
                    self.pieces.append((k, t, ta, False))
                self.pieces.append((k, ta, tb, True))
                t = tb
            if t < seg.t_end:
                self.pieces.append((k, t, seg.t_end, False))
        windows = [tb - ta for _, ta, tb, sa in self.pieces if sa]
        self.sa_windows = len(windows)
        self.sa_share = sum(windows) / (schedule.t_end - schedule.t_start)
        self.piece = self.seg = -1
        self.sa = False
        self.drift = 0.0

    def next_piece(self):
        """Enter the next piece; False once the schedule is done."""
        self.piece += 1
        if self.piece == len(self.pieces):
            return False
        k, t, t_end, self.sa = self.pieces[self.piece]
        self.enter(t, t_end, self.schedule.segments[k] if k != self.seg else None)
        self.seg = k
        return True

    def finish(self, frame, a, b):
        """Rotate the final amplitudes and write them and the statistics to ``out``.

        A mirrored group holds the half's amplitudes (a, b) in the adiabatic
        or the lab frame.  Either way the half's propagator, from the initial
        eigenbasis into that real basis, is in SU(2) and maps the ground state
        (1, 0) to (a, b), so it is [[a, -b*], [b, a*]].  The second half's
        propagator, back into the final eigenbasis (the initial one), is its
        transpose, so the trip ends at (a^2 + b^2, a* b - a b*) there.
        """
        if self.mirrored:
            # (a, b) become the trip's final-eigenbasis amplitudes; a mirror
            # ends at the parameters it started from
            a, b = a * a + b * b, 2j * (a.conj() * b).imag
            self.drift = max(self.drift, _drift(a, b))
            frame, t_end = "adiabatic", self.schedule.t_start
        else:
            t_end = self.schedule.t_end
        thetaf = _bogoliubov_angle(self.schedule, self.q, t_end)
        cf, sf = np.cos(thetaf), np.sin(thetaf)
        if frame == "adiabatic":
            u = cf * a - sf * b
            v = sf * a + cf * b
            u_rot, v_rot = a, b
        else:
            u, v = a, b
            u_rot = u * cf + v * sf
            v_rot = v * cf - u * sf
        out, m, meta = self.out, self.mask, self.out.meta
        out.u[m], out.v[m], out.u_rot[m], out.v_rot[m] = u, v, u_rot, v_rot
        out.norm_drift = max(out.norm_drift, self.drift)
        meta["steps"] += self.steps
        meta["accepted"] += self.accepted
        meta["h_min"] = min(meta["h_min"], float(self.h_min))
        meta["sa_windows"] += self.sa_windows
        meta["sa_share"] += self.sa_share


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


def _generator(frame, modes, sa, dt):
    """The two non-zero components (w, z) of every mode's su(2) generator at dt.

    ``modes`` holds the rows of ``Segment.affine`` and ``dt`` the time
    since the segment's start.  The generator is (w, 0, z) = (delta, 0, eps)
    in the lab frame and (0, w, z) = (0, -theta_dot, omega) in the adiabatic
    frame.  Modes in a superadiabatic window (``sa``: False, True or a
    per-mode mask) have (0, w, z) = (0, alpha_dot, sqrt(omega^2 + theta_dot^2))
    instead; on an affine segment theta_ddot = -2 theta_dot omega_dot / omega
    exactly, so alpha_dot = -1.5 theta_dot omega_dot / (omega^2 + theta_dot^2),
    where omega omega_dot = eps eps_dot + delta delta_dot = v2 (dt - s_v).
    """
    e0, d0, e1, d1, v2, s_v, c, m2 = modes
    if frame == "lab":
        return d0 + d1 * dt, e0 + e1 * dt
    x = dt - s_v
    vx = v2 * x
    om2 = vx * x + m2
    thetadot = c / om2
    om = np.sqrt(om2)
    if sa is False:
        return -thetadot, om
    z2 = om2 + thetadot * thetadot
    w = -1.5 * thetadot * vx / (om * z2)
    if sa is True:
        return w, np.sqrt(z2)
    return np.where(sa, w, -thetadot), np.where(sa, np.sqrt(z2), om)


def _magnus_apply(frame, modes, sa, rows, a, b):
    """One 4th-order Magnus step: exact su(2) exponential of the averaged generator.

    The Magnus vector is h/2 (G1 + G2) + sqrt(3) h^2 / 6 (G2 x G1) for the
    generators G1, G2 at the two Gauss points; with one generator component
    zero in either frame, the terms that vanish are left out.  Its
    exponential takes cos(phi) and sin(phi) / phi from one half-angle tangent.
    """
    dt1, dt2, hh, k = rows
    w1, z1 = _generator(frame, modes, sa, dt1)
    w2, z2 = _generator(frame, modes, sa, dt2)
    if frame == "lab":
        dx = hh * (w1 + w2)
        dy = k * (z2 * w1 - w2 * z1)
    else:
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
# One more adiabatic iteration (M. V. Berry, Proc. R. Soc. A 414 (1987) 31)
# scales it down by about 1.5 |omega_dot| / omega^2, so each group steps in
# the SA frame wherever that factor is small for all its modes.  SA local
# errors add up coherently along a window, so they are held to half the
# tolerance.  Both constants come from round trips at 13 tau_Q in [10, 128],
# rel_tol 1e-8, against rel_tol 1e-13 references: thresholds 0.03-0.05 and
# weights 1.5-2.5 all take 2.7-2.9 times fewer steps than the adiabatic frame,
# and 0.04 with weight 2 gave the lowest median |dn|/n (0.68 of the adiabatic
# frame's).  SA everywhere, the gap minima included, takes fewer steps still
# but biases n by -0.9e-8, -1.3e-8 and -2.0e-8 at tau_Q = 10, 32 and 128.
SA_THRESHOLD = 0.04
SA_ERROR_WEIGHT = 2.0
# pieces shorter than this share of their segment are not cut out, so that
# landing on a window edge never underflows the step
_SA_MIN_SPAN = 1e-6
_EXP_IPI4 = complex(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))


def _sa_windows(seg, q):
    """The (t_a, t_b) spans of seg where every mode q is on the far side of its
    gap minimum with 1.5 |omega_dot| / (omega^2 + theta_dot^2) <= SA_THRESHOLD.

    eps and delta are affine in t, so omega^2 = v^2 (t - t_v)^2 + m^2 with
    m v = |eps delta_dot - delta eps_dot| = 2 |c|, c from ``Segment.affine``.
    In y = v (t - t_v) / m that factor is
    F(u) = 1.5 k y u^1.5 / (u^3 + k^2 / 4) with u = 1 + y^2 and k = v / m^2.
    F rises from 0 at the minimum to one peak, where
    P(u) = -2u^4 + 3u^3 + k^2 u - 0.75 k^2 changes sign, and then falls.
    Each mode excludes |y| < sqrt(u* - 1), u* the first u past the peak with
    F <= SA_THRESHOLD, found by bisection; the windows are what no mode
    excludes.
    """
    rows = seg.affine(q)
    # a mode whose (eps, delta) stands still never couples
    v2, s_v, c = rows[4:7, rows[4] > 0.0]
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
    t_v = seg.t_start + s_v
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


def _sa_angle(modes, dt):
    """The SA frame's angle alpha = atan2(theta_dot, omega) / 2 at dt, as in ``_generator``."""
    w, z = _generator("adiabatic", modes, False, dt)
    return 0.5 * np.arctan2(-w, z)


def _to_sa(alpha, a, b):
    """Adiabatic-frame amplitudes into the SA frame: xi = W^dagger exp(i alpha sigma_x) phi.

    W = diag(e^{-i pi/4}, e^{i pi/4}) turns the SA generator into the
    (0, w, z) form of the adiabatic frame.
    """
    c, s = np.cos(alpha), 1j * np.sin(alpha)
    return _EXP_IPI4 * (c * a + s * b), (s * a + c * b) / _EXP_IPI4


def _from_sa(alpha, a, b):
    """SA-frame amplitudes back to the adiabatic frame: phi = exp(-i alpha sigma_x) W xi."""
    c, s = np.cos(alpha), 1j * np.sin(alpha)
    a, b = a / _EXP_IPI4, _EXP_IPI4 * b
    return c * a - s * b, c * b - s * a


def _drift(a, b):
    return np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))


def _lockstep(frame, groups):
    """Advance every group across its schedule in one frame, all in lock step.

    Each pass tries one step-doubled Magnus-4 step of every group at the
    group's own t and h, on mode arrays concatenated over the groups.  Each
    group's controller then accepts or rejects on the largest error among
    its own modes in units of its own ``tol``, weighted by SA_ERROR_WEIGHT
    inside an SA window.  The
    arithmetic per mode and per group is the same as for the group alone,
    so its results are bitwise independent of the batch.  A group that ends
    a piece rewrites only its own slice (and rotates it into or out of the
    SA frame at a window edge); a group that ends its schedule writes its
    results and leaves the batch.
    """
    counts = np.array([len(g.q) for g in groups])
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    modes = np.empty((8, counts.sum()))     # Segment.affine rows of every mode
    sa = np.zeros(modes.shape[1], dtype=bool)
    t0 = np.empty(len(groups))              # each group's segment start

    def angle(i, sl, t):
        return _sa_angle(modes[:, sl], t - t0[i])

    def enter(i, group):
        """Set group i up on its next piece; False once it has none."""
        sl = slice(starts[i], starts[i] + counts[i])
        if group.sa:
            a[sl], b[sl] = _from_sa(angle(i, sl, group.t), a[sl], b[sl])
        k = group.seg
        if not group.next_piece():
            return False
        if group.seg != k:
            s = group.schedule.segments[group.seg]
            t0[i] = s.t_start
            modes[:, sl] = s.affine(group.q)
        if group.sa:
            a[sl], b[sl] = _to_sa(angle(i, sl, group.t), a[sl], b[sl])
        sa[sl] = group.sa
        return True

    if frame == "adiabatic":
        a = np.ones(sa.shape, dtype=complex)
        b = np.zeros(sa.shape, dtype=complex)
    else:
        theta0 = np.concatenate([_bogoliubov_angle(g.schedule, g.q, g.schedule.t_start)
                                 for g in groups])
        a = np.cos(theta0).astype(complex)   # lab-frame u
        b = np.sin(theta0).astype(complex)   # lab-frame v
    for i, g in enumerate(groups):
        enter(i, g)
    while groups:
        t = np.array([g.t for g in groups])
        h = np.array([g.clip() for g in groups])
        rows = _step_rows(t, h, t0)
        if len(groups) > 1:
            rows = np.repeat(rows, counts, axis=2)
        in_sa = [g.sa for g in groups]
        mix = True if all(in_sa) else sa if any(in_sa) else False
        a1, b1 = _magnus_apply(frame, modes, mix, rows[0], a, b)
        ah, bh = _magnus_apply(frame, modes, mix, rows[1], a, b)
        a2, b2 = _magnus_apply(frame, modes, mix, rows[2], ah, bh)
        err_a = np.maximum.reduceat(np.abs(a1 - a2), starts)
        err_b = np.maximum.reduceat(np.abs(b1 - b2), starts)
        accepted = [g.control(max(ea, eb) / g.tol * (SA_ERROR_WEIGHT if g.sa else 1.0))
                    for g, ea, eb in zip(groups, err_a, err_b)]
        if all(accepted):
            a, b = a2, b2
        elif any(accepted):
            take = np.repeat(accepted, counts)
            a, b = np.where(take, a2, a), np.where(take, b2, b)
        done = []
        for i, g in enumerate(groups):
            sl = slice(starts[i], starts[i] + counts[i])
            if accepted[i] and g.seg_steps % 64 == 0:
                g.drift = max(g.drift, _drift(a[sl], b[sl]))
            if not g.t < g.t_end:
                g.drift = max(g.drift, _drift(a[sl], b[sl]))
                if not enter(i, g):
                    g.finish(frame, a[sl], b[sl])
                    done.append(i)
        if done:
            keep = np.ones(len(groups), dtype=bool)
            keep[done] = False
            take = np.repeat(keep, counts)
            a, b, sa, modes = a[take], b[take], sa[take], modes[:, take]
            t0 = t0[keep]
            counts = counts[keep]
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            groups = [g for g, k in zip(groups, keep) if k]


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


def _mirror_half(schedule):
    """The first half of a schedule that is its own time reversal, else None.

    The schedule must have an even number n of segments, and segment k and
    segment n-1-k must last equally long, with segment k starting at the
    parameters where segment n-1-k ends, compared exactly.
    """
    segs = schedule.segments
    n = len(segs)
    if n % 2 or any(a.duration != b.duration or a.params_start != b.params_end
                    for a, b in zip(segs, segs[::-1])):
        return None
    return replace(schedule, segments=segs[:n // 2], crossings=())


def _bogoliubov_angle(schedule, q, t):
    eps, delta = lattice.eps_delta(*schedule.params_at(t), np.cos(q), np.sin(q))
    return 0.5 * np.arctan2(delta, eps)


def evolve(jobs, opts=None):
    """Evolve the positive quasimomenta q of every (schedule, q) job; one SpectrumResult per job.

    A result carries no weights: lab-frame (u, v), final-equilibrium-frame
    (u_rot, v_rot), p = |v_rot|^2, the worst norm drift and the solver
    statistics in ``meta``.  Each job's modes are split by frame into groups,
    and the groups of each frame advance together in lock-step batches of
    up to _LOCKSTEP_BLOCK modes, so each result is bitwise what its job
    gives alone.  A schedule that is its own time reversal (``meta["mirrored"]``)
    evolves its first half only, at half the tolerance, since the half's
    error enters the trip twice.
    """
    opts = opts or SolverOptions()
    tol = opts.abs_tol + opts.rel_tol
    groups = {"adiabatic": [], "lab": []}
    outs = []
    for j, (schedule, q) in enumerate(jobs):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(q <= 0.0) or np.any(q >= math.pi):
            raise ValueError("quasimomenta must lie in (0, pi)")
        # the smallest gap, not its square, meets GAP_FLOOR (sqrt is monotone)
        lab_mask = np.sqrt(schedule.closest_approach(q)[0]) <= GAP_FLOOR
        half = _mirror_half(schedule)
        u, v, u_rot, v_rot = (np.empty(q.shape, dtype=complex) for _ in range(4))
        out = SpectrumResult(q, None, u, v, u_rot, v_rot, meta={
            "steps": 0, "accepted": 0, "rejected": 0, "h_min": math.inf,
            "lab_modes": int(np.count_nonzero(lab_mask)), "sa_windows": 0, "sa_share": 0.0,
            "mirrored": half is not None})
        outs.append(out)
        for frame, mask in (("adiabatic", ~lab_mask), ("lab", lab_mask)):
            if np.any(mask):
                where = "%s frame failed for modes %s" % (frame, np.flatnonzero(mask)[:8])
                if len(jobs) > 1:
                    where = "schedule %d (tau_q=%s): %s" % (j, schedule.tau_q, where)
                groups[frame].append(_Group(half or schedule, q[mask], mask, out, where,
                                            frame, tol, half is not None))
    for frame, frame_groups in groups.items():
        for block in _blocks(frame_groups):
            _lockstep(frame, block)
    for out in outs:
        out.p = np.abs(out.v_rot) ** 2
        out.meta["rejected"] = out.meta["steps"] - out.meta["accepted"]
    return outs


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
