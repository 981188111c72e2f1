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
instantaneous-eigenbasis frame the coupling theta_dot is tiny away from the
critical crossings, which lets the controller take large steps there.  Modes
whose gap closes along the path (possible only at isolated quasimomenta of
the XY protocols) fall back to the lab frame, where the equation is smooth.
Every step is exactly unitary, so norm conservation is automatic.

Groups and lock step.  A group is one schedule's modes in one frame.  The
modes of a group share one adaptive step: its controller accepts a step only
if every mode of the group meets the tolerance (a step that fails at
h <= 1e-12 raises NumericalFailure instead).  Many groups, from one schedule
or from a whole tau_Q sweep, advance together in one loop (``_lockstep``):
each pass tries one step of every group, each at its own t and h, on mode
arrays concatenated over the groups, so numpy's per-call overhead is paid
once for the batch instead of once per schedule.  Each group keeps its own
t, h, segment, step counts and norm drift, and its controller does the same
scalar arithmetic as for the group alone.  Its results are therefore bitwise
the same whichever groups share the batch and in whatever order;
``evolve_spectra_quadrature`` batches many schedules, and the one-schedule
entry points are calls into the same loop.  A result's ``meta`` records the
attempted ``steps``, of them ``accepted`` and ``rejected``, the smallest
accepted step ``h_min`` and the number of ``lab_modes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .lattice import mode_grid
from .quadrature import support_panels

_SQRT3 = math.sqrt(3.0)
_GL_LO = 0.5 - _SQRT3 / 6.0
_GL_HI = 0.5 + _SQRT3 / 6.0
_GL_NODES = np.array([[_GL_LO], [_GL_HI]])


class NumericalFailure(RuntimeError):
    """The adaptive integrator could not reach the requested tolerance."""


@dataclass
class SolverOptions:
    """Tolerances and frame selection for the mode evolver."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float | None = None
    frame: str = "auto"          # "auto" | "adiabatic" | "lab"
    gap_floor: float = 1e-4      # below this min gap a mode integrates in the lab frame
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3 and 0.0 < self.abs_tol <= 1e-3):
            raise ValueError("tolerances must lie in (0, 1e-3]")
        if self.frame not in ("auto", "adiabatic", "lab"):
            raise ValueError("unknown frame %r" % (self.frame,))
        if not (self.max_step is None or self.max_step > 0.0):
            raise ValueError("max_step must be None or > 0")
        if not (self.gap_floor >= 0.0 and self.max_steps >= 1):
            raise ValueError("gap_floor must be >= 0 and max_steps >= 1")


@dataclass
class SpectrumResult:
    """Final amplitudes and excitation probabilities over a set of modes.

    ``u_rot``/``v_rot`` are the amplitudes rotated into the equilibrium
    quasiparticle basis of the schedule's final parameters, so that
    p = |v_rot|^2; ``weights`` is None for plain mode grids and carries
    quadrature weights for Gauss-Legendre spectra.
    """

    schedule: object
    q: np.ndarray
    p: np.ndarray
    u: np.ndarray
    v: np.ndarray
    u_rot: np.ndarray
    v_rot: np.ndarray
    weights: np.ndarray | None = None
    norm_drift: float = 0.0
    meta: dict = field(default_factory=dict)


class _Group:
    """One schedule's modes in one frame, advanced under its own step controller.

    The controller state (t, h, segment, step counts, drift) is scalar and
    belongs to the group alone; its modes hold one contiguous slice of the
    lock-step batch.  ``out`` is the schedule's SpectrumResult and ``mask``
    picks the group's modes out of it.
    """

    def __init__(self, schedule, q, mask, out, where):
        self.schedule = schedule
        self.q = q
        self.mask = mask
        self.out = out
        self.where = where          # prefix of a failure message
        self.seg = -1
        self.h = 1e-3
        self.drift = 0.0
        self.steps = 0              # attempted, over all segments
        self.accepted = 0
        self.h_min = math.inf

    def fail(self, msg):
        return NumericalFailure("%s: %s" % (self.where, msg))

    def next_segment(self):
        """Enter the next segment and return it; None once the schedule is done."""
        self.seg += 1
        if self.seg == len(self.schedule.segments):
            return None
        seg = self.schedule.segments[self.seg]
        self.t, self.t_end = seg.t_start, seg.t_end
        self.h_tiny = 1e-13 * max(1.0, abs(self.t_end - self.t))
        self.h = min(self.h, self.t_end - self.t)
        self.seg_steps = 0
        return seg

    def clip(self, max_step, max_steps):
        """The step size to try next; raises once the step budget or size runs out."""
        if self.seg_steps > max_steps:
            raise self.fail("step budget exhausted at t=%g (h=%g)" % (self.t, self.h))
        if self.h < self.h_tiny:
            raise self.fail("step underflow at t=%g" % (self.t,))
        self.h = min(self.h, self.t_end - self.t)
        if max_step is not None:
            self.h = min(self.h, max_step)
        return self.h

    def control(self, err):
        """Accept or reject the step just tried (err in units of the tolerance)."""
        self.seg_steps += 1
        self.steps += 1
        accepted = err <= 1.0
        if accepted:
            self.t += self.h
            self.accepted += 1
            self.h_min = min(self.h_min, self.h)
        elif self.h <= 1e-12:
            raise self.fail("step at t=%g fails its tolerance at h=%g (err=%g)"
                            % (self.t, self.h, err))
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        self.h = self.h * min(5.0, max(0.2, factor))
        return accepted

    def finish(self, frame, a, b):
        """Rotate the final amplitudes and write them and the statistics to ``out``."""
        thetaf = _bogoliubov_angle(self.schedule, self.q, self.schedule.t_end)
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


def _step_rows(t, h, seg):
    """Per-group inputs of the three Magnus applies of one step-doubled step.

    ``t`` and ``h`` hold each group's time and step, ``seg`` the rows
    (t0, g0, gdot, jy0, jydot) of each group's segment.  Row i of the
    result is apply i (full step, first half, second half) and holds g and
    J_y at its two Gauss points, then h/2 and the commutator weight
    sqrt(3) h^2 / 6.
    """
    t0, g0, gdot, jy0, jydot = seg
    hs = np.array([h, 0.5 * h, 0.5 * h])
    ts = np.array([t, t, t + 0.5 * h])
    dt = ts[:, None] + _GL_NODES * hs[:, None] - t0
    rows = np.empty((3, 6, len(t)))
    rows[:, 0:2] = g0 + gdot * dt
    rows[:, 2:4] = jy0 + jydot * dt
    rows[:, 4] = 0.5 * hs
    rows[:, 5] = _SQRT3 * hs * hs / 6.0
    return rows


def _generator(frame, modes, g, jy):
    """The two non-zero components (w, z) of every mode's su(2) generator at (g, 1, jy).

    The generator is (w, 0, z) = (delta, 0, eps) in the lab frame and
    (0, w, z) = (0, -theta_dot, omega) in the adiabatic frame.
    """
    cq, sq, epsdot, deltadot = modes
    # J_x is pinned to 1 on every schedule
    eps, delta = lattice.eps_delta(g, 1.0, jy, cq, sq)
    if frame == "lab":
        return delta, eps
    om2 = eps * eps + delta * delta
    thetadot = (eps * deltadot - delta * epsdot) / (2.0 * om2)
    return -thetadot, np.sqrt(om2)


def _magnus_apply(frame, modes, rows, a, b):
    """One 4th-order Magnus step: exact su(2) exponential of the averaged generator.

    The Magnus vector is h/2 (G1 + G2) + sqrt(3) h^2 / 6 (G2 x G1) for the
    generators G1, G2 at the two Gauss points; with one generator component
    zero in either frame, the terms that vanish are left out.
    """
    g1, g2, jy1, jy2, hh, k = rows
    w1, z1 = _generator(frame, modes, g1, jy1)
    w2, z2 = _generator(frame, modes, g2, jy2)
    if frame == "lab":
        dx = hh * (w1 + w2)
        dy = k * (z2 * w1 - w2 * z1)
    else:
        dx = k * (w2 * z1 - z2 * w1)
        dy = hh * (w1 + w2)
    dz = hh * (z1 + z2)
    phi = np.sqrt(dx * dx + dy * dy + dz * dz)
    c = np.cos(phi)
    small = phi < 1e-8
    if small.any():
        s = np.where(small, 1.0 - phi * phi / 6.0,
                     np.sin(np.where(small, 1.0, phi)) / np.where(small, 1.0, phi))
    else:
        s = np.sin(phi) / phi
    isdz = 1j * s * dz
    idx = -1j * dx
    am = (c - isdz) * a + (idx - dy) * s * b
    bm = (idx + dy) * s * a + (c + isdz) * b
    return am, bm


def _drift(a, b):
    return np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))


def _lockstep(frame, groups, opts):
    """Advance every group across its schedule in one frame, all in lock step.

    Each pass tries one step-doubled Magnus-4 step of every group at the
    group's own t and h, on mode arrays concatenated over the groups.  Each
    group's controller then accepts or rejects on the largest error among
    its own modes.  The arithmetic per mode and per group is the same as for
    the group alone, so its results are bitwise independent of the batch.
    A group that ends a segment rewrites only its own slice; a group that
    ends its schedule writes its results and leaves the batch.
    """
    scale = opts.abs_tol + opts.rel_tol
    counts = np.array([len(g.q) for g in groups])
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    q = np.concatenate([g.q for g in groups])
    cq, sq = np.cos(q), np.sin(q)
    epsdot, deltadot = np.empty_like(q), np.empty_like(q)
    seg = np.empty((5, len(groups)))

    def enter(i, group):
        """Set group i up on its next segment; False once it has none."""
        s = group.next_segment()
        if s is None:
            return False
        sl = slice(starts[i], starts[i] + counts[i])
        rates = s.rates()
        seg[:, i] = s.t_start, s.params_start[0], rates[0], s.params_start[2], rates[2]
        epsdot[sl], deltadot[sl] = lattice.eps_delta(*rates, cq[sl], sq[sl])
        return True

    if frame == "adiabatic":
        a = np.ones(q.shape, dtype=complex)
        b = np.zeros(q.shape, dtype=complex)
    else:
        theta0 = np.concatenate([_bogoliubov_angle(g.schedule, g.q, g.schedule.t_start)
                                 for g in groups])
        a = np.cos(theta0).astype(complex)   # lab-frame u
        b = np.sin(theta0).astype(complex)   # lab-frame v
    for i, g in enumerate(groups):
        enter(i, g)
    while groups:
        t = np.array([g.t for g in groups])
        h = np.array([g.clip(opts.max_step, opts.max_steps) for g in groups])
        rows = _step_rows(t, h, seg)
        if len(groups) > 1:
            rows = np.repeat(rows, counts, axis=2)
        modes = (cq, sq, epsdot, deltadot)
        a1, b1 = _magnus_apply(frame, modes, rows[0], a, b)
        ah, bh = _magnus_apply(frame, modes, rows[1], a, b)
        a2, b2 = _magnus_apply(frame, modes, rows[2], ah, bh)
        err_a = np.maximum.reduceat(np.abs(a1 - a2), starts)
        err_b = np.maximum.reduceat(np.abs(b1 - b2), starts)
        accepted = [g.control(max(ea, eb) / scale)
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
            a, b, cq, sq, epsdot, deltadot = (
                x[take] for x in (a, b, cq, sq, epsdot, deltadot))
            seg = seg[:, keep]
            counts = counts[keep]
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            groups = [g for g, k in zip(groups, keep) if k]


def _min_gap(schedule, q):
    """Minimum omega_q along the schedule, closed form per segment."""
    q = np.asarray(q, dtype=float)
    best = np.full(q.shape, np.inf)
    for seg in schedule.segments:
        best = np.minimum(best, np.sqrt(seg.closest_approach(q)[0]))
    return best


def _bogoliubov_angle(schedule, q, t):
    eps, delta = lattice.eps_delta(*schedule.eval(t), np.cos(q), np.sin(q))
    return 0.5 * np.arctan2(delta, eps)


def _evolve(jobs, opts):
    """Evolve the modes q of every (schedule, q) job; one SpectrumResult per job.

    Each job's modes are split by frame into groups, and the groups of each
    frame advance together in one lock-step batch.
    """
    opts = opts or SolverOptions()
    groups = {"adiabatic": [], "lab": []}
    outs = []
    for j, (schedule, q) in enumerate(jobs):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(q <= 0.0) or np.any(q >= math.pi):
            raise ValueError("quasimomenta must lie in (0, pi)")
        if opts.frame == "auto":
            lab_mask = _min_gap(schedule, q) <= opts.gap_floor
        elif opts.frame == "lab":
            lab_mask = np.ones(q.shape, dtype=bool)
        else:
            lab_mask = np.zeros(q.shape, dtype=bool)
        u, v, u_rot, v_rot = (np.empty(q.shape, dtype=complex) for _ in range(4))
        out = SpectrumResult(schedule, q, None, u, v, u_rot, v_rot, meta={
            "steps": 0, "accepted": 0, "rejected": 0, "h_min": math.inf,
            "lab_modes": int(np.count_nonzero(lab_mask))})
        outs.append(out)
        for frame, mask in (("adiabatic", ~lab_mask), ("lab", lab_mask)):
            if np.any(mask):
                where = "%s frame failed for modes %s" % (frame, np.flatnonzero(mask)[:8])
                if len(jobs) > 1:
                    where = "schedule %d (tau_q=%s): %s" % (j, schedule.tau_q, where)
                groups[frame].append(_Group(schedule, q[mask], mask, out, where))
    for frame, frame_groups in groups.items():
        if frame_groups:
            _lockstep(frame, frame_groups, opts)
    for out in outs:
        out.p = np.abs(out.v_rot) ** 2
        out.meta["rejected"] = out.meta["steps"] - out.meta["accepted"]
    return outs


def evolve_modes(schedule, q, opts=None):
    """Evolve an array of positive quasimomenta through the schedule.

    Returns a SpectrumResult without weights: lab-frame (u, v),
    final-equilibrium-frame (u_rot, v_rot), p = |v_rot|^2, the worst norm
    drift and, in ``meta``, the solver statistics: ``steps`` attempted, of
    them ``accepted`` and ``rejected``, the smallest accepted step ``h_min``
    and the number of ``lab_modes``.
    """
    return _evolve([(schedule, q)], opts)[0]


def evolve_spectrum(schedule, N, opts=None):
    """Evolve every positive mode of an N-site chain (midpoint quadrature grid)."""
    res = evolve_modes(schedule, mode_grid(N).q, opts)
    res.meta["N"] = N
    return res


def evolve_spectra_quadrature(schedules, opts=None, order=16, n_support=12, max_r=0.0):
    """Evolve each schedule's modes on its own Gauss-Legendre panels over (0, pi).

    All schedules advance in one lock-step batch; each result is bitwise the
    same as ``evolve_spectrum_quadrature`` of its schedule alone.
    """
    panels = [support_panels(s, order=order, n_support=n_support, max_r=max_r)
              for s in schedules]
    results = _evolve([(s, q) for s, (q, _) in zip(schedules, panels)], opts)
    for res, (_, w) in zip(results, panels):
        res.weights = w
        res.meta["order"] = order
    return results


def evolve_spectrum_quadrature(schedule, opts=None, order=16, n_support=12, max_r=0.0):
    """Evolve modes on schedule-adapted Gauss-Legendre panels over (0, pi)."""
    return evolve_spectra_quadrature([schedule], opts, order, n_support, max_r)[0]


def defect_density(spectrum):
    """n = (1/pi) integral_0^pi p_q dq (mean over the grid for finite-N spectra)."""
    if spectrum.weights is None:
        return float(np.mean(spectrum.p))
    return float(np.sum(spectrum.weights * spectrum.p) / math.pi)


def fermion_density(spectrum):
    """Density of c-fermions (1/pi) integral |v_q|^2 dq; the sigma^z defect measure."""
    occ = np.abs(spectrum.v) ** 2
    if spectrum.weights is None:
        return float(np.mean(occ))
    return float(np.sum(spectrum.weights * occ) / math.pi)
