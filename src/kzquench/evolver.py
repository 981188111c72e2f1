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

Batches of modes are advanced together with vectorized arithmetic and a
shared adaptive step; results are deterministic and independent of batch
composition order.
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


class _SegmentCoeffs:
    """su(2) coefficient evaluation for one linear segment, vectorized over modes."""

    def __init__(self, segment, q):
        rates = segment.rates()
        self.t0 = segment.t_start
        self.t1 = segment.t_end
        self.cq = np.cos(q)
        self.sq = np.sin(q)
        # J_x is pinned to 1 on every schedule, so only g and J_y move
        self.g0, self.jx, self.jy0 = segment.params_start
        self.gdot, _, self.jydot = rates
        self.epsdot, self.deltadot = lattice.eps_delta(*rates, self.cq, self.sq)

    def eps_delta(self, t):
        dt = t - self.t0
        return lattice.eps_delta(self.g0 + self.gdot * dt, self.jx, self.jy0 + self.jydot * dt,
                                 self.cq, self.sq)

    def lab(self, t):
        eps, delta = self.eps_delta(t)
        return delta, 0.0, eps

    def adiabatic(self, t):
        eps, delta = self.eps_delta(t)
        om2 = eps * eps + delta * delta
        thetadot = (eps * self.deltadot - delta * self.epsdot) / (2.0 * om2)
        return 0.0, -thetadot, np.sqrt(om2)


def _magnus_apply(coeffs, frame, t, h, a, b):
    """One 4th-order Magnus step: exact su(2) exponential of the averaged generator."""
    f = coeffs.adiabatic if frame == "adiabatic" else coeffs.lab
    x1, y1, z1 = f(t + _GL_LO * h)
    x2, y2, z2 = f(t + _GL_HI * h)
    k = _SQRT3 * h * h / 6.0
    dx = 0.5 * h * (x1 + x2) + k * (y2 * z1 - z2 * y1)
    dy = 0.5 * h * (y1 + y2) + k * (z2 * x1 - x2 * z1)
    dz = 0.5 * h * (z1 + z2) + k * (x2 * y1 - y2 * x1)
    phi = np.sqrt(dx * dx + dy * dy + dz * dz)
    c = np.cos(phi)
    small = phi < 1e-8
    s = np.where(small, 1.0 - phi * phi / 6.0, np.sin(np.where(small, 1.0, phi)) / np.where(small, 1.0, phi))
    am = (c - 1j * s * dz) * a + (-1j * dx - dy) * s * b
    bm = (-1j * dx + dy) * s * a + (c + 1j * s * dz) * b
    return am, bm


def _integrate_segment(coeffs, frame, a, b, opts, h_init, norm_track):
    """Advance (a, b) across one segment with step-doubled Magnus-4 control."""
    t = coeffs.t0
    t_end = coeffs.t1
    h = min(h_init, t_end - t)
    scale = opts.abs_tol + opts.rel_tol
    steps = 0
    max_drift = norm_track[0]
    while t < t_end:
        if steps > opts.max_steps:
            raise NumericalFailure("step budget exhausted at t=%g (h=%g)" % (t, h))
        if h < 1e-13 * max(1.0, abs(t_end - coeffs.t0)):
            raise NumericalFailure("step underflow at t=%g" % (t,))
        h = min(h, t_end - t)
        if opts.max_step is not None:
            h = min(h, opts.max_step)
        a1, b1 = _magnus_apply(coeffs, frame, t, h, a, b)
        ah, bh = _magnus_apply(coeffs, frame, t, 0.5 * h, a, b)
        a2, b2 = _magnus_apply(coeffs, frame, t + 0.5 * h, 0.5 * h, ah, bh)
        err = max(np.max(np.abs(a1 - a2)), np.max(np.abs(b1 - b2))) / scale
        steps += 1
        if err <= 1.0 or h <= 1e-12:
            t += h
            a, b = a2, b2
            if steps % 64 == 0:
                drift = np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))
                max_drift = max(max_drift, drift)
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    drift = np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))
    norm_track[0] = max(max_drift, drift)
    return a, b, h, steps


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


def _evolve_batch(schedule, q, opts, frame):
    """Evolve a batch of modes in one frame; returns rotated and lab amplitudes."""
    q = np.asarray(q, dtype=float)
    theta0 = _bogoliubov_angle(schedule, q, schedule.t_start)
    if frame == "adiabatic":
        a = np.ones(q.shape, dtype=complex)
        b = np.zeros(q.shape, dtype=complex)
    else:
        a = np.cos(theta0).astype(complex)   # lab-frame u
        b = np.sin(theta0).astype(complex)   # lab-frame v
    norm_track = [0.0]
    h = 1e-3
    total_steps = 0
    for seg in schedule.segments:
        coeffs = _SegmentCoeffs(seg, q)
        a, b, h, steps = _integrate_segment(coeffs, frame, a, b, opts, h, norm_track)
        total_steps += steps
    thetaf = _bogoliubov_angle(schedule, q, schedule.t_end)
    cf, sf = np.cos(thetaf), np.sin(thetaf)
    if frame == "adiabatic":
        u = cf * a - sf * b
        v = sf * a + cf * b
        u_rot, v_rot = a, b
    else:
        u, v = a, b
        u_rot = u * cf + v * sf
        v_rot = v * cf - u * sf
    return u, v, u_rot, v_rot, norm_track[0], total_steps


def evolve_modes(schedule, q, opts=None):
    """Evolve an array of positive quasimomenta through the schedule.

    Returns a dict with lab-frame (u, v), final-equilibrium-frame
    (u_rot, v_rot), p = |v_rot|^2, the worst norm drift and step counts.
    """
    opts = opts or SolverOptions()
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any(q <= 0.0) or np.any(q >= math.pi):
        raise ValueError("quasimomenta must lie in (0, pi)")
    if opts.frame == "auto":
        lab_mask = _min_gap(schedule, q) <= opts.gap_floor
    elif opts.frame == "lab":
        lab_mask = np.ones(q.shape, dtype=bool)
    else:
        lab_mask = np.zeros(q.shape, dtype=bool)
    u = np.empty(q.shape, dtype=complex)
    v = np.empty_like(u)
    u_rot = np.empty_like(u)
    v_rot = np.empty_like(u)
    drift = 0.0
    steps = 0
    for frame, mask in (("adiabatic", ~lab_mask), ("lab", lab_mask)):
        if not np.any(mask):
            continue
        try:
            res = _evolve_batch(schedule, q[mask], opts, frame)
        except NumericalFailure as exc:
            idx = np.flatnonzero(mask)
            raise NumericalFailure(
                "%s frame failed for modes %s: %s" % (frame, idx[:8], exc)
            ) from exc
        u[mask], v[mask], u_rot[mask], v_rot[mask] = res[:4]
        drift = max(drift, res[4])
        steps += res[5]
    p = np.abs(v_rot) ** 2
    return {"u": u, "v": v, "u_rot": u_rot, "v_rot": v_rot, "p": p,
            "norm_drift": drift, "steps": steps}


def evolve_spectrum(schedule, N, opts=None):
    """Evolve every positive mode of an N-site chain (midpoint quadrature grid)."""
    grid = mode_grid(N)
    res = evolve_modes(schedule, grid.q, opts)
    return SpectrumResult(schedule=schedule, q=grid.q, p=res["p"], u=res["u"], v=res["v"],
                          u_rot=res["u_rot"], v_rot=res["v_rot"], weights=None,
                          norm_drift=res["norm_drift"], meta={"N": N, "steps": res["steps"]})


def evolve_spectrum_quadrature(schedule, opts=None, order=16, n_support=12, max_r=0.0):
    """Evolve modes on schedule-adapted Gauss-Legendre panels over (0, pi)."""
    q, w = support_panels(schedule, order=order, n_support=n_support, max_r=max_r)
    res = evolve_modes(schedule, q, opts)
    return SpectrumResult(schedule=schedule, q=q, p=res["p"], u=res["u"], v=res["v"],
                          u_rot=res["u_rot"], v_rot=res["v_rot"], weights=w,
                          norm_drift=res["norm_drift"],
                          meta={"order": order, "steps": res["steps"]})


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
