"""Small-N exact many-body oracle for the spin chains.

Validates the free-fermion pipeline end to end without going through it.
H(t) = -g Z - J_x X - J_y Y, with Z = sum_j sz_j, X = sum_j sx_j sx_{j+1} and
Y = sum_j sy_j sy_{j+1} on the periodic chain, commutes with translation,
reflection and parity, so the even-parity ground state and its evolution stay
in the k = 0, reflection-even, even-parity sector, spanned by uniform
superpositions over orbits of z-basis configurations (18 states at N = 8, 122
at N = 12).  The ground state is a dense eigh of the sector H.  Steps are
commutator-free Magnus-4 (Blanes & Moan, Appl. Numer. Math. 56 (2006) 1519),
exp(-i h/2 H(t + 5h/6)) exp(-i h/2 H(t + h/6)) for H affine on a segment,
under ``evolver.StepControl``, the step-doubling control of the mode evolver.
Each exponential acts through its Taylor series, cut below the unit roundoff;
a dense eigh per exponential would cost O(D^3), which at N = 12 is no faster
than full-space Runge-Kutta.
Observables are measured in the sector: flips from the representatives' spin
counts, kinks from the sector matrix of X, and parity, +1 by construction of
the basis, from the representatives' spin-count parity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .evolver import SolverOptions, StepControl


@dataclass
class ManyBodyState:
    """Amplitudes on the sector basis of ``_kernels(N)``, the uniform
    superpositions over orbits ordered by representative; ``meta`` holds the
    evolution's attempted ``steps``, ``accepted``, ``rejected``, smallest
    accepted step ``h_min`` and ``sector_dim``."""

    amplitudes: np.ndarray
    N: int
    t: float = 0.0
    meta: dict = field(default_factory=dict)


MAX_N = 14


def check_chain_length(N):
    """Raise ValueError unless N is an even integer within 2..MAX_N (memory limit)."""
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N % 2 != 0 \
            or not 2 <= N <= MAX_N:
        raise ValueError("N must be an even integer within 2..%d (memory limit), got %r"
                         % (MAX_N, N))


class _Kernels:
    """The symmetric sector's basis and matrices, built from the full space's orbits."""

    def __init__(self, N):
        check_chain_length(N)
        self.N = N
        dim = 1 << N
        states = np.arange(dim, dtype=np.int64)
        pop = np.bitwise_count(states).astype(np.int64)
        masks = [(1 << j) | (1 << (j + 1) % N) for j in range(N)]

        # orbit representative: the smallest image under translation and reflection
        mirror = np.zeros_like(states)
        for j in range(N):
            mirror |= ((states >> j) & 1) << (N - 1 - j)
        rep = states.copy()
        for s in (states, mirror):
            for r in range(N):
                rep = np.minimum(rep, ((s << r) | (s >> (N - r))) & (dim - 1))
        even = np.flatnonzero(pop % 2 == 0)
        reps, inverse, size = np.unique(rep[even], return_inverse=True, return_counts=True)
        orbit = np.full(dim, -1)
        orbit[even] = inverse
        self.D, sqrt_size = len(reps), np.sqrt(size)
        self.down = pop[reps]                   # flipped spins, the same across an orbit
        self.z = (N - 2 * self.down).astype(float)

        # <a|A|b> = sqrt(|b|/|a|) sum_{s in a} <s|A|r_b>: apply each bond to the representatives
        self.X, self.Y = np.zeros((self.D, self.D)), np.zeros((self.D, self.D))
        cols = np.arange(self.D)
        for j, m in enumerate(masks):
            rows = orbit[reps ^ m]
            amp = sqrt_size / sqrt_size[rows]
            # <s'|yy|s> = -1 when the two bits agree, +1 when they differ
            differ = ((reps >> j) ^ (reps >> (j + 1) % N)) & 1
            np.add.at(self.X, (rows, cols), amp)
            np.add.at(self.Y, (rows, cols), (2.0 * differ - 1.0) * amp)

    def hamiltonians(self, g, jx, jy):
        """Sector matrices of H for parameter arrays of one shape, stacked along axis 0."""
        g, jx, jy = (np.asarray(p, dtype=float)[..., None, None] for p in (g, jx, jy))
        return -g * np.diag(self.z) - jx * self.X - jy * self.Y


@functools.cache
def _kernels(N):
    return _Kernels(N)


def ground_state(N, params):
    """Even-parity ground state of H(g, J_x, J_y), from a dense eigh in the sector."""
    vecs = np.linalg.eigh(_kernels(N).hamiltonians(*params))[1]
    return ManyBodyState(amplitudes=vecs[:, 0], N=N)


# Exponential nodes and lengths, in units of h, of one step-doubled step: the
# two Magnus-4 steps of h/2, then the single step of h.
_NODES = np.array([1 / 12, 5 / 12, 7 / 12, 11 / 12, 1 / 6, 5 / 6])
_LENGTHS = (0.25, 0.25, 0.25, 0.25, 0.5, 0.5)
_TIMES_MINUS_I = np.array([1.0, -1.0])     # (im, re) -> parts of -i (re + i im)


def _expm_apply(H, s, y, bound):
    """exp(-i s H) y, y as (real, imag) columns, for real symmetric H with ||H||_2 <= bound.

    Taylor series in m substeps with theta = s bound / m <= 1, each cut once
    theta^(n+1)/(n+1)! is below the unit roundoff (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33 (2011) 488).
    """
    m = max(1, math.ceil(s * bound))
    theta = s * bound / m
    n, rest = 0, theta
    while rest > 2.0 ** -53:
        n += 1
        rest *= theta / (n + 1)
    sub = s / m
    for _ in range(m):
        term = acc = y
        for k in range(1, n + 1):
            term = (H @ term)[:, ::-1] * (sub / k * _TIMES_MINUS_I)
            acc = acc + term
        y = acc
    return y


def _step(ker, seg, t, h, y):
    """Two commutator-free Magnus-4 steps of h/2 and one of h from y at t."""
    g, jx, jy = seg.eval(t + h * _NODES)
    H = ker.hamiltonians(g, jx, jy)
    bound = ker.N * (np.abs(g) + np.abs(jx) + np.abs(jy))

    def expm(k, y):
        return _expm_apply(H[k], h * _LENGTHS[k], y, bound[k])

    return expm(3, expm(2, expm(1, expm(0, y)))), expm(5, expm(4, y))


def _evolve_sector(ker, schedule, y, opts):
    """Evolve sector vector y, as (real, imag) columns, across the schedule.

    A step's error is the 2-norm of the difference between one step of h and
    two of h/2, over abs_tol + rel_tol; ``evolver.StepControl`` sets the
    steps, and an accepted step keeps the two half steps.
    """
    tol = opts.abs_tol + opts.rel_tol
    ctl = StepControl("ED")
    for seg in schedule.segments:
        ctl.enter(seg.t_start, seg.t_end, seg)
        while ctl.t < seg.t_end:
            fine, coarse = _step(ker, seg, ctl.t, ctl.clip(), y)
            if ctl.control(float(np.linalg.norm(fine - coarse)) / tol):
                y = fine
    return y, {"steps": ctl.steps, "accepted": ctl.accepted,
               "rejected": ctl.steps - ctl.accepted, "h_min": ctl.h_min, "sector_dim": ker.D}


def evolve_exact(schedule, N, opts=None):
    """Evolve the even-parity ground state at schedule start through the schedule."""
    opts = opts or SolverOptions()
    c = ground_state(N, schedule.params_at(schedule.t_start)).amplitudes
    y, meta = _evolve_sector(_kernels(N), schedule, np.column_stack([c.real, c.imag]), opts)
    return ManyBodyState(amplitudes=y[:, 0] + 1j * y[:, 1], N=N, t=schedule.t_end, meta=meta)


def parity_expectation(state):
    """<prod_j sigma^z_j>; +1 by construction of the even sector."""
    ker = _kernels(state.N)
    w = np.abs(state.amplitudes) ** 2
    return float(((1 - 2 * (ker.down % 2)) * w).sum() / w.sum())


def measure_defects(state, basis_kind):
    """Defect density: flipped spins ("paramagnetic") or kinks ("ferromagnetic").

    paramagnetic:  (1/2N) sum_j <1 - sigma^z_j>
    ferromagnetic: (1/2N) sum_j <1 - sigma^x_j sigma^x_{j+1}>
    """
    ker = _kernels(state.N)
    c = state.amplitudes
    w = np.abs(c) ** 2
    nrm = w.sum()
    if basis_kind == "paramagnetic":
        return float((w * ker.down).sum() / nrm / state.N)
    if basis_kind == "ferromagnetic":
        acc = float(np.real(np.vdot(c, ker.X @ c)))
        return float(0.5 * (state.N - acc / nrm) / state.N)
    raise ValueError("basis_kind must be 'paramagnetic' or 'ferromagnetic'")
