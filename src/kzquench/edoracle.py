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
H is affine on a segment, so its sector matrices H_a and H_b are taken once
per segment, and a step builds its six s H = s (H_a + dt H_b), s the length
of each exponential, and their norm bounds from one product with the rows
s (1, dt).  Each exponential acts through its Taylor series, cut below the
unit roundoff: one real 2-D product per term forms the Krylov vectors, and
one more sums them.  The six run one at a time, four for the two half steps
and two for the single step of h.  On one BLAS thread a step of the
tau_Q = 1.05 round trip costs about 0.09 ms at N = 8, 0.12 ms at N = 10,
0.32 ms at N = 12 and 2.2 ms at N = 14 (2-core x86-64 machine).
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


# Exponential nodes and lengths, in units of h, of one step-doubled step:
# E0 and E2 are the first half step's exponentials, E4 and E5 the second's,
# E1 and E3 the single step's.
_NODES = np.array([1 / 12, 1 / 6, 5 / 12, 5 / 6, 7 / 12, 11 / 12])
_LENGTHS = np.array([0.25, 0.5, 0.25, 0.5, 0.25, 0.25])
# (-i)^k / k! for k = 0 to 19; theta <= 1 takes at most 18 terms
_TAYLOR = np.array([(-1j) ** k / math.factorial(k) for k in range(20)])


def _expm_apply(sH, x, y):
    """exp(-i sH) y for a real symmetric (D, D) matrix sH with ||sH||_2 <= x.

    y is a (D,) complex vector.  The Taylor series runs in m = ceil(x)
    substeps of A = sH / m, whose norm is at most theta = x / m <= 1, cut
    once theta^(n+1)/(n+1)! is below the unit roundoff (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33 (2011) 488).  A substep forms the Krylov vectors
    A^k y, one real product each on the float view of the complex rows, and
    sums them with the weights (-i)^k / k! in one product.
    """
    m = max(1, math.ceil(x))
    theta = x / m
    n, rest = 0, theta
    while rest > 2.0 ** -53:
        n += 1
        rest *= theta / (n + 1)
    A = sH if m == 1 else sH / m
    coef = _TAYLOR[:n + 1]
    U = np.empty((n + 1, len(y)), complex)
    Uf = U.view(float).reshape(n + 1, -1, 2)
    for _ in range(m):
        U[0] = y
        for k in range(n):
            np.dot(A, Uf[k], out=Uf[k + 1])
        y = coef @ U
    return y


def _step(ker, Hab, pab, dt, h, y):
    """Two commutator-free Magnus-4 steps of h/2 and one of h from y at dt into the segment.

    ``Hab`` stacks the segment's H_a and H_b, flattened, and ``pab`` its
    (g, J_x, J_y) at its start and their rates, so that H = H_a + dt H_b.
    The rows s_j (1, dt + h _NODES[j]), s_j = h _LENGTHS[j], give all six
    s_j H and their norm bounds s_j N (|g| + |J_x| + |J_y|) in one product
    each.  Returns fine = E5 E4 E2 E0 y and coarse = E3 E1 y.
    """
    w = np.empty((6, 2))
    w[:, 0] = h * _LENGTHS
    w[:, 1] = w[:, 0] * (dt + h * _NODES)
    sH = (w @ Hab).reshape(6, ker.D, ker.D)
    x = (ker.N * np.abs(w @ pab).sum(axis=1)).tolist()
    fine = y
    for j in (0, 2, 4, 5):
        fine = _expm_apply(sH[j], x[j], fine)
    return fine, _expm_apply(sH[3], x[3], _expm_apply(sH[1], x[1], y))


def _evolve_sector(ker, schedule, y, opts):
    """Evolve the sector vector y, a (D,) complex array, across the schedule.

    A step's error is the 2-norm of the difference between one step of h and
    two of h/2, over abs_tol + rel_tol; ``evolver.StepControl`` sets the
    steps, and an accepted step keeps the two half steps.  A segment shorter
    than the step floor ends in ``StepControl.enter`` and takes no step: the
    state is left as it was, the sudden quench, as ``evolve`` takes any span
    that short.
    """
    tol = opts.abs_tol + opts.rel_tol
    ctl = StepControl("ED")
    for seg in schedule.segments:
        ctl.enter(seg.t_start, seg.t_end, seg, [0])
        pab = np.array([seg.params_start, seg.rates()])
        Hab = ker.hamiltonians(*pab.T).reshape(2, -1)
        while ctl.t < seg.t_end:
            fine, coarse = _step(ker, Hab, pab, ctl.t - seg.t_start, ctl.clip(), y)
            d = fine - coarse
            if ctl.control(math.sqrt(np.vdot(d, d).real) / tol):
                y = fine
    return y, {"steps": ctl.steps, "accepted": ctl.accepted,
               "rejected": ctl.steps - ctl.accepted, "h_min": ctl.h_min, "sector_dim": ker.D}


def evolve_exact(schedule, N, opts=None):
    """Evolve the even-parity ground state at schedule start through the schedule."""
    opts = opts or SolverOptions()
    c = ground_state(N, schedule.params_at(schedule.t_start)).amplitudes
    y, meta = _evolve_sector(_kernels(N), schedule, c.astype(complex), opts)
    return ManyBodyState(amplitudes=y, N=N, meta=meta)


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
