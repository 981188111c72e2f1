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
per segment, and a step builds its six Hamiltonians H_a + dt H_b, and their
norm bounds, from one product with the (1, dt) rows.  Each exponential acts
through its Taylor series, cut below the unit roundoff and summed in Horner
form.  The single step of h and the first half step both start from y, so
their exponentials run in lock step as two chains of one stacked product;
a step runs four series instead of six.  Measured per step on one BLAS
thread, a batched dense eigh of the six Hamiltonians costs 1.2 to 1.4 times
as much as these Taylor steps at N = 8, 5 times at N = 10 and 15 times at
N = 12.
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


# Exponential nodes and lengths, in units of h, of one step-doubled step in
# the order the exponentials run: the first exponentials of the two half steps
# and of the single step, which both start from y; their second ones; then the
# second half step's two.
_NODES = np.array([1 / 12, 1 / 6, 5 / 12, 5 / 6, 7 / 12, 11 / 12])
_LENGTHS = np.array([0.25, 0.5, 0.25, 0.5, 0.25, 0.25])
# 1/k for k = 20 down to 1; theta <= 1 takes at most 18 terms
_INVERSE_K = (1.0 / np.arange(20, 0, -1))[:, None, None, None]


def _expm_apply(H, s, y, bound):
    """exp(-i s_j H_j) y_j for each chain j, the chains run in lock step.

    H is a (c, D, D) stack of real symmetric matrices with ||H_j||_2 <=
    bound_j, s and bound are (c,) arrays, and y is a (c, D, 1) complex stack.
    The Taylor series runs in m substeps with theta = max_j s_j bound_j / m
    <= 1, cut once theta^(n+1)/(n+1)! is below the unit roundoff (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33 (2011) 488), and is evaluated in Horner
    form.  The chains share m and n, those of the chain that needs most: more
    substeps or terms only shrink a chain's truncation error.
    """
    x = float((s * bound).max())
    m = max(1, math.ceil(x))
    theta = x / m
    n, rest = 0, theta
    while rest > 2.0 ** -53:
        n += 1
        rest *= theta / (n + 1)
    # coef[n - k] = -i s_j / (m k) on every entry of chain j
    coef = np.empty((n,) + y.shape, complex)
    np.multiply(_INVERSE_K[len(_INVERSE_K) - n:], (s * (-1j / m))[:, None, None], out=coef)
    Hy = np.empty(y.shape[:2] + (2,))
    Hy_c = Hy.view(complex)
    for _ in range(m):
        acc = y.copy()
        acc_f = acc.view(float)
        for c_k in coef:
            np.matmul(H, acc_f, out=Hy)
            np.multiply(Hy_c, c_k, out=acc)
            acc += y
        y = acc
    return y


def _step(ker, Hab, pab, dt, h, y):
    """Two commutator-free Magnus-4 steps of h/2 and one of h from y at dt into the segment.

    ``Hab`` stacks the segment's H_a and H_b, flattened, and ``pab`` its
    (g, J_x, J_y) at its start and their rates, so that H = H_a + dt H_b; the
    bounds N (|g| + |J_x| + |J_y|) come from the same affine parameters.
    """
    w = np.ones((6, 2))
    w[:, 1] = dt + h * _NODES
    H = (w @ Hab).reshape(6, ker.D, ker.D)
    bound = ker.N * np.abs(w @ pab).sum(axis=1)
    s = h * _LENGTHS
    y = _expm_apply(H[0:2], s[0:2], np.concatenate((y, y)), bound[0:2])
    y = _expm_apply(H[2:4], s[2:4], y, bound[2:4])
    fine = _expm_apply(H[5:], s[5:], _expm_apply(H[4:5], s[4:5], y[:1], bound[4:5]), bound[5:])
    return fine, y[1:]


def _evolve_sector(ker, schedule, y, opts):
    """Evolve the sector vector y, a (1, D, 1) complex array, across the schedule.

    A step's error is the 2-norm of the difference between one step of h and
    two of h/2, over abs_tol + rel_tol; ``evolver.StepControl`` sets the
    steps, and an accepted step keeps the two half steps.  A segment shorter
    than the step floor takes no step.
    """
    tol = opts.abs_tol + opts.rel_tol
    ctl = StepControl("ED")
    for seg in schedule.segments:
        h = ctl.h
        ctl.enter(seg.t_start, seg.t_end, seg)
        if seg.duration < ctl.h_tiny:
            # no step fits: the segment is a sudden quench, as a lab span of
            # ``evolve`` takes it, and the next one starts from the step so far
            ctl.h = h
            continue
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
    y, meta = _evolve_sector(_kernels(N), schedule, c.astype(complex).reshape(1, -1, 1), opts)
    return ManyBodyState(amplitudes=y.ravel(), N=N, meta=meta)


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
