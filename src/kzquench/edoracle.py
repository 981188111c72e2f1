"""Small-N exact many-body oracle for the spin chains.

Evolves the full 2^N state vector of the periodic chain under a Schedule and
measures defect operators directly, validating the free-fermion pipeline end
to end.  The Hamiltonian acts matrix-free through bitwise spin-flip kernels;
the ground state comes from Lanczos restricted to the even-parity sector
(parity is diagonal in the z basis, so the sector is closed under H and the
start vector fixes it).  Time stepping uses an adaptive Dormand-Prince 5(4)
pair on the gauge-transformed equation i chi' = (H(t) - <H>) chi, which
removes the fast global phase without touching any observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolver import NumericalFailure, SolverOptions


@dataclass
class ManyBodyState:
    """Full many-body amplitudes over the 2^N z-basis configurations."""

    amplitudes: np.ndarray
    N: int
    t: float = 0.0


MAX_N = 14


def check_chain_length(N):
    """Raise ValueError unless N is an even integer within 2..MAX_N (memory limit)."""
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N % 2 != 0 \
            or not 2 <= N <= MAX_N:
        raise ValueError("N must be an even integer within 2..%d (memory limit), got %r"
                         % (MAX_N, N))


class _Kernels:
    """Precomputed index/phase tables for matrix-free H application."""

    def __init__(self, N):
        check_chain_length(N)
        self.N = N
        dim = 1 << N
        self.dim = dim
        states = np.arange(dim, dtype=np.uint32)
        pop = np.bitwise_count(states).astype(np.int64)
        self.zsum = (N - 2 * pop).astype(float)      # sum_j <s|sigma^z_j|s>
        self.popcount = pop
        self.parity = 1.0 - 2.0 * (pop % 2)
        self.perms = []
        self.yy_sign = []
        for j in range(N):
            k = (j + 1) % N
            mask = np.uint32((1 << j) | (1 << k))
            self.perms.append(states ^ mask)
            bj = (states >> np.uint32(j)) & 1
            bk = (states >> np.uint32(k)) & 1
            # <s'|yy|s> = -1 when the two bits agree, +1 when they differ
            self.yy_sign.append((2.0 * (bj ^ bk) - 1.0).astype(float))

    def apply(self, psi, g, jx, jy):
        out = (-g) * self.zsum * psi
        for perm, ysign in zip(self.perms, self.yy_sign):
            flipped = psi[perm]
            out -= jx * flipped
            if jy != 0.0:
                out -= jy * ysign * flipped
        return out


_KERNEL_CACHE = {}


def _kernels(N):
    if N not in _KERNEL_CACHE:
        _KERNEL_CACHE[N] = _Kernels(N)
    return _KERNEL_CACHE[N]


def ground_state(N, params):
    """Even-parity ground state of H(g, J_x, J_y) by Lanczos with reorthogonalization."""
    g, jx, jy = params
    ker = _kernels(N)
    dim = ker.dim
    even = ker.popcount % 2 == 0
    v0 = np.zeros(dim)
    v0[even] = 1.0
    v0[0] += dim     # bias towards the polarized configuration, stays even-sector
    v0 /= np.linalg.norm(v0)
    m = min(dim // 2, 160)
    V = np.zeros((m, dim))
    alphas = np.zeros(m)
    betas = np.zeros(m)
    V[0] = v0
    w = ker.apply(V[0], g, jx, jy)
    alphas[0] = V[0] @ w
    w -= alphas[0] * V[0]
    k_used = 1
    for k in range(1, m):
        betas[k - 1] = np.linalg.norm(w)
        if betas[k - 1] < 1e-12:
            break
        V[k] = w / betas[k - 1]
        # full reorthogonalization
        V[k] -= V[:k].T @ (V[:k] @ V[k])
        V[k] /= np.linalg.norm(V[k])
        w = ker.apply(V[k], g, jx, jy)
        alphas[k] = V[k] @ w
        w -= alphas[k] * V[k] + betas[k - 1] * V[k - 1]
        k_used = k + 1
    T = np.diag(alphas[:k_used]) + np.diag(betas[:k_used - 1], 1) + np.diag(betas[:k_used - 1], -1)
    evals, evecs = np.linalg.eigh(T)
    gs = evecs[:, 0] @ V[:k_used]
    gs /= np.linalg.norm(gs)
    # polish with a couple of shifted power iterations against residual
    for _ in range(3):
        hv = ker.apply(gs, g, jx, jy)
        e = gs @ hv
        resid = hv - e * gs
        if np.linalg.norm(resid) < 1e-12:
            break
        shift = e - max(1.0, abs(e))
        w = hv - shift * gs
        gs = w / np.linalg.norm(w)
    return ManyBodyState(amplitudes=gs.astype(complex), N=N)


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])


def _rk45(fun, t0, t1, y0, rel_tol, abs_tol, max_steps=2_000_000):
    """Adaptive Dormand-Prince driver for complex vector ODEs."""
    t = t0
    y = y0
    h = min(1e-3, t1 - t0)
    k = [None] * 7
    steps = 0
    while t < t1:
        if steps > max_steps:
            raise NumericalFailure("RK45 step budget exhausted at t=%g" % t)
        h = min(h, t1 - t)
        if h < 1e-13 * max(1.0, t1 - t0):
            raise NumericalFailure("RK45 step underflow at t=%g" % t)
        k[0] = fun(t, y)
        for i in range(1, 7):
            yi = y
            for j, a in enumerate(_DP_A[i]):
                if a != 0.0:
                    yi = yi + (h * a) * k[j]
            k[i] = fun(t + _DP_C[i] * h, yi)
        y5 = y
        for i in range(7):
            if _DP_B5[i] != 0.0:
                y5 = y5 + (h * _DP_B5[i]) * k[i]
        err_v = np.zeros_like(y)
        for i in range(7):
            d = _DP_B5[i] - _DP_B4[i]
            if d != 0.0:
                err_v = err_v + (h * d) * k[i]
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean((np.abs(err_v) / scale) ** 2)))
        steps += 1
        if err <= 1.0:
            t += h
            y = y5
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return y, steps


def evolve_exact(schedule, N, opts=None):
    """Evolve the even-parity ground state at schedule start through the schedule."""
    opts = opts or SolverOptions()
    ker = _kernels(N)
    state = ground_state(N, schedule.params_at(schedule.t_start))
    psi = state.amplitudes.copy()

    for seg in schedule.segments:
        def rhs(t, y):
            hy = ker.apply(y, *seg.eval(t))
            nrm = float(np.real(np.vdot(y, y)))
            e = float(np.real(np.vdot(y, hy))) / nrm
            return -1j * (hy - e * y)

        psi, _ = _rk45(rhs, seg.t_start, seg.t_end, psi, opts.rel_tol, opts.abs_tol)
    return ManyBodyState(amplitudes=psi, N=N, t=schedule.t_end)


def parity_expectation(state):
    """<prod_j sigma^z_j>; +1 throughout an even-sector evolution."""
    ker = _kernels(state.N)
    w = np.abs(state.amplitudes) ** 2
    return float((ker.parity * w).sum() / w.sum())


def measure_defects(state, basis_kind):
    """Defect density: flipped spins ("paramagnetic") or kinks ("ferromagnetic").

    paramagnetic:  (1/2N) sum_j <1 - sigma^z_j>
    ferromagnetic: (1/2N) sum_j <1 - sigma^x_j sigma^x_{j+1}>
    """
    ker = _kernels(state.N)
    psi = state.amplitudes
    w = np.abs(psi) ** 2
    nrm = w.sum()
    if basis_kind == "paramagnetic":
        return float((w * ker.popcount).sum() / nrm / state.N)
    if basis_kind == "ferromagnetic":
        acc = 0.0
        for perm in ker.perms:
            acc += float(np.real(np.vdot(psi, psi[perm])))
        return 0.5 * (state.N - acc / nrm) / state.N
    raise ValueError("basis_kind must be 'paramagnetic' or 'ferromagnetic'")
