"""Hamiltonian parameterization, mode grids, dispersions and equilibrium amplitudes.

Transverse Ising chain:  H = -sum_j (J sigma^x_j sigma^x_{j+1} + g sigma^z_j)
Quantum XY chain:        H = -sum_j (J_x sx sx + J_y sy sy + g sz)

J (respectively J_x) is the reference energy scale and is fixed to 1; the
even-parity sector with antiperiodic fermions is used throughout, so the
quasimomenta are q_j = (2j-1) pi / N and only the positive branch is stored
(the (q, -q) partner is implicit in the pairing structure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateModeError(ValueError):
    """A gapless mode was passed where equilibrium amplitudes are required."""


@dataclass(frozen=True)
class IsingParams:
    """Transverse Ising chain couplings; J is pinned to 1 (energy unit)."""

    g: float
    J: float = 1.0

    def __post_init__(self):
        if self.J != 1.0:
            raise ValueError("J is the reference energy scale and must be 1")
        if not np.isfinite(self.g):
            raise ValueError("g must be finite")


@dataclass(frozen=True)
class XYParams:
    """Quantum XY chain couplings; J_x is pinned to 1, J_y >= 0."""

    g: float
    J_x: float = 1.0
    J_y: float = 0.0

    def __post_init__(self):
        if self.J_x != 1.0:
            raise ValueError("J_x is the reference energy scale and must be 1")
        if self.J_y < 0.0:
            raise ValueError("J_y must be >= 0")


@dataclass(frozen=True)
class ModeGrid:
    """Positive-branch quasimomenta q_j = (2j-1) pi / N, j = 1..N/2."""

    N: int
    q: np.ndarray


@dataclass(frozen=True)
class BdGCoefficients:
    """Single-mode Bogoliubov-de Gennes coefficients (scalars or arrays)."""

    epsilon: np.ndarray
    delta: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class EquilibriumAmplitudes:
    """Static Bogoliubov amplitudes with u >= 0 and sign(v) = sign(delta)."""

    u: np.ndarray
    v: np.ndarray


def mode_grid(N):
    """Positive quasimomenta of the even-parity (antiperiodic) sector.

    Parameters
    ----------
    N : int
        Even lattice size, N >= 2.
    """
    if N < 2 or N % 2 != 0:
        raise ValueError("N must be even and >= 2, got %r" % (N,))
    j = np.arange(1, N // 2 + 1)
    return ModeGrid(N=N, q=(2 * j - 1) * np.pi / N)


def eps_delta(g, jx, jy, cq, sq):
    """(epsilon_q, delta_q) of the XY chain from cq = cos q and sq = sin q.

    epsilon_q = 2 (g - (J_x + J_y) cos q),  delta_q = 2 (J_x - J_y) sin q.
    Both are linear in (g, J_x, J_y), so applied to parameter rates the same
    formula gives d/dt (epsilon_q, delta_q).
    """
    return 2.0 * (g - (jx + jy) * cq), 2.0 * (jx - jy) * sq


def xy_bdg(params, q):
    """BdG coefficients of the XY chain at quasimomentum q (see ``eps_delta``),
    with omega_q = sqrt(epsilon_q^2 + delta_q^2)."""
    q = np.asarray(q, dtype=float)
    eps, delta = eps_delta(params.g, params.J_x, params.J_y, np.cos(q), np.sin(q))
    return BdGCoefficients(epsilon=eps, delta=delta, omega=np.hypot(eps, delta))


def ising_bdg(params, q):
    """BdG coefficients of the transverse Ising chain (XY chain with J_y = 0)."""
    return xy_bdg(XYParams(g=params.g, J_x=params.J, J_y=0.0), q)


def equilibrium_amplitudes(coeffs):
    """Ground-state Bogoliubov amplitudes for gapped coefficients.

    u^2 = (omega + epsilon) / (2 omega), v^2 = (omega - epsilon) / (2 omega),
    u >= 0 and sign(v) = sign(delta); the delta = 0, epsilon < 0 limit takes
    v = +1 (continuous from delta -> 0+).

    Raises
    ------
    DegenerateModeError
        If any omega is zero (gapless mode).
    """
    eps = np.asarray(coeffs.epsilon, dtype=float)
    omega = np.asarray(coeffs.omega, dtype=float)
    delta = np.asarray(coeffs.delta, dtype=float)
    if np.any(omega == 0.0):
        raise DegenerateModeError("gapless mode: omega = 0 has no unique ground state")
    sign = np.where(delta != 0.0, np.sign(delta), 1.0)
    # evaluate the small amplitude from delta to avoid cancellation in omega -+ |eps|
    big = np.sqrt(np.clip((omega + np.abs(eps)) / (2.0 * omega), 0.0, 1.0))
    small = np.abs(delta) / np.sqrt(2.0 * omega * (omega + np.abs(eps)))
    u = np.where(eps >= 0.0, big, small)
    v = sign * np.where(eps >= 0.0, small, big)
    if u.ndim == 0:
        return EquilibriumAmplitudes(u=float(u), v=float(v))
    return EquilibriumAmplitudes(u=u, v=v)
