"""Mode grids and the BdG coefficients (epsilon_q, delta_q) of the XY chain.

Transverse Ising chain:  H = -sum_j (J sigma^x_j sigma^x_{j+1} + g sigma^z_j)
Quantum XY chain:        H = -sum_j (J_x sx sx + J_y sy sy + g sz)

J (respectively J_x) is the reference energy scale and is fixed to 1; the
even-parity sector with antiperiodic fermions is used throughout, so the
quasimomenta are q_j = (2j-1) pi / N and only the positive branch is stored
(the (q, -q) partner is implicit in the pairing structure).
"""

from __future__ import annotations

import numpy as np


def mode_grid(N):
    """Positive quasimomenta q_j = (2j-1) pi / N, j = 1..N/2, as an array.

    These are the even-parity (antiperiodic) sector's positive branch.

    Parameters
    ----------
    N : int
        Even lattice size, N >= 2.
    """
    if N < 2 or N % 2 != 0:
        raise ValueError("N must be even and >= 2, got %r" % (N,))
    j = np.arange(1, N // 2 + 1)
    return (2 * j - 1) * np.pi / N


def eps_delta(g, jx, jy, cq, sq):
    """(epsilon_q, delta_q) of the XY chain from cq = cos q and sq = sin q.

    epsilon_q = 2 (g - (J_x + J_y) cos q),  delta_q = 2 (J_x - J_y) sin q.
    Both are linear in (g, J_x, J_y), so applied to parameter rates the same
    formula gives d/dt (epsilon_q, delta_q).
    """
    return 2.0 * (g - (jx + jy) * cq), 2.0 * (jx - jy) * sq
