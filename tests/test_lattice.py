import math

import numpy as np
import pytest

from kzquench import lattice as lat


def test_mode_grid_small():
    assert np.allclose(lat.mode_grid(4), [math.pi / 4, 3 * math.pi / 4])
    q10 = lat.mode_grid(10)
    assert len(q10) == 5
    assert abs(q10[-1] - 9 * math.pi / 10) < 1e-15
    assert np.all(np.diff(q10) > 0)


def test_mode_grid_smallest_mode():
    assert abs(lat.mode_grid(1000)[0] - math.pi / 1000) < 1e-15


@pytest.mark.parametrize("bad", [0, -4, 3, 7])
def test_mode_grid_rejects_bad_n(bad):
    with pytest.raises(ValueError):
        lat.mode_grid(bad)


def _omega(g, jy, q):
    return np.hypot(*lat.eps_delta(g, 1.0, jy, np.cos(q), np.sin(q)))


def test_ising_bdg_critical_point():
    assert lat.eps_delta(1.0, 1.0, 0.0, 1.0, 0.0) == (0.0, 0.0)


def test_ising_bdg_values():
    eps, delta = lat.eps_delta(0.0, 1.0, 0.0, math.cos(math.pi / 2), math.sin(math.pi / 2))
    assert abs(eps) < 1e-15 and abs(delta - 2.0) < 1e-15
    assert abs(_omega(0.0, 0.0, math.pi / 2) - 2.0) < 1e-15
    assert lat.eps_delta(2.0, 1.0, 0.0, 1.0, 0.0) == (2.0, 0.0) and _omega(2.0, 0.0, 0.0) == 2.0


def test_gap_law():
    # omega(q=0) = 2|g-1|
    for g in np.linspace(0.0, 3.0, 13):
        assert abs(_omega(float(g), 0.0, 0.0) - 2.0 * abs(g - 1.0)) < 1e-14


def test_xy_tricritical_and_boundary():
    assert _omega(2.0, 1.0, 0.0) == 0.0
    assert _omega(1.0 + 0.4, 0.4, 0.0) == 0.0
