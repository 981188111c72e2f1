import math

import numpy as np
import pytest
import scipy.special

from kzquench import specfun as sf


def test_constants_digamma_half():
    gamma_e, digamma_half, gamma76 = sf.constants()
    # digamma(1/2) = -gamma_E - 2 ln 2 exactly, -1.96351 to six digits
    assert digamma_half == -gamma_e - 2.0 * math.log(2.0)
    assert abs(digamma_half - (-1.96351)) < 1e-5
    assert abs(gamma_e - 0.577216) < 1e-6
    assert abs(gamma76 - scipy.special.gamma(7.0 / 6.0)) < 1e-12


def test_arg_gamma_zero_and_odd():
    assert sf.arg_gamma(1.0, 0.0) == 0.0
    assert sf.arg_gamma(0.5, 0.0) == 0.0
    x = np.array([1e-3, 0.3, 2.0, 7.0, 40.0])
    assert np.max(np.abs(sf.arg_gamma(1.0, -x) + sf.arg_gamma(1.0, x))) < 1e-14


def test_arg_gamma_matches_scipy():
    x = np.array([0.05, 0.5, 1.5, 4.0, 7.9, 8.1, 25.0, 300.0])
    ref = scipy.special.loggamma(1.0 + 1j * x).imag
    assert np.max(np.abs(sf.arg_gamma(1.0, x) - ref)) < 1e-12
    ref_half = scipy.special.loggamma(0.5 + 1j * x).imag
    assert np.max(np.abs(sf.arg_gamma(0.5, x) - ref_half)) < 1e-12
    # the recurrence covers small |x| too
    x = np.linspace(-8.0, 8.0, 4001)
    for a in (1.0, 0.5):
        ref = scipy.special.loggamma(a + 1j * x).imag
        assert np.max(np.abs(sf.arg_gamma(a, x) - ref)) < 1e-13


def test_airy_at_zero():
    ai, bi = sf.airy_ai_bi(0.0)
    g23 = math.gamma(2.0 / 3.0)
    assert abs(ai - 1.0 / (3.0 ** (2.0 / 3.0) * g23)) < 1e-14
    assert abs(bi - 1.0 / (3.0 ** (1.0 / 6.0) * g23)) < 1e-14


def test_airy_crossover_dual_method_agreement():
    # series and asymptotics agree at the crossover to ~1e-9
    x = -sf.AIRY_SERIES_CUTOFF
    s = sf._airy_series(np.array([x]))
    a = sf._airy_asymptotic_neg(np.array([x]))
    for u, v in zip(s, a):
        assert abs(u[0] - v[0]) < 1e-9


def test_airy_against_ode_oracle():
    # integrate y'' = x y from 0 with exact initial data, RK4 fine steps
    x_targets = [-2.0, -5.0, -9.0, -14.0]
    g23 = math.gamma(2.0 / 3.0)
    g13 = math.gamma(1.0 / 3.0)
    y = np.array([1.0 / (3.0 ** (2.0 / 3.0) * g23), -1.0 / (3.0 ** (1.0 / 3.0) * g13)])

    def deriv(x, y):
        return np.array([y[1], x * y[0]])

    x = 0.0
    results = {}
    for xt in sorted(x_targets, reverse=True):
        n = max(1, int(math.ceil((x - xt) / 2.5e-4)))
        h = (xt - x) / n
        for _ in range(n):
            k1 = deriv(x, y)
            k2 = deriv(x + h / 2, y + h / 2 * k1)
            k3 = deriv(x + h / 2, y + h / 2 * k2)
            k4 = deriv(x + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h
        x = xt
        results[xt] = y[0]
    for xt in x_targets:
        ai, _ = sf.airy_ai_bi(xt)
        assert abs(ai - results[xt]) < 1e-8


def test_airy_against_scipy_on_needed_domain():
    x = np.linspace(-1000.0, 0.0, 700)
    ai, bi = sf.airy_ai_bi(x)
    rai, _, rbi, _ = scipy.special.airy(x)
    assert np.max(np.abs(ai - rai)) < 1e-10
    assert np.max(np.abs(bi - rbi)) < 1e-10


def test_airy_range_error_for_large_positive():
    with pytest.raises(ValueError):
        sf.airy_ai_bi(50.0)
