import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzquench import closedform as cf
from kzquench import specfun as sf
from kzquench.analysis import Sweep

from fit_helpers import fit_power_law


def test_pq0_values():
    assert cf.pq0(0.0, 20.0) == 1.0
    assert abs(cf.pq0(0.1, 20.0) - math.exp(-0.4 * math.pi)) < 1e-15


def test_interference_terms_origin_and_symmetry():
    t = cf.interference_terms_roundtrip(np.array([1e-12]), 20.0, 1.0)
    assert t.A[0] < 1e-5 and t.B[0] < 1e-5
    assert cf.pqf(t)[0] < 1e-10
    # R = 1: A = B
    t1 = cf.interference_terms_roundtrip(np.array([0.1, 0.2]), 20.0, 1.0)
    assert np.allclose(t1.A, t1.B, rtol=1e-14)


def test_pqf_destructive_and_bound_cases():
    t = cf.InterferenceTerms(A=np.array([0.3]), B=np.array([0.3]), psi=np.array([0.0]))
    assert cf.pqf(t)[0] == 0.0
    t2 = cf.InterferenceTerms(A=np.array([0.3]), B=np.array([0.2]), psi=np.array([math.pi]))
    assert abs(cf.pqf(t2)[0] - 0.25) < 1e-15


def test_reduced_psi_leading_terms():
    # leading term 2(1+R) tau at g_rt = 0 and 2(g_rt-1)^2(1+R) tau generally
    for g_rt, R in [(0.0, 1.0), (0.5, 2.0)]:
        tau = 30.0
        d = (cf.psi_reduced(1e-8, tau + 5e-4, R, g_rt) - cf.psi_reduced(1e-8, tau - 5e-4, R, g_rt)) / 1e-3
        assert abs(d - 2.0 * (g_rt - 1.0) ** 2 * (1.0 + R)) < 1e-9


def test_psi_reduced_matches_app_psi_at_zero_turning():
    # consistency of the generalized phase with the g_rt = 0 form
    q, tau, R = 0.07, 25.0, 1.3
    app = (math.pi / 2.0 + 2.0 * (1.0 + R) * tau
           + q * q * tau * ((1.0 + R) * math.log(tau)
                            + (1.0 + R) * (math.log(4.0) + sf.GAMMA_E - 2.0)
                            + R * math.log(R)))
    assert abs(cf.psi_reduced(q, tau, R, 0.0) - app) < 1e-12


def test_two_lz_compose_limits():
    assert cf.two_lz_compose(0.3, 0.0, 0.1, 0.2, 0.3, 0.4) == pytest.approx(0.3, abs=1e-15)
    assert cf.two_lz_compose(0.4, 0.4, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        cf.two_lz_compose(1.2, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_two_lz_compose_reproduces_pqf():
    q = np.linspace(1e-3, 0.6, 41)
    tau, R, g_f = 23.0, 1.7, 10.0
    terms = cf.interference_terms_roundtrip(q, tau, R, 0.0, g_f)
    p_ref = cf.pqf(terms)
    s2 = np.sin(q) ** 2
    c2 = np.cos(q) ** 2
    cq = np.cos(q)
    taup = R * tau
    th_u = tau * c2 + 0.5 * tau * s2 * np.log(4 * tau) + sf.arg_gamma(1.0, -tau * s2)
    th_v = math.pi / 4 + tau * c2 + 0.5 * tau * s2 * np.log(4 * tau)
    ph_a = (math.pi / 4 + taup * ((g_f - cq) ** 2 + c2) + sf.arg_gamma(1.0, -taup * s2)
            + taup * s2 * np.log(4 * taup * (g_f - cq) * cq))
    ph_b = taup * ((g_f - cq) ** 2 - c2) + taup * s2 * np.log((g_f - cq) / cq)
    p2 = cf.two_lz_compose(np.exp(-2 * np.pi * tau * q * q),
                           np.exp(-2 * np.pi * taup * q * q), th_u, th_v, ph_a, ph_b)
    assert np.max(np.abs(p2 - p_ref)) < 1e-12


def test_qstar_analytic_r1():
    for tau in (10.0, 37.0):
        assert abs(cf.qstar(tau, 1.0) - math.sqrt(math.log(2.0) / (2.0 * math.pi * tau))) < 1e-15


def test_qstar_root_finder_matches_r1_closed_form():
    # force the numeric root path by perturbing R infinitesimally
    tau = 10.0
    numeric = cf.qstar(tau, 1.0 + 1e-13)
    assert abs(numeric - math.sqrt(math.log(2.0) / (2.0 * math.pi * tau))) < 1e-10


def test_qstar_scaling():
    assert abs(cf.qstar(4.0 * 11.0, 2.3) / cf.qstar(11.0, 2.3) - 0.5) < 1e-6


def test_qstar_is_upper_bound_peak():
    # (A+B)^2 is maximal at q*
    tau, R = 18.0, 2.4
    qs = cf.qstar(tau, R)
    grid = np.linspace(0.5 * qs, 1.5 * qs, 901)
    t = cf.interference_terms_roundtrip(grid, tau, R)
    ub = (t.A + t.B) ** 2
    assert abs(grid[int(np.argmax(ub))] - qs) < 2e-3 * qs


def test_density_prediction_trivial_values():
    pred = cf.density_prediction_roundtrip(32.0, 1.0)
    assert abs(pred.f - (2.0 - math.sqrt(2.0))) < 1e-15
    assert abs(pred.n0 - 1.0 / (16.0 * math.pi)) < 1e-15
    assert abs(pred.T_Q - math.pi / 2.0) < 1e-15


def test_density_prediction_frozen(frozen_values):
    # regression: the oscillatory density closed form (R = 1, g_rt = 0) at
    # tau in {12.87, 32}, frozen once
    vals = frozen_values["density_roundtrip"]
    n = [cf.density_prediction_roundtrip(t, 1.0).n for t in vals["tau_q"]]
    np.testing.assert_allclose(n, vals["n"], rtol=1e-12, atol=0.0)


def test_nonoscillatory_part_identity():
    # n0 f = 1/(2 pi sqrt(2 tau)) + 1/(2 pi sqrt(2 tau')) - 1/(pi sqrt(2(tau+tau')))
    for tau, R in [(20.0, 1.0), (14.0, 2.5), (33.0, 0.6)]:
        pred = cf.density_prediction_roundtrip(tau, R)
        taup = R * tau
        ref = (1.0 / (2.0 * math.pi * math.sqrt(2.0 * tau))
               + 1.0 / (2.0 * math.pi * math.sqrt(2.0 * taup))
               - 1.0 / (math.pi * math.sqrt(2.0 * (tau + taup))))
        assert abs(pred.baseline - ref) < 1e-15


@settings(max_examples=60)
@given(tau=st.floats(5.0, 500.0), R=st.floats(0.3, 3.0), g_rt=st.floats(0.0, 0.8))
def test_decomposition_identity_property(tau, R, g_rt):
    # phase curvature b of the reduced phase; the decomposition exists for b > 0 only
    b = (R * math.log(R) + (1.0 + R) * (2.0 * (g_rt - 1.0)
         + math.log(4.0 * tau * (g_rt - 1.0) ** 2) + sf.GAMMA_E)) / math.pi
    if b <= 0.0:
        with pytest.raises(cf.OutOfRegimeError):
            cf.density_prediction_roundtrip(tau, R, g_rt)
        return
    pred = cf.density_prediction_roundtrip(tau, R, g_rt)
    n3 = pred.n0 * (pred.f + sum(M * math.cos(pred.Omega_Q * tau + d)
                                 for M, d in zip(pred.M_i, pred.delta_i)))
    nc = pred.n0 * (pred.f + pred.M * math.cos(pred.Omega_Q * tau + pred.delta))
    assert abs(n3 - nc) < 1e-12
    assert abs(pred.n - n3) < 1e-15


@settings(max_examples=60)
@given(tau=st.floats(5.0, 300.0), R=st.floats(0.3, 3.0),
       q=st.floats(1e-4, math.pi / 2.0))
def test_bounds_property(tau, R, q):
    t = cf.interference_terms_roundtrip(np.array([q]), tau, R)
    p = cf.pqf(t)[0]
    assert (t.A[0] - t.B[0]) ** 2 - 1e-14 <= p <= (t.A[0] + t.B[0]) ** 2 + 1e-14
    assert -1e-14 <= p <= 1.0 + 1e-14


def test_pqf_b_vanishes_at_large_r():
    # second ramp adiabatic as R -> infinity at fixed q sqrt(tau)
    q, tau = 0.1, 20.0
    t = cf.interference_terms_roundtrip(np.array([q]), tau, 4000.0)
    assert t.B[0] < 1e-10
    assert abs(cf.pqf(t)[0] - t.A[0] ** 2) < 1e-10


def test_amplitude_asymptote_r1_scaling():
    # limM ~ (ln tau)^{-3/2} at R = 1: exact ratio test on tau in {e^4, e^8}
    m1 = cf.amplitude_asymptote(math.exp(4.0), 1.0)
    m2 = cf.amplitude_asymptote(math.exp(8.0), 1.0)
    assert abs(m2 / m1 - (math.exp(8.0) / math.exp(4.0)) ** 0.0 * (4.0 / 8.0) ** 1.5) < 1e-12


def test_amplitude_approaches_asymptote():
    # M / limM grows towards 1 (slow 1/ln^2 convergence; frozen trend values)
    ratios = [cf.density_prediction_roundtrip(t, 1.0).M / cf.amplitude_asymptote(t, 1.0)
              for t in (1e4, 1e6, 1e8)]
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    assert ratios[1] > 0.9


def test_amplitude_exact_at_r1():
    # at R = 1 the three-component amplitude equals the direct integral value
    # 2 sqrt(2) |(2-ib)^{-1/2} - (4-ib)^{-1/2}|
    for tau in (50.0, 500.0, 5000.0):
        pred = cf.density_prediction_roundtrip(tau, 1.0)
        b = (2.0 / math.pi) * (math.log(4.0 * tau) + sf.GAMMA_E - 2.0)
        ref = 2.0 * math.sqrt(2.0) * abs((2 - 1j * b) ** -0.5 - (4 - 1j * b) ** -0.5)
        assert abs(pred.M - ref) < 1e-14


def test_reversed_large_turning_amplitude_limit():
    # lim_{g_rt -> inf} M = sqrt(R) (pi/((1+R)(g_rt-1)))^{3/2}
    for R in (1.0, 2.0):
        g_rt = 4000.0
        pred = cf.density_prediction_roundtrip(32.0, R, g_rt)
        ref = math.sqrt(R) * (math.pi / ((1.0 + R) * (g_rt - 1.0))) ** 1.5
        assert abs(pred.M / ref - 1.0) < 0.02


def test_out_of_regime_small_b():
    with pytest.raises(cf.OutOfRegimeError):
        cf.density_prediction_roundtrip(0.2, 1.0)  # b < 0 at tiny tau


def test_critical_turn_values():
    q = np.array([0.0, 0.05, 0.1])
    p = cf.pqf_critical_turn(q, 24.0, 1.0)
    assert p[0] == 0.0
    assert np.all((p >= 0.0) & (p <= 1.0))
    # reduced and full forms agree at long wavelength; the linearized gamma
    # phases carry large cubic corrections (trigamma'(1/2)), so the band is
    # tau q^2 <~ 0.1
    qq = np.linspace(1e-3, 0.3 / math.sqrt(24.0), 50)
    red = cf.pqf_critical_turn(qq, 24.0, 1.0, reduced=True)
    full = cf.pqf_critical_turn(qq, 24.0, 1.0, reduced=False)
    assert np.max(np.abs(red - full)) < 1e-3
    with pytest.raises(cf.OutOfRegimeError):
        cf.pqf_critical_turn(q, 24.0, 2.0, reduced=True)


def test_period_formulas():
    assert abs(cf.period(0.0, 1.0) - math.pi / 2.0) < 1e-15
    # the turning point sets the period as pi / (2 (g - 1)^2) at R = 1
    for g in (0.2, 0.4, 0.6, 0.8):
        T = math.pi / (2.0 * (g - 1.0) ** 2)
        assert abs(cf.period(g, 1.0) - T) <= 1e-14 * T
    assert abs(cf.period(1.5, 1.0) - 2.0 * math.pi) < 1e-15
    for g, T in [(1.5, 2 * math.pi), (2.0, math.pi / 2), (2.5, 2 * math.pi / 9)]:
        assert abs(cf.period(g, 1.0) - T) < 1e-14
    assert cf.period(1.0, 1.0) == math.inf


def test_xy_roundtrip_factors():
    pred = cf.density_prediction_xy_roundtrip(32.0, 1.0, 2.0)
    assert abs(pred.f - (2.0 - 2.0 ** (5.0 / 6.0))) < 1e-14
    assert abs(pred.T_Q - math.pi / 2.0) < 1e-14
    assert abs(pred.n0 - sf.GAMMA_7_6 / (math.pi * (2.0 * math.pi * 32.0) ** (1.0 / 6.0))) < 1e-15
    pred3 = cf.density_prediction_xy_roundtrip(32.0, 1.0, 3.0)
    assert abs(pred3.n0 - 1.0 / (2.0 * math.pi * math.sqrt(64.0))) < 1e-15
    with pytest.raises(cf.OutOfRegimeError):
        cf.density_prediction_xy_roundtrip(32.0, 1.0, 1.5)


def test_quarter_turn_pqf_branches():
    q = np.array([1e-10])
    assert cf.pqf_quarter_turn(q, 20.0, 1.0, 1.5)[0] < 1e-15
    # branch shift of pi at g_qt >= 2: compare against manual evaluation
    qq = np.array([0.11])
    tau, R = 20.0, 1.0
    for g_qt in (2.0, 2.5):
        p = cf.pqf_quarter_turn(qq, tau, R, g_qt)[0]
        sq, cq = math.sin(qq[0]), math.cos(qq[0])
        s2q, c2q = math.sin(2 * qq[0]), math.cos(2 * qq[0])
        e1 = (g_qt * sq - s2q) ** 2
        A = math.exp(-math.pi * tau * e1) * math.sqrt(-math.expm1(-2 * math.pi * tau * sq * sq))
        B = math.exp(-math.pi * tau * sq * sq) * math.sqrt(-math.expm1(-2 * math.pi * tau * e1))
        psi = (math.pi / 2 + 2 * (g_qt * cq - c2q) ** 2 * tau + 2 * (g_qt - cq) ** 2 * tau
               + tau * e1 * (math.log(4 * tau * (g_qt * cq - c2q) ** 2) + sf.GAMMA_E)
               + tau * sq * sq * (math.log(4 * tau * (g_qt - cq) ** 2) + sf.GAMMA_E))
        ref = A * A + B * B - 2 * A * B * math.cos(psi - math.pi)
        assert abs(p - ref) < 1e-12


def test_quarter_turn_density_factors():
    pred = cf.density_quarter_turn(20.0, 1.0, 2.5)
    assert abs(pred.f - (3.0 - 2.0 / math.sqrt(1.25))) < 1e-14
    assert abs(pred.T_Q - 2.0 * math.pi / 9.0) < 1e-14
    # reduces to the round-trip structure at g_qt = 3 (unit first-ramp slope)
    pred3 = cf.density_quarter_turn(20.0, 1.0, 3.0)
    rt = cf.density_prediction_roundtrip(20.0, 1.0)
    assert abs(pred3.f - rt.f) < 1e-14


def test_airy_density_structure():
    airy = cf.density_quarter_turn(20.0, 1.0, 2.0)
    assert isinstance(airy, cf.AiryDensity)
    assert abs(airy.x + math.pi ** (2.0 / 3.0) * 20.0 / 60.0 ** (1.0 / 3.0)) < 1e-13
    ai, bi = sf.airy_ai_bi(airy.x)
    ref = -math.pi ** (1.0 / 3.0) * (ai * ai + bi * bi) / (math.sqrt(2.0) * 60.0 ** (1.0 / 6.0))
    assert abs(airy.term_cross - ref) < 1e-15
    assert airy.n_nonoscillatory > 0.0
    assert abs(airy.T_Q - math.pi / 2.0) < 1e-15


def test_quarter_turn_closed_quadrature_fade_out():
    # oscillation amplitude of the tricritical case decays ~ tau^{-3/2};
    # density_quarter_turn_quadrature integrates over the physical support q <= pi/2
    def amp(tau):
        vals = [cf.density_quarter_turn_quadrature(t, 1.0, 2.0)
                - cf.density_quarter_turn(t, 1.0, 2.0).n_nonoscillatory
                for t in np.linspace(tau, tau + math.pi / 2.0, 17)]
        return 0.5 * (max(vals) - min(vals))

    taus = np.array([20.0, 40.0, 80.0, 160.0, 320.0])
    amps = np.array([amp(t) for t in taus])
    _, expo = fit_power_law(Sweep(taus, amps))
    assert abs(expo + 1.5) < 0.3


def test_period_consistency_invariant():
    # d psi / d tau at fixed small q equals Omega_Q to 1e-9
    for g_turn, R in [(0.0, 1.0), (0.4, 2.0), (1.8, 1.0)]:
        tau = 40.0
        q0 = 1e-6
        d = (cf.psi_reduced(q0, tau + 5e-4, R, g_turn)
             - cf.psi_reduced(q0, tau - 5e-4, R, g_turn)) / 1e-3
        assert abs(d - 2.0 * (g_turn - 1.0) ** 2 * (1.0 + R)) < 1e-9
