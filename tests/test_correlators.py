import math

import numpy as np
import pytest

from kzquench import closedform as cf
from kzquench import correlators as corr
from kzquench import evolver as ev
from kzquench import lattice as lat
from kzquench import protocol as proto
from kzquench.specfun import LN2


@pytest.fixture(scope="module")
def rt_spectrum(fast_opts):
    """Round-trip spectrum at tau = 32, g_f = 10, resolved up to r ~ 2 l_beta_4."""
    ls = corr.length_scales_roundtrip(32.0, 10.0)
    sch = proto.round_trip(0.0, 32.0, 1.0)
    return ev.evolve_spectra_quadrature([sch], fast_opts, max_r=2.0 * ls.l_beta[3])[0]


def test_numeric_correlators_basics(rt_spectrum):
    fc = corr.fermionic_correlators_numeric(rt_spectrum, [0.0, 5.0, 40.0])
    assert fc.beta[0] == 0.0
    # sum rule: |alpha_0| equals the defect density
    assert abs(-fc.alpha[0] - ev.defect_density(rt_spectrum)) < 1e-12
    with pytest.raises(ValueError):
        corr.fermionic_correlators_numeric(rt_spectrum, [-1.0])


def test_transform_blocks_match_one_shot(rt_spectrum, monkeypatch):
    # blocks of 3 r rows: many blocks and a short last one
    sp = rt_spectrum
    monkeypatch.setattr(corr, "_TRANSFORM_BLOCK", 3 * len(sp.q))
    r = np.arange(0.0, 200.0, 1.7)
    fc = corr.fermionic_correlators_numeric(sp, r)
    w = sp.weights / math.pi
    qr = np.outer(r, sp.q)
    alpha = -np.cos(qr) @ (w * np.abs(sp.v_rot) ** 2)
    beta = np.sin(qr) @ (w * sp.u_rot * np.conj(sp.v_rot))
    assert len(r) > 3 * 10 and len(r) % 3 != 0
    assert np.max(np.abs(fc.alpha - alpha)) <= 1e-14 * np.max(np.abs(alpha))
    assert np.max(np.abs(fc.beta - beta)) <= 1e-14 * np.max(np.abs(beta))


def test_numeric_requires_weights(fast_opts):
    sp = ev.evolve([(proto.round_trip(0.0, 8.0, 1.0), lat.mode_grid(16))], fast_opts)[0]
    with pytest.raises(ValueError):
        corr.fermionic_correlators_numeric(sp, [1.0])


def test_ground_state_has_no_correlations(fast_opts):
    # a state with no excitations has alpha_r = 0 exactly
    sch = proto.one_way(10.0, 2.0, 30.0)
    sp = ev.evolve_spectra_quadrature([sch], fast_opts)[0]
    ideal = ev.SpectrumResult(q=sp.q, p=np.zeros_like(sp.q),
                              u=sp.u, v=sp.v, u_rot=np.ones_like(sp.u_rot),
                              v_rot=np.zeros_like(sp.v_rot), weights=sp.weights)
    fc = corr.fermionic_correlators_numeric(ideal, np.arange(0.0, 30.0, 3.0))
    assert np.max(np.abs(fc.alpha)) == 0.0
    # and a gapped crossing-free ramp stays at the boundary-response level
    fc2 = corr.fermionic_correlators_numeric(sp, np.arange(0.0, 30.0, 3.0))
    assert np.max(np.abs(fc2.alpha)) < 1e-6


def test_czz_shapes():
    fc = corr.FermionicCorrelators(r=np.array([1.0]), alpha=np.array([0.1]),
                                   beta=np.array([0.0 + 0.0j]))
    assert corr.czz(fc)[0] == pytest.approx(-0.01)
    fc2 = corr.FermionicCorrelators(r=np.array([1.0]), alpha=np.array([0.0]),
                                    beta=np.array([0.2j]))
    assert corr.czz(fc2)[0] == pytest.approx(0.04)


def test_length_scales_values_and_ordering():
    ls = corr.length_scales_roundtrip(32.0, 10.0)
    assert abs(ls.xi_hat - 4.0 * math.sqrt(32.0 * math.pi)) < 1e-13
    assert set(np.round(ls.h, 12)) == {round(2.0 + 1.0 / LN2, 12), round(1.0 / LN2, 12)}
    # l_beta_4 is the largest length overall; l_beta > l_alpha elementwise
    for tau in (2.0, 8.0, 32.0, 128.0, 200.0):
        l = corr.length_scales_roundtrip(tau, 10.0)
        assert max(l.l_beta) == l.l_beta[3]
        assert l.l_beta[3] > max(l.l_alpha) and l.l_beta[3] > l.xi_hat
        assert min(l.l_beta) > max(l.l_alpha)


def test_length_scales_frozen(frozen_values):
    # regression: xi_hat, the two l_alpha and the five l_beta at tau = 32,
    # g_f = 10, frozen once
    ls = corr.length_scales_roundtrip(32.0, 10.0)
    np.testing.assert_allclose([ls.xi_hat, *ls.l_alpha, *ls.l_beta],
                               frozen_values["lengths_tau32"], rtol=1e-12, atol=0.0)


def test_lengths_scale_as_sqrt_tau_log_tau():
    # the diagonal lengths reach the sqrt(tau) ln(tau) asymptote at moderate
    # tau; the off-diagonal ones carry a -2 g_f - 2 ln(g_f-1) offset inside the
    # logarithm, so they approach it only logarithmically: test the bracket
    t1, t2 = 1e8, 1e16
    a = corr.length_scales_roundtrip(t1, 10.0)
    b = corr.length_scales_roundtrip(t2, 10.0)
    expected = math.sqrt(t2 / t1) * math.log(t2) / math.log(t1)
    for x, y in zip(a.l_alpha, b.l_alpha):
        assert abs(y / x / expected - 1.0) < 0.05
    # skip m = 1, whose lambda_1 = ln tau - 2 g_f - 2 ln(g_f-1) changes sign
    # near tau ~ e^24 and makes l_beta_1 non-monotonic at accessible tau
    for x, y in zip(a.l_beta[1:], b.l_beta[1:]):
        ratio = y / x / math.sqrt(t2 / t1)
        assert 1.0 < ratio < (math.log(t2) / math.log(t1)) ** 2
    assert abs(b.xi_hat / a.xi_hat - math.sqrt(t2 / t1)) < 1e-9


def test_alpha_closed_r0_matches_density():
    # alpha(0) = -(n0 f + oscillation) of the density closed form
    tau = 32.0
    pred = cf.density_prediction_roundtrip(tau, 1.0)
    assert abs(corr.alpha_closed(np.array([0.0]), tau)[0] + pred.n) < 0.1 * pred.n


def test_alpha_closed_periodicity_in_tau():
    # the 4 tau phase makes alpha(r*, tau) pi/2-periodic
    r = 15.0
    taus = np.linspace(30.0, 30.0 + math.pi / 2.0, 7)
    a1 = np.array([corr.alpha_closed(np.array([r]), t)[0] for t in taus])
    a2 = np.array([corr.alpha_closed(np.array([r]), t + math.pi / 2.0)[0] for t in taus])
    # periods match up to the slow envelope drift
    assert np.max(np.abs(a2 - a1)) < 0.1 * np.max(np.abs(a1))


def test_alpha_closed_decays():
    ls = corr.length_scales_roundtrip(32.0)
    r = np.array([20.0 * max(ls.l_alpha)])
    assert abs(corr.alpha_closed(r, 32.0)[0]) < 1e-12


def test_beta_closed_zero_at_origin():
    assert corr.beta_closed(np.array([0.0]), 32.0, 10.0)[0] == 0.0


def test_beta_closed_maxwell_boltzmann_tail():
    # beyond l_beta_4 the correlator reduces to the single-term form
    tau, g_f = 32.0, 10.0
    ls = corr.length_scales_roundtrip(tau, g_f)
    l4 = ls.l_beta[3]
    xi = ls.xi_hat
    # one prevailing length: ln(C / r^2) is linear in r^2 with slope -2/l4^2
    r = np.linspace(1.5 * l4, 2.2 * l4, 15)
    czz_full = corr.czz_closed(r, tau, g_f)
    coef = np.polyfit(r ** 2, np.log(czz_full / r ** 2), 1)
    assert abs(coef[0] / (-2.0 / l4 ** 2) - 1.0) < 0.15
    # and the absolute scale matches the m = 4 term of the printed beta sum
    mb_self = ls.y[3] ** 2 * r ** 2 / (xi * l4 ** 3) * np.exp(-2.0 * r ** 2 / l4 ** 2)
    assert 0.5 < float(np.mean(czz_full / mb_self)) < 2.0


def test_czz_closed_frozen(frozen_values):
    # regression: the closed C^zz at tau = 32, g_f = 10 on eight distances
    # from r = 1 to 300, frozen once
    vals = frozen_values["czz_closed_tau32"]
    np.testing.assert_allclose(corr.czz_closed(np.array(vals["r"]), 32.0, 10.0),
                               vals["C"], rtol=1e-12, atol=0.0)


def test_czz_closed_vs_quadrature_regimes(rt_spectrum):
    # closed-form curve against the exact quadrature at tau=32, g_f=10:
    # deviations stay below ~1.5% of the correlator scale everywhere and below
    # 10% pointwise wherever |C| exceeds 20% of the scale
    tau, g_f = 32.0, 10.0
    ls = corr.length_scales_roundtrip(tau, g_f)
    r = np.arange(1.0, 2.0 * ls.l_beta[3], 2.0)
    fc = corr.fermionic_correlators_numeric(rt_spectrum, r)
    C_quad = corr.czz(fc)
    C_closed = corr.czz_closed(r, tau, g_f)
    scale = np.max(np.abs(C_quad))
    assert np.max(np.abs(C_closed - C_quad)) <= 0.10 * scale
    strong = np.abs(C_quad) >= 0.2 * scale
    assert np.max(np.abs((C_closed[strong] - C_quad[strong]) / C_quad[strong])) <= 0.10


def test_regime_decomposition_invariant():
    # closed-form curves at tau=32, g_f=10: diagonal-dominated at short
    # distance, off-diagonal-dominated at long distance
    tau, g_f = 32.0, 10.0
    ls = corr.length_scales_roundtrip(tau, g_f)
    alpha = corr.alpha_closed
    r_small = np.arange(1.0, 0.3 * min(min(ls.l_alpha), ls.xi_hat), 1.0)
    C = corr.czz_closed(r_small, tau, g_f)
    a = alpha(r_small, tau)
    assert np.all(np.abs(C + a ** 2) <= 0.1 * np.abs(C))
    r_large = np.arange(1.25 * min(ls.l_beta), 2.0 * ls.l_beta[3], 4.0)
    C2 = corr.czz_closed(r_large, tau, g_f)
    b = corr.beta_closed(r_large, tau, g_f)
    assert np.all(np.abs(C2 - np.abs(b) ** 2) <= 0.1 * np.abs(C2))


def test_clustering(fast_opts):
    # quadrature C^zz decays below 1e-8 far beyond the largest length
    tau = 8.0
    ls = corr.length_scales_roundtrip(tau, 10.0)
    sch = proto.round_trip(0.0, tau, 1.0)
    r_far = np.array([10.0 * ls.l_beta[3]])
    sp = ev.evolve_spectra_quadrature([sch], fast_opts, max_r=float(r_far[0]))[0]
    fc = corr.fermionic_correlators_numeric(sp, r_far)
    assert abs(corr.czz(fc)[0]) < 1e-8


def test_dephased_czz_is_negative_and_periodic():
    r = np.arange(1.0, 120.0, 1.0)
    d1 = corr.dephased_czz(r, 32.0)
    assert np.all(d1 <= 0.0)
    # the curve is ~pi/2-periodic in tau yet genuinely oscillates in between
    d2 = corr.dephased_czz(r, 32.0 + math.pi / 2.0)
    d3 = corr.dephased_czz(r, 32.0 + math.pi / 4.0)
    assert np.max(np.abs(d2 - d1)) < 0.15 * np.max(np.abs(d1))
    assert np.max(np.abs(d3 - d1)) > 0.3 * np.max(np.abs(d1))


def test_primed_lengths_g_rt_dependence():
    a = corr.primed_length_scales(32.0, 5.0)
    b = corr.primed_length_scales(32.0, 10.0)
    # l'_beta_2,3 and xi are free of g_rt
    assert a.xi_hat == b.xi_hat
    assert abs(a.l_beta[1] - b.l_beta[1]) < 1e-12
    assert abs(a.l_beta[2] - b.l_beta[2]) < 1e-12
    # the others grow roughly linearly in g_rt
    for i in (0, 3, 4):
        assert b.l_beta[i] > 1.6 * a.l_beta[i]
    assert b.l_alpha[0] > 1.6 * a.l_alpha[0]
    with pytest.raises(cf.OutOfRegimeError):
        corr.primed_length_scales(32.0, 0.9)


def test_primed_correlators_regime_structure(fast_opts):
    # reversed protocol at g_rt = 10, tau = 32: closed forms reproduce the
    # short-distance antibunching quantitatively and the oscillation scales
    # within the frozen factors (the printed section's forms are coarser than
    # the round-trip ones)
    tau, g_rt = 32.0, 10.0
    sch = proto.reversed_round_trip(g_rt, tau, 1.0)
    ls = corr.primed_length_scales(tau, g_rt)
    r = np.arange(1.0, 500.0, 3.0)
    sp = ev.evolve_spectra_quadrature([sch], fast_opts, max_r=float(r[-1]))[0]
    fc = corr.fermionic_correlators_numeric(sp, r)
    a_cl, b_cl = corr.primed_correlators_closed(r, tau, g_rt)
    # short-distance diagonal part matches to a few percent
    assert abs(a_cl[0] / fc.alpha[0] - 1.0) < 0.1
    C_q = corr.czz(fc)
    C_c = np.abs(b_cl) ** 2 - a_cl ** 2
    assert C_q[0] < 0.0 and C_c[0] < 0.0
    assert abs(C_c[0] / C_q[0] - 1.0) < 0.1
    # both show a positive region at intermediate distances
    assert np.max(C_q) > 0.0 and np.max(C_c) > 0.0
    # oscillation amplitude of the diagonal correlator agrees within x2
    mid = (r > 50.0) & (r < 350.0)
    assert 0.5 < np.max(np.abs(a_cl[mid])) / np.max(np.abs(fc.alpha[mid])) < 2.0
    # off-diagonal magnitude scale agrees within x1.6
    assert 0.6 < np.max(np.abs(b_cl[mid])) / np.max(np.abs(fc.beta[mid])) < 1.6


def test_dephased_ckk_shapes():
    r = np.arange(1.0, 600.0, 1.0)
    d = corr.dephased_ckk(r, 32.0)
    assert d[0] < 0.0                      # antibunching survives
    assert np.max(d) > 0.0                 # can become positive
    assert abs(d[-1]) < 1e-10              # clusters to zero


def test_dephased_ckk_below_the_length_scale_regime():
    # the dephased limit needs no g_rt, so it holds below tau_q = 2 as well
    r = np.arange(0.0, 60.0, 0.5)
    for tau in (0.5, 1.0, 1.9):
        d = corr.dephased_ckk(r, tau)
        assert np.all(np.isfinite(d)) and d[0] < 0.0
        with pytest.raises(cf.OutOfRegimeError):
            corr.primed_length_scales(tau, 10.0)


def test_dephasing_times():
    t34, t125 = corr.dephasing_times(10.0)
    assert abs(t34 - 5.0 * math.pi / LN2) < 1e-12
    assert abs(t125 / t34 - (1.0 + 2.0 * LN2)) < 1e-15
    # both linear in tau
    a = corr.dephasing_times(7.0)
    b = corr.dephasing_times(14.0)
    assert abs(b[0] / a[0] - 2.0) < 1e-14 and abs(b[1] / a[1] - 2.0) < 1e-14


def test_variational_fit():
    y, Y = corr.variational_fit()
    assert abs(y - 1.0 / LN2) < 1e-15
    assert abs(Y - 0.5 * math.sqrt(math.e / LN2)) < 1e-15
    # both sides of the surrogate share the peak location and value 1/2
    tau = 23.0
    qs = math.sqrt(LN2 / (2.0 * math.pi * tau))
    lhs = math.exp(-math.pi * tau * qs ** 2) * math.sqrt(-math.expm1(-2.0 * math.pi * tau * qs ** 2))
    rhs = Y * qs * math.sqrt(2.0 * math.pi * tau) * math.exp(-y * math.pi * tau * qs ** 2)
    assert abs(lhs - 0.5) < 1e-12 and abs(rhs - 0.5) < 1e-12
    # surrogate error stays below 15% out to ~2.2 q*; over (0, 3 q*) the
    # endpoint error grows to the frozen oracle value ~38%
    q = np.linspace(1e-4, 2.2 * qs, 300)
    lhs_q = np.exp(-math.pi * tau * q ** 2) * np.sqrt(-np.expm1(-2.0 * math.pi * tau * q ** 2))
    rhs_q = Y * q * math.sqrt(2.0 * math.pi * tau) * np.exp(-y * math.pi * tau * q ** 2)
    assert np.max(np.abs(rhs_q - lhs_q) / lhs_q) < 0.15
    q3 = np.linspace(1e-4, 3.0 * qs, 400)
    lhs3 = np.exp(-math.pi * tau * q3 ** 2) * np.sqrt(-np.expm1(-2.0 * math.pi * tau * q3 ** 2))
    rhs3 = Y * q3 * math.sqrt(2.0 * math.pi * tau) * np.exp(-y * math.pi * tau * q3 ** 2)
    assert np.max(np.abs(rhs3 - lhs3) / lhs3) < 0.39


def test_beta_squared_period_in_tau():
    # |beta_r|^2 oscillates in tau with asymptotic frequencies {4, 8}:
    # shifting tau by pi/2 almost reproduces the curve
    r = np.array([60.0])
    taus = np.linspace(40.0, 40.0 + math.pi / 2.0, 9)
    b1 = np.array([abs(corr.beta_closed(r, t, 10.0)[0]) ** 2 for t in taus])
    b2 = np.array([abs(corr.beta_closed(r, t + math.pi / 2.0, 10.0)[0]) ** 2 for t in taus])
    assert np.max(np.abs(b2 - b1)) < 0.12 * np.max(b1)


def test_out_of_regime_rejections():
    with pytest.raises(cf.OutOfRegimeError):
        corr.length_scales_roundtrip(1.0)
    with pytest.raises(ValueError):
        corr.length_scales_roundtrip(32.0, g_f=0.5)
