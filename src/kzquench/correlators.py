"""Defect-defect correlators: quadrature forms and closed Gaussian-sum forms.

The transverse spin-spin correlator (round trip, paramagnetic target) and the
kink-kink correlator (reversed round trip, ferromagnetic target) share the
quadratic structure C_r = |beta_r|^2 - alpha_r^2 built from the diagonal and
off-diagonal fermionic correlators.  Quadrature forms use the evolved
amplitudes rotated into the equilibrium quasiparticle basis of the final
parameters (for the reversed protocol that is the g = 0 classical-Ising
basis), which reproduces p_q = |v_rot|^2 and the r = 0 sum rule |alpha_0| = n.

Closed forms are stated for R = 1 (and g_rt = 0 for the round trip); they
expose the multiple length scales: the KZ length xi_hat, two diagonal lengths
l_alpha and five off-diagonal lengths l_beta, all but xi_hat growing like
sqrt(tau) ln(tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import OutOfRegimeError
from .specfun import GAMMA_E, LN2

_E_OVER_LN2 = math.e / LN2


@dataclass(frozen=True)
class FermionicCorrelators:
    """Diagonal (alpha) and off-diagonal (beta) quadratic fermionic correlators."""

    r: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class LengthScaleSet:
    """Length scales of the closed-form correlators and their phase parameters."""

    xi_hat: float
    l_alpha: tuple
    l_beta: tuple
    b: float
    lambdas: tuple
    lambda_primes: tuple
    h: tuple
    y: tuple
    Y: tuple


def fermionic_correlators_numeric(spectrum, r):
    """alpha_r = -(1/pi) int |v~|^2 cos(qr) dq, beta_r = (1/pi) int u~ v~* sin(qr) dq.

    ``spectrum`` must carry quadrature weights.  The amplitudes are the ones
    rotated into the equilibrium basis of the schedule's final parameters.
    """
    if spectrum.weights is None:
        raise ValueError("quadrature spectrum required (weights missing)")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0):
        raise ValueError("r must be >= 0")
    u, v = spectrum.u_rot, spectrum.v_rot
    w = spectrum.weights / math.pi
    qr = np.outer(r, spectrum.q)
    alpha = -np.cos(qr) @ (w * np.abs(v) ** 2)
    beta = np.sin(qr) @ (w * u * np.conj(v))
    return FermionicCorrelators(r=r, alpha=alpha, beta=beta)


def czz(fc):
    """Defect correlator |beta_r|^2 - alpha_r^2: C_r^zz, or C_r^KK from primed correlators."""
    return np.abs(fc.beta) ** 2 - np.asarray(fc.alpha) ** 2


def _h_values():
    h12 = 2.0 + 1.0 / LN2
    h34 = 1.0 / LN2
    return (h12, h12, h34, h34, h12)


def _y_values(pi_power):
    """y_m = 2 Y_m / (pi^pi_power h_m^3)^(1/4); Y_2 is twice the others."""
    Y = (0.5 * math.sqrt(_E_OVER_LN2), math.sqrt(_E_OVER_LN2),
         0.5 * math.sqrt(_E_OVER_LN2), 0.5 * math.sqrt(_E_OVER_LN2),
         0.5 * math.sqrt(_E_OVER_LN2))
    h = _h_values()
    y = tuple(2.0 * Ym / (math.pi ** pi_power * hm ** 3) ** 0.25 for Ym, hm in zip(Y, h))
    return y, Y, h


def kz_length(tau_q):
    """KZ correlation length xi_hat = 4 sqrt(pi tau_q)."""
    return 4.0 * math.sqrt(math.pi * tau_q)


def length_scales_roundtrip(tau_q, g_f=10.0):
    """All eight length scales of the round-trip correlator (R = 1, g_rt = 0)."""
    if tau_q < 2.0:
        raise OutOfRegimeError("length scales require tau_q >= 2")
    if g_f <= 1.0:
        raise ValueError("g_f must be > 1")
    xi = kz_length(tau_q)
    b = (math.log(4.0 * tau_q) + GAMMA_E - 2.0) / math.pi
    l_alpha = tuple(2.0 * math.sqrt(2.0 * m * math.pi * tau_q)
                    * math.sqrt(1.0 + (b / m) ** 2) for m in (1, 2))
    lt = math.log(tau_q)
    lam_base = -2.0 * g_f - 2.0 * math.log(g_f - 1.0)
    lambdas = (lt + lam_base, -lt + lam_base, -lt + lam_base,
               -3.0 * lt + lam_base, -3.0 * lt + lam_base)
    lam_p = (math.pi / 4.0 + 2.0 * tau_q, -(math.pi / 4.0 + 2.0 * tau_q),
             -(math.pi / 4.0 + 2.0 * tau_q), -3.0 * math.pi / 4.0 - 6.0 * tau_q,
             -3.0 * math.pi / 4.0 - 6.0 * tau_q)
    y, Y, h = _y_values(pi_power=2.0)
    l_beta = tuple(2.0 * math.sqrt(math.pi * hm * tau_q)
                   * math.sqrt(1.0 + (lm / (math.pi * hm)) ** 2)
                   for hm, lm in zip(h, lambdas))
    return LengthScaleSet(xi_hat=xi, l_alpha=l_alpha, l_beta=l_beta, b=b,
                          lambdas=lambdas, lambda_primes=lam_p, h=h, y=y, Y=Y)


def _kz_gaussian(r, xi):
    """The KZ Gaussian term of the diagonal correlator."""
    return (2.0 * np.exp(-(r / xi) ** 2) / (math.sqrt(math.pi) * xi)
            * (1.0 - math.sqrt(2.0) * np.exp(-(r / xi) ** 2)))


def _alpha_sum(r, tau_q, xi, l_alpha, b):
    r = np.asarray(r, dtype=float)
    out = _kz_gaussian(r, xi)
    for m in (1, 2):
        lam = l_alpha[m - 1]
        phase = (4.0 * tau_q - (b / m) * (r / lam) ** 2
                 + 0.5 * math.atan(b / m))
        out = out + (math.sqrt(8.0) * (-1.0) ** m * np.exp(-(r / lam) ** 2)
                     / ((2.0 * m * math.pi ** 2) ** 0.25 * math.sqrt(xi * lam))
                     * np.sin(phase))
    return out


def alpha_closed(r, tau_q):
    """Closed-form diagonal fermionic correlator (round trip, R = 1, g_rt = 0)."""
    ls = length_scales_roundtrip(tau_q)
    return _alpha_sum(r, tau_q, ls.xi_hat, ls.l_alpha, ls.b)


def _beta_term(r, m, xi, lb, lam, lam_p, hm, ym):
    """Term m (zero-based) of the off-diagonal Gaussian sum."""
    ratio = lam / (math.pi * hm)
    phase = lam_p - lam * r ** 2 / (math.pi * hm * lb ** 2) - 1.5 * math.atan2(-ratio, 1.0)
    return ((-1.0) ** m * ym * r / math.sqrt(xi * lb ** 3)
            * np.exp(-(r / lb) ** 2) * np.exp(1j * phase))


def _beta_sum(r, xi, l_beta, lambdas, lambda_primes, h, y):
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape, dtype=complex)
    for m in range(5):
        out = out + _beta_term(r, m, xi, l_beta[m], lambdas[m], lambda_primes[m], h[m], y[m])
    return out


def beta_closed(r, tau_q, g_f=10.0):
    """Closed-form off-diagonal fermionic correlator (round trip, R = 1, g_rt = 0)."""
    ls = length_scales_roundtrip(tau_q, g_f)
    return _beta_sum(r, ls.xi_hat, ls.l_beta, ls.lambdas, ls.lambda_primes, ls.h, ls.y)


def czz_closed(r, tau_q, g_f=10.0):
    """Closed-form C_r^zz = |beta_r|^2 - alpha_r^2."""
    a = alpha_closed(r, tau_q)
    b = beta_closed(r, tau_q, g_f)
    return np.abs(b) ** 2 - a ** 2


def dephased_czz(r, tau_q):
    """Transverse correlator after off-diagonal dephasing (g_f -> infinity): -alpha_r^2."""
    return -alpha_closed(r, tau_q) ** 2


def primed_length_scales(tau_q, g_rt):
    """Length scales of the kink-kink correlator (reversed protocol, R = 1)."""
    if g_rt <= 1.0:
        raise OutOfRegimeError("reversed-protocol closed forms require g_rt > 1")
    if tau_q < 2.0:
        raise OutOfRegimeError("length scales require tau_q >= 2")
    xi = kz_length(tau_q)
    bp = 2.0 * (math.log(4.0 * tau_q * (g_rt - 1.0) ** 2) + 2.0 * (g_rt - 1.0) + GAMMA_E)
    l_alpha = tuple(math.sqrt(2.0 * m * math.pi * tau_q) / math.pi
                    * math.sqrt(1.0 + (bp / m) ** 2) for m in (1, 2))
    l4t = math.log(4.0 * tau_q)
    chi1 = l4t + 4.0 * g_rt - 2.0 + 4.0 * math.log(g_rt - 1.0) + GAMMA_E
    chi23 = -(l4t - 2.0 + GAMMA_E)
    chi45 = -(3.0 * l4t + 4.0 * g_rt - 6.0 + 4.0 * math.log(g_rt - 1.0) + 3.0 * GAMMA_E)
    chis = (chi1, chi23, chi23, chi45, chi45)
    a = 2.0 * g_rt ** 2 - 4.0 * g_rt
    chi_p = (math.pi / 4.0 + 2.0 * tau_q * (a + 1.0),
             -math.pi / 4.0 - 2.0 * tau_q, -math.pi / 4.0 - 2.0 * tau_q,
             -3.0 * math.pi / 4.0 - 2.0 * tau_q * (a + 3.0),
             -3.0 * math.pi / 4.0 - 2.0 * tau_q * (a + 3.0))
    y, Y, h = _y_values(pi_power=1.0)
    l_beta = tuple(2.0 * math.sqrt(math.pi * hm * tau_q)
                   * math.sqrt(1.0 + (cm / (math.pi * hm)) ** 2)
                   for hm, cm in zip(h, chis))
    return LengthScaleSet(xi_hat=xi, l_alpha=l_alpha, l_beta=l_beta, b=bp,
                          lambdas=chis, lambda_primes=chi_p, h=h, y=y, Y=Y)


def primed_correlators_closed(r, tau_q, g_rt):
    """(alpha'_r, beta'_r) closed forms for the reversed protocol, R = 1."""
    ls = primed_length_scales(tau_q, g_rt)
    alpha = _alpha_sum(r, tau_q, ls.xi_hat, ls.l_alpha, ls.b)
    beta = _beta_sum(r, ls.xi_hat, ls.l_beta, ls.lambdas, ls.lambda_primes, ls.h, ls.y)
    return alpha, beta


def dephased_ckk(r, tau_q):
    """Kink-kink correlator in the g_rt -> infinity dephased limit.

    Only the KZ Gaussian and the two g_rt-free off-diagonal terms (m = 2, 3)
    survive; their interplay can turn the correlator positive at intermediate
    distances while the short-distance antibunching remains.
    """
    r = np.asarray(r, dtype=float)
    xi = kz_length(tau_q)
    chi23 = -(math.log(4.0 * tau_q) - 2.0 + GAMMA_E)
    chi_p23 = -math.pi / 4.0 - 2.0 * tau_q
    y, _, h = _y_values(pi_power=1.0)
    surv = np.zeros(r.shape, dtype=complex)
    for m in (1, 2):  # zero-based indices of the m = 2, 3 terms
        lb = (2.0 * math.sqrt(math.pi * h[m] * tau_q)
              * math.sqrt(1.0 + (chi23 / (math.pi * h[m])) ** 2))
        surv = surv + _beta_term(r, m, xi, lb, chi23, chi_p23, h[m], y[m])
    return -_kz_gaussian(r, xi) ** 2 + np.abs(surv) ** 2


def dephasing_times(tau_q):
    """(t_D^{3,4}, t_D^{1,2,5}): times at which the off-diagonal terms dephase.

    Setting |lambda_m| / (pi h_m) = 1 with the leading |lambda_m| ~ 2 g_f =
    2 t_f / tau_q gives t_D^{3,4} = pi tau_q / (2 ln 2) and
    t_D^{1,2,5} = (1 + 1/(2 ln 2)) pi tau_q; their ratio is 1 + 2 ln 2.
    """
    if tau_q <= 0.0:
        raise ValueError("tau_q must be positive")
    t34 = math.pi * tau_q / (2.0 * LN2)
    t125 = (1.0 + 1.0 / (2.0 * LN2)) * math.pi * tau_q
    return t34, t125


def variational_fit():
    """(y, Y) of the Gaussian surrogate e^(-pi tau q^2) sqrt(1-e^(-2 pi tau q^2))
    ~= Y q sqrt(2 pi tau) e^(-y pi tau q^2).

    Matching the peak position q* = sqrt(ln2/(2 pi tau)) and peak value 1/2
    gives y = 1/ln2 and Y = (1/2) sqrt(e/ln2).
    """
    return 1.0 / LN2, 0.5 * math.sqrt(_E_OVER_LN2)
