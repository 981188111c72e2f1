"""Defect-defect correlators: quadrature forms and closed Gaussian-sum forms.

The transverse spin-spin correlator (round trip, paramagnetic target) and the
kink-kink correlator (reversed round trip, ferromagnetic target) share the
quadratic structure C_r = |beta_r|^2 - alpha_r^2 built from the diagonal and
off-diagonal fermionic correlators.  Quadrature forms use the evolved
amplitudes rotated into the equilibrium quasiparticle basis of the final
parameters (for the reversed protocol that is the g = 0 classical-Ising
basis), which reproduces p_q = |v_rot|^2 and the r = 0 sum rule |alpha_0| = n.

Closed forms are stated for R = 1 (and g_rt = 0 for the round trip).  Each
closed-form curve is a function of its LengthScaleSet: the KZ length xi_hat,
two diagonal lengths l_alpha and five off-diagonal lengths l_beta, all but
xi_hat growing like sqrt(tau) ln(tau), and the phases that go with them.

The CLI writes the length scales and the closed and dephased correlators.
``dephasing_times`` and ``variational_fit`` state formulas of the paper that
only the tests check; they stay as the reproduction's contract, the values
the evolved correlators are held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import OutOfRegimeError
from .specfun import GAMMA_E, LN2

_E_OVER_LN2 = math.e / LN2
_TRANSFORM_BLOCK = 1 << 20  # (r, q) elements per block of the transform: bounds its memory


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
    wa, wb = w * np.abs(v) ** 2, w * u * np.conj(v)
    alpha, beta = np.empty(r.shape), np.empty(r.shape, dtype=complex)
    step = max(1, _TRANSFORM_BLOCK // len(spectrum.q))
    for i in range(0, len(r), step):
        qr = np.outer(r[i:i + step], spectrum.q)
        alpha[i:i + step] = -np.cos(qr) @ wa
        beta[i:i + step] = np.sin(qr) @ wb
    return FermionicCorrelators(r=r, alpha=alpha, beta=beta)


def czz(fc):
    """Defect correlator |beta_r|^2 - alpha_r^2: C_r^zz, or C_r^KK from primed correlators."""
    return np.abs(fc.beta) ** 2 - np.asarray(fc.alpha) ** 2


# h_m of the five off-diagonal Gaussian terms
_H = (2.0 + 1.0 / LN2, 2.0 + 1.0 / LN2, 1.0 / LN2, 1.0 / LN2, 2.0 + 1.0 / LN2)


def kz_length(tau_q):
    """KZ correlation length xi_hat = 4 sqrt(pi tau_q)."""
    return 4.0 * math.sqrt(math.pi * tau_q)


def _length_set(tau_q, l_alpha, b, lambdas, lambda_primes, pi_power):
    """The set of the phases (lambdas, lambda_primes), with xi_hat and the five l_beta."""
    l_beta = tuple(2.0 * math.sqrt(math.pi * hm * tau_q)
                   * math.sqrt(1.0 + (lm / (math.pi * hm)) ** 2)
                   for hm, lm in zip(_H, lambdas))
    # y_m = 2 Y_m / (pi^pi_power h_m^3)^(1/4); Y_2 is twice the others
    Y = 0.5 * math.sqrt(_E_OVER_LN2)
    y = tuple(2.0 * Ym / (math.pi ** pi_power * hm ** 3) ** 0.25
              for Ym, hm in zip((Y, 2.0 * Y, Y, Y, Y), _H))
    return LengthScaleSet(xi_hat=kz_length(tau_q), l_alpha=l_alpha, l_beta=l_beta, b=b,
                          lambdas=lambdas, lambda_primes=lambda_primes, h=_H, y=y)


def length_scales_roundtrip(tau_q, g_f=10.0):
    """All eight length scales of the round-trip correlator (R = 1, g_rt = 0)."""
    if tau_q < 2.0:
        raise OutOfRegimeError("length scales require tau_q >= 2")
    if g_f <= 1.0:
        raise ValueError("g_f must be > 1")
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
    return _length_set(tau_q, l_alpha, b, lambdas, lam_p, pi_power=2.0)


def _kz_gaussian(r, xi):
    """The KZ Gaussian term of the diagonal correlator."""
    return (2.0 * np.exp(-(r / xi) ** 2) / (math.sqrt(math.pi) * xi)
            * (1.0 - math.sqrt(2.0) * np.exp(-(r / xi) ** 2)))


def _alpha_sum(r, tau_q, ls):
    r = np.asarray(r, dtype=float)
    out = _kz_gaussian(r, ls.xi_hat)
    for m in (1, 2):
        lam = ls.l_alpha[m - 1]
        phase = 4.0 * tau_q - (ls.b / m) * (r / lam) ** 2 + 0.5 * math.atan(ls.b / m)
        out = out + (math.sqrt(8.0) * (-1.0) ** m * np.exp(-(r / lam) ** 2)
                     / ((2.0 * m * math.pi ** 2) ** 0.25 * math.sqrt(ls.xi_hat * lam))
                     * np.sin(phase))
    return out


def _beta_sum(r, ls, terms=range(5)):
    """The off-diagonal Gaussian sum over the zero-based ``terms``."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape, dtype=complex)
    for m in terms:
        lb, lam, hm = ls.l_beta[m], ls.lambdas[m], ls.h[m]
        phase = (ls.lambda_primes[m] - lam * r ** 2 / (math.pi * hm * lb ** 2)
                 - 1.5 * math.atan2(-lam / (math.pi * hm), 1.0))
        out = out + ((-1.0) ** m * ls.y[m] * r / math.sqrt(ls.xi_hat * lb ** 3)
                     * np.exp(-(r / lb) ** 2) * np.exp(1j * phase))
    return out


def alpha_closed(r, tau_q):
    """Closed-form diagonal fermionic correlator (round trip, R = 1, g_rt = 0)."""
    return _alpha_sum(r, tau_q, length_scales_roundtrip(tau_q))


def beta_closed(r, tau_q, g_f=10.0):
    """Closed-form off-diagonal fermionic correlator (round trip, R = 1, g_rt = 0)."""
    return _beta_sum(r, length_scales_roundtrip(tau_q, g_f))


def czz_closed(r, tau_q, g_f=10.0):
    """Closed-form C_r^zz = |beta_r|^2 - alpha_r^2."""
    ls = length_scales_roundtrip(tau_q, g_f)
    return np.abs(_beta_sum(r, ls)) ** 2 - _alpha_sum(r, tau_q, ls) ** 2


def dephased_czz(r, tau_q):
    """Transverse correlator after off-diagonal dephasing (g_f -> infinity): -alpha_r^2."""
    return -alpha_closed(r, tau_q) ** 2


def _kink_set(tau_q, g_rt):
    """The kink-kink set without its regime checks; at g_rt = nan only the entries
    free of g_rt (xi_hat and the m = 2, 3 terms of beta') are finite."""
    bp = 2.0 * (math.log(4.0 * tau_q * (g_rt - 1.0) ** 2) + 2.0 * (g_rt - 1.0) + GAMMA_E)
    l_alpha = tuple(math.sqrt(2.0 * m * math.pi * tau_q) / math.pi
                    * math.sqrt(1.0 + (bp / m) ** 2) for m in (1, 2))
    l4t = math.log(4.0 * tau_q)
    chi1 = l4t + 4.0 * g_rt - 2.0 + 4.0 * math.log(g_rt - 1.0) + GAMMA_E
    chi23 = -(l4t - 2.0 + GAMMA_E)
    chi45 = -(3.0 * l4t + 4.0 * g_rt - 6.0 + 4.0 * math.log(g_rt - 1.0) + 3.0 * GAMMA_E)
    a = 2.0 * g_rt ** 2 - 4.0 * g_rt
    chi_p23 = -math.pi / 4.0 - 2.0 * tau_q
    chi_p45 = -3.0 * math.pi / 4.0 - 2.0 * tau_q * (a + 3.0)
    return _length_set(tau_q, l_alpha, bp, (chi1, chi23, chi23, chi45, chi45),
                       (math.pi / 4.0 + 2.0 * tau_q * (a + 1.0), chi_p23, chi_p23,
                        chi_p45, chi_p45), pi_power=1.0)


def primed_length_scales(tau_q, g_rt):
    """Length scales of the kink-kink correlator (reversed protocol, R = 1)."""
    if g_rt <= 1.0:
        raise OutOfRegimeError("reversed-protocol closed forms require g_rt > 1")
    if tau_q < 2.0:
        raise OutOfRegimeError("length scales require tau_q >= 2")
    return _kink_set(tau_q, g_rt)


def primed_correlators_closed(r, tau_q, g_rt):
    """(alpha'_r, beta'_r) closed forms for the reversed protocol, R = 1."""
    ls = primed_length_scales(tau_q, g_rt)
    return _alpha_sum(r, tau_q, ls), _beta_sum(r, ls)


def dephased_ckk(r, tau_q):
    """Kink-kink correlator in the g_rt -> infinity dephased limit.

    Only the KZ Gaussian and the two g_rt-free off-diagonal terms (m = 2, 3)
    survive; their interplay can turn the correlator positive at intermediate
    distances while the short-distance antibunching remains.  The limit has no
    finite g_rt: the set is built at g_rt = nan and only m = 2, 3 are read.
    """
    r = np.asarray(r, dtype=float)
    ls = _kink_set(tau_q, math.nan)
    return -_kz_gaussian(r, ls.xi_hat) ** 2 + np.abs(_beta_sum(r, ls, terms=(1, 2))) ** 2


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
