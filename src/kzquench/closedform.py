"""Closed-form predictions: interference probabilities, defect densities, periods.

All expressions follow from the asymptotic Landau-Zener solutions of the
per-mode evolution.  Two dynamical-phase variants are exposed: the exact
asymptotic phase (sums of the four stage phases, with the gamma-phase term
evaluated exactly) and the reduced long-wave phase used for period
extraction.  The density decomposition keeps the three-cosine and combined
(M, delta) forms consistent to machine precision.

The oscillation amplitudes use M_i = (X_i / sqrt(c_i)) (1 + (b/c_i)^2)^(-1/4);
the sqrt is required for the three i-components to cancel at leading order in
1/b, which produces the documented (ln tau)^(-3/2) dephasing of the combined
amplitude and the large-turning-point limit sqrt(R) (pi/((1+R)(g-1)))^(3/2).

The CLI writes the densities and periods.  The per-mode probabilities
(``pq0``, ``pqf``, ``two_lz_compose``, ``pqf_critical_turn``), ``qstar``,
``amplitude_asymptote`` and ``density_prediction_xy_roundtrip`` state formulas
of the paper that only the tests check; they stay as the reproduction's
contract, the values the evolver is held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre_panels
from .specfun import DIGAMMA_HALF, GAMMA_7_6, GAMMA_E, LN2, airy_ai_bi, arg_gamma

_TINY = 1e-300


class OutOfRegimeError(ValueError):
    """Requested parameters fall outside the validity regime of a closed form."""


@dataclass(frozen=True)
class InterferenceTerms:
    """Amplitudes and total dynamical phase of the two-transition interference."""

    A: np.ndarray
    B: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class DefectDensityPrediction:
    """Oscillatory defect density n = n0 (f + sum_i M_i cos(Omega tau + delta_i))."""

    n0: float
    f: float
    M_i: tuple
    delta_i: tuple
    Omega_Q: float
    M: float
    delta: float
    T_Q: float
    n: float

    @property
    def baseline(self):
        return self.n0 * self.f


@dataclass(frozen=True)
class AiryDensity:
    """Tricritical quarter-turn density: three non-oscillatory terms plus a
    fast-fading oscillatory remainder (amplitude not in closed form)."""

    term_tricritical: float
    term_critical: float
    term_cross: float
    x: float
    T_Q: float

    @property
    def n_nonoscillatory(self):
        return self.term_tricritical + self.term_critical + self.term_cross


def kz_density(tau_q):
    """KZ defect density 1/(2 pi sqrt(2 tau_q)) of one linear ramp through g = 1."""
    return 1.0 / (2.0 * math.pi * math.sqrt(2.0 * tau_q))


def pq0(q, tau_q):
    """Single-ramp excitation probability exp(-2 pi tau q^2)."""
    q = np.asarray(q, dtype=float)
    return np.exp(-2.0 * math.pi * tau_q * q * q)


def _psi_exact_roundtrip(q, tau_q, R, g_f):
    """Exact-asymptotic total dynamical phase for g_rt = 0 (full trig forms)."""
    s2 = np.sin(q) ** 2
    c2 = np.cos(q) ** 2
    cq = np.cos(q)
    taup = R * tau_q
    theta_u = tau_q * c2 + 0.5 * tau_q * s2 * math.log(4.0 * tau_q) + arg_gamma(1.0, -tau_q * s2)
    theta_v = math.pi / 4.0 + tau_q * c2 + 0.5 * tau_q * s2 * math.log(4.0 * tau_q)
    safe_c = np.clip(cq, _TINY, None)
    phi_a = (math.pi / 4.0 + taup * ((g_f - cq) ** 2 + c2) + arg_gamma(1.0, -taup * s2)
             + taup * s2 * np.log(np.clip(4.0 * taup * (g_f - cq) * safe_c, _TINY, None)))
    phi_b = taup * ((g_f - cq) ** 2 - c2) + taup * s2 * np.log((g_f - cq) / safe_c)
    return theta_u + theta_v + phi_a - phi_b


def _q2_phase(tau_q, R, g_rt):
    """The q^2 tau coefficient of ``psi_reduced``; pi times the phase curvature b."""
    return (R * math.log(R)
            + (1.0 + R) * (2.0 * (g_rt - 1.0)
                           + math.log(4.0 * tau_q * (g_rt - 1.0) ** 2) + GAMMA_E))


def psi_reduced(q, tau_q, R, g_rt=0.0):
    """Reduced long-wave dynamical phase (valid for any turning point g_rt != 1).

    psi = pi/2 + 2 (g_rt-1)^2 (1+R) tau + q^2 tau { R ln R
          + (1+R) [2 (g_rt-1) + ln(4 tau (g_rt-1)^2) + gamma_E] }.
    """
    q = np.asarray(q, dtype=float)
    if g_rt == 1.0:
        raise OutOfRegimeError("g_rt = 1 has its own critical-turn expression")
    return (math.pi / 2.0 + 2.0 * (g_rt - 1.0) ** 2 * (1.0 + R) * tau_q
            + q * q * tau_q * _q2_phase(tau_q, R, g_rt))


def interference_terms_roundtrip(q, tau_q, R, g_rt=0.0, g_f=10.0):
    """A, B and psi of the final excitation probability after a round trip.

    A = e^(-pi q^2 tau) sqrt(1 - e^(-2 pi q^2 tau R)),
    B = e^(-pi q^2 tau R) sqrt(1 - e^(-2 pi q^2 tau)).

    psi is the exact-asymptotic phase at g_rt = 0 and the reduced long-wave
    phase for 0 < g_rt < 1, where only that one exists.
    """
    if not 0.0 <= g_rt < 1.0:
        raise OutOfRegimeError("g_rt must lie in [0, 1); use pqf_critical_turn at g_rt = 1")
    if tau_q <= 0.0 or R <= 0.0:
        raise ValueError("tau_q and R must be positive")
    q = np.asarray(q, dtype=float)
    x = math.pi * tau_q * q * q
    A = np.exp(-x) * np.sqrt(-np.expm1(-2.0 * x * R))
    B = np.exp(-x * R) * np.sqrt(-np.expm1(-2.0 * x))
    if g_rt == 0.0:
        psi = _psi_exact_roundtrip(q, tau_q, R, g_f)
    else:
        psi = psi_reduced(q, tau_q, R, g_rt)
    return InterferenceTerms(A=A, B=B, psi=psi)


def pqf(terms):
    """Final excitation probability A^2 + B^2 - 2 A B cos(psi)."""
    return terms.A ** 2 + terms.B ** 2 - 2.0 * terms.A * terms.B * np.cos(terms.psi)


def two_lz_compose(p1, p2, theta1, theta2, phi1, phi2):
    """Excitation probability of two successive Landau-Zener transitions.

    |<pair|1'>|^2 with A = sqrt(p1 (1-p2)), B = sqrt(p2 (1-p1)) and relative
    phase theta1 + theta2 + phi1 - phi2; feeding p1 = e^(-2 pi tau q^2),
    p2 = e^(-2 pi tau' q^2) and the four stage phases reproduces the
    round-trip probability identically.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if np.any(p1 < 0) or np.any(p1 > 1) or np.any(p2 < 0) or np.any(p2 > 1):
        raise ValueError("p1 and p2 must lie in [0, 1]")
    A = np.sqrt(p1 * (1.0 - p2))
    B = np.sqrt(p2 * (1.0 - p1))
    return A * A + B * B - 2.0 * A * B * np.cos(theta1 + theta2 + phi1 - phi2)


def qstar(tau_q, R):
    """Peak position of the upper bound (A+B)^2.

    Writing a = e^(-pi tau q^2) = cos(alpha) and b = e^(-pi R tau q^2) =
    cos(beta), A + B = sin(alpha + beta) peaks where a^2 + b^2 = 1, i.e.

        e^(-2 pi tau q^2) + e^(-2 pi R tau q^2) = 1,

    whose R = 1 solution is q* = sqrt(ln 2 / (2 pi tau)).  (The printed
    transcendental form of this condition does not reduce to the quoted
    R = 1 root; this condition does, and is what the root finder solves.)
    """
    if tau_q <= 0.0 or R <= 0.0:
        raise ValueError("tau_q and R must be positive")
    if R == 1.0:
        return math.sqrt(LN2 / (2.0 * math.pi * tau_q))

    def g(x):  # x = pi tau q^2
        return math.exp(-2.0 * x) + math.exp(-2.0 * R * x) - 1.0

    lo, hi = 0.0, 1.0
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("no root bracket found for q*")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return math.sqrt(x / (math.pi * tau_q))


def _density_from_components(tau_q, R, g_turn, n0, f, b, X, c):
    """Assemble a DefectDensityPrediction from the Gaussian-integral components."""
    if b <= 0.0:
        raise OutOfRegimeError(
            "phase curvature b = %.3g <= 0: outside the asymptotic regime" % b)
    Omega = 2.0 * (g_turn - 1.0) ** 2 * (1.0 + R)
    X = np.asarray(X, dtype=float)
    c = np.asarray(c, dtype=float)
    M_i = X / np.sqrt(c) * (1.0 + (b / c) ** 2) ** -0.25
    delta_i = 3.0 * math.pi / 4.0 - 0.5 * np.arctan(c / b)
    ms = float(np.sum(M_i * np.sin(delta_i)))
    mc = float(np.sum(M_i * np.cos(delta_i)))
    M = math.hypot(ms, mc)
    delta = math.atan2(ms, mc)
    n = n0 * (f + float(np.sum(M_i * np.cos(Omega * tau_q + delta_i))))
    return DefectDensityPrediction(
        n0=n0, f=f, M_i=tuple(M_i), delta_i=tuple(delta_i),
        Omega_Q=Omega, M=M, delta=delta, T_Q=period(g_turn, R), n=n)


def density_prediction_roundtrip(tau_q, R, g_rt=0.0):
    """Oscillatory defect density of the (reversed) round-trip protocol.

    Valid for turning points g_rt in [0, 1) and, for the reversed protocol,
    g_rt > 1; the phase-curvature coefficient b comes from the reduced
    dynamical phase at the given turning point, b = (its q^2 tau
    coefficient) / pi.
    """
    if tau_q <= 0.0 or R <= 0.0:
        raise ValueError("tau_q and R must be positive")
    if g_rt == 1.0:
        raise OutOfRegimeError("critical turn has no oscillatory decomposition")
    n0 = kz_density(tau_q)
    f = 1.0 + 1.0 / math.sqrt(R) - 2.0 / math.sqrt(1.0 + R)
    b = _q2_phase(tau_q, R, g_rt) / math.pi
    X = [-2.0 * (1.0 + R) / math.sqrt(2.0 * R), math.sqrt(2.0 * R), math.sqrt(2.0 / R)]
    c = [1.0 + R, 3.0 + R, 1.0 + 3.0 * R]
    return _density_from_components(tau_q, R, g_rt, n0, f, b, X, c)


def amplitude_asymptote(tau_q, R):
    """Large-tau limit of the combined oscillation amplitude M.

    2 pi tau sqrt(2 pi tau') / (tau ln tau + tau' ln tau')^(3/2); for R = 1
    this decays like (ln tau)^(-3/2), the dephasing of the excited modes.
    """
    taup = R * tau_q
    return (2.0 * math.pi * tau_q * math.sqrt(2.0 * math.pi * taup)
            / (tau_q * math.log(tau_q) + taup * math.log(taup)) ** 1.5)


def pqf_critical_turn(q, tau_q, R=1.0, reduced=None):
    """Final excitation probability for the critical turning point g_rt = 1.

    Exact asymptotic amplitudes A = (1/2) sqrt(1+e^(-pi tau q^2))
    sqrt(1-e^(-pi tau' q^2)) (B mirrored) with phase
    psi = pi/2 + sum_{T in {tau, tau'}} [arg Gamma(1 - i T q^2 / 2)
          - arg Gamma(1/2 - i T q^2 / 2)].
    For R = 1 this reduces to
    (1 - e^(-2 pi tau q^2)) sin^2(pi/4 + (tau q^2/2)(gamma_E + digamma(1/2))),
    used when ``reduced`` is true (defaults to R == 1).
    """
    q = np.asarray(q, dtype=float)
    if reduced is None:
        reduced = R == 1.0
    if reduced:
        if R != 1.0:
            raise OutOfRegimeError("the reduced critical-turn form requires R = 1")
        x = tau_q * q * q
        return (-np.expm1(-2.0 * math.pi * x)
                * np.sin(math.pi / 4.0 + 0.5 * x * (GAMMA_E + DIGAMMA_HALF)) ** 2)
    taup = R * tau_q
    xa = math.pi * tau_q * q * q
    xb = math.pi * taup * q * q
    A = 0.5 * np.sqrt(1.0 + np.exp(-xa)) * np.sqrt(-np.expm1(-xb))
    B = 0.5 * np.sqrt(-np.expm1(-xa)) * np.sqrt(1.0 + np.exp(-xb))
    psi = math.pi / 2.0
    for T in (tau_q, taup):
        psi = psi + arg_gamma(1.0, -0.5 * T * q * q) - arg_gamma(0.5, -0.5 * T * q * q)
    return A * A + B * B - 2.0 * A * B * np.cos(psi)


def pqf_quarter_turn(q, tau_q, R, g_qt):
    """Final excitation probability of the quarter-turn protocol (full trig form).

    The branch g_qt >= 2 carries the extra pi phase shift; at exactly
    g_qt = 2 the >= 2 branch applies.
    """
    if g_qt <= 1.0:
        raise ValueError("g_qt must be > 1")
    q = np.asarray(q, dtype=float)
    taup = R * tau_q
    sq, cq = np.sin(q), np.cos(q)
    s2q, c2q = np.sin(2.0 * q), np.cos(2.0 * q)
    e1 = (g_qt * sq - s2q) ** 2          # first-ramp exponent / (pi tau)
    e2 = sq * sq                          # second-ramp exponent / (pi tau')
    A = np.exp(-math.pi * tau_q * e1) * np.sqrt(-np.expm1(-2.0 * math.pi * taup * e2))
    B = np.exp(-math.pi * taup * e2) * np.sqrt(-np.expm1(-2.0 * math.pi * tau_q * e1))
    log1 = np.log(np.clip(4.0 * tau_q * (g_qt * cq - c2q) ** 2, _TINY, None))
    log2 = np.log(np.clip(4.0 * taup * (g_qt - cq) ** 2, _TINY, None))
    psi = (math.pi / 2.0 + 2.0 * (g_qt * cq - c2q) ** 2 * tau_q
           + 2.0 * (g_qt - cq) ** 2 * taup
           + tau_q * e1 * (log1 + GAMMA_E) + taup * e2 * (log2 + GAMMA_E))
    if g_qt >= 2.0:
        psi = psi - math.pi
    return A * A + B * B - 2.0 * A * B * np.cos(psi)


def period(g_turn, R):
    """Oscillation period T_Q = pi / ((g_turn - 1)^2 (1 + R)) in tau_Q.

    g_turn is the protocol's turning parameter (g_rt, g_0 or g_qt); the
    period measured against tau_Q' is T_Q / R.  A turning point exactly at
    the critical point has infinite period.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if g_turn == 1.0:
        return math.inf
    return math.pi / ((g_turn - 1.0) ** 2 * (1.0 + R))


def density_prediction_xy_roundtrip(tau_q, R, g0):
    """Revised non-oscillatory factors for the XY round trip along the J_y axis.

    For g0 > 2 both crossings are ordinary critical points; at g0 = 2 the
    path runs through the tricritical point twice and the factors change
    power.  The oscillation amplitude at general g0 is not part of the
    closed forms, so M fields are left at zero amplitude.
    """
    if tau_q <= 0.0 or R <= 0.0:
        raise ValueError("tau_q and R must be positive")
    if g0 < 2.0:
        raise OutOfRegimeError("the J_y-axis round trip requires g0 >= 2")
    Omega = 2.0 * (g0 - 1.0) ** 2 * (1.0 + R)
    if g0 > 2.0:
        n0 = 1.0 / (2.0 * math.pi * (g0 - 2.0) * math.sqrt(2.0 * tau_q))
        f = 1.0 + 1.0 / math.sqrt(R) - 2.0 / math.sqrt(1.0 + R)
    else:
        n0 = GAMMA_7_6 / (math.pi * (2.0 * math.pi * tau_q) ** (1.0 / 6.0))
        f = 1.0 + R ** (-1.0 / 6.0) - 2.0 * (1.0 + R) ** (-1.0 / 6.0)
    return DefectDensityPrediction(
        n0=n0, f=f, M_i=(0.0, 0.0, 0.0), delta_i=(0.0, 0.0, 0.0), Omega_Q=Omega,
        M=0.0, delta=0.0, T_Q=period(g0, R), n=n0 * f)


def density_quarter_turn(tau_q, R, g_qt):
    """Defect density prediction for the quarter turn.

    For g_qt != 2 the density keeps the oscillatory round-trip form with the
    renewed branch factor f and period pi/((g_qt-1)^2 (1+R)); the amplitude
    components follow from the same Gaussian-integral construction with the
    first ramp's effective quench time tau (g_qt-2)^2.  At g_qt = 2 the first
    ramp passes the tricritical point and the non-oscillatory part involves
    the Airy functions; the fast-fading oscillation amplitude has no closed
    form, so an AiryDensity is returned instead.
    """
    if tau_q <= 0.0 or R <= 0.0:
        raise ValueError("tau_q and R must be positive")
    if g_qt <= 1.0:
        raise ValueError("g_qt must be > 1")
    taup = R * tau_q
    if g_qt == 2.0:
        x = -math.pi ** (2.0 / 3.0) * taup / (3.0 * tau_q) ** (1.0 / 3.0)
        ai, bi = airy_ai_bi(x)
        t1 = GAMMA_7_6 / (math.pi * (2.0 * math.pi * tau_q) ** (1.0 / 6.0))
        t2 = 1.0 / (2.0 * math.pi * math.sqrt(2.0 * taup))
        t3 = -math.pi ** (1.0 / 3.0) * (ai * ai + bi * bi) / (math.sqrt(2.0) * (3.0 * tau_q) ** (1.0 / 6.0))
        return AiryDensity(term_tricritical=t1, term_critical=t2, term_cross=t3, x=x,
                           T_Q=period(g_qt, R))
    n0 = kz_density(tau_q)
    if g_qt > 2.0:
        f = (1.0 / (g_qt - 2.0) + 1.0 / math.sqrt(R)
             - 2.0 / math.sqrt((g_qt - 2.0) ** 2 + R))
    else:
        f = ((6.0 + g_qt) / (4.0 - g_qt ** 2) + 1.0 / math.sqrt(R)
             - 2.0 / math.sqrt((g_qt - 2.0) ** 2 + R))
    a2 = (g_qt - 2.0) ** 2
    kappa = math.sqrt(R) / math.sqrt(a2)
    # interference of the q ~ 0 transitions: Gaussian decays c_i pi tau q^2
    X = [-math.sqrt(2.0) * (kappa + 1.0 / kappa), math.sqrt(2.0) * kappa,
         math.sqrt(2.0) / kappa]
    c = [a2 + R, 3.0 * a2 + R, a2 + 3.0 * R]
    b = (a2 * (math.log(4.0 * tau_q * (g_qt - 1.0) ** 2) + GAMMA_E)
         + R * (math.log(4.0 * taup * (g_qt - 1.0) ** 2) + GAMMA_E)
         + 2.0 * (g_qt - 1.0) * (4.0 - g_qt) + 2.0 * R * (g_qt - 1.0)) / math.pi
    return _density_from_components(tau_q, R, g_qt, n0, f, b, X, c)


def density_quarter_turn_quadrature(tau_q, R, g_qt):
    """Quadrature of the closed-form quarter-turn probability over (0, pi/2).

    The closed form is built from the near-critical Landau-Zener asymptotics,
    whose sin(q) symmetry reflects a spurious copy of the second-ramp
    transition weight to q ~ pi (modes there never cross any boundary, the
    evolved probability is at kink-response level).  So the integral stops
    at pi/2: at R = 1 and tau_q = 10 it is within 0.5% of the evolved density
    at g_qt = 1.5, 2.5 and 3, where the whole zone overshoots it by 18%, 68%
    and 108%.
    """
    # 37 panels of 64 Gauss-Legendre points
    q, wq = gauss_legendre_panels(np.linspace(0.0, math.pi / 2.0, 38), order=64)
    p = pqf_quarter_turn(q, tau_q, R, g_qt)
    return float(np.sum(wq * p) / math.pi)
