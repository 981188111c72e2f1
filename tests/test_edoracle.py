import functools
import math

import numpy as np
import pytest

from kzquench import edoracle as ed
from kzquench import evolver as ev
from kzquench import lattice as lat
from kzquench import protocol as proto

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_ISY = np.array([[0.0, 1.0], [-1.0, 0.0]])    # i sigma^y, real


def _site_product(N, ops):
    """Kronecker product over the chain; site j is bit j of the state index."""
    out = np.ones((1, 1))
    for j in reversed(range(N)):
        out = np.kron(out, ops.get(j, np.eye(2)))
    return out


def _dense_h(N, g, jx, jy):
    """-g sum sz_j - jx sum sx_j sx_(j+1) - jy sum sy_j sy_(j+1), periodic, from Pauli matrices."""
    H = np.zeros((1 << N, 1 << N))
    for j in range(N):
        k = (j + 1) % N
        H -= g * _site_product(N, {j: _SZ})
        H -= jx * _site_product(N, {j: _SX, k: _SX})
        H += jy * _site_product(N, {j: _ISY, k: _ISY})    # sy sy = -(i sy)(i sy)
    return H


@functools.cache
def _isometry(N):
    """Columns: the sector basis in the full space, from orbits enumerated one by one.

    Each k = 0, reflection-even, even-parity basis state is the uniform
    superposition over the rotations and reflections of one even z-basis
    configuration; columns are ordered by the smallest configuration of the orbit.
    """
    orbits = set()
    for s in range(1 << N):
        if bin(s).count("1") % 2:
            continue
        bits = [(s >> j) & 1 for j in range(N)]
        images = {sum(b << j for j, b in enumerate(seq[r:] + seq[:r]))
                  for seq in (bits, bits[::-1]) for r in range(N)}
        orbits.add(tuple(sorted(images)))
    P = np.zeros((1 << N, len(orbits)))
    for a, orbit in enumerate(sorted(orbits)):
        P[list(orbit), a] = 1.0 / math.sqrt(len(orbit))
    return P


def _energy(state, params):
    psi = _isometry(state.N) @ state.amplitudes
    return float(np.real(np.vdot(psi, _dense_h(state.N, *params) @ psi)))


def _dense_measures(N, psi):
    """Flip and kink densities and parity of the full-space state psi, from Pauli matrices."""
    w = np.vdot(psi, psi).real

    def mean(op):
        return np.vdot(psi, op @ psi).real / w

    flips = sum(0.5 * (1.0 - mean(_site_product(N, {j: _SZ}))) for j in range(N)) / N
    kinks = sum(0.5 * (1.0 - mean(_site_product(N, {j: _SX, (j + 1) % N: _SX})))
                for j in range(N)) / N
    return flips, kinks, mean(_site_product(N, {j: _SZ for j in range(N)}))


def _sector_measures(state):
    return (ed.measure_defects(state, "paramagnetic"), ed.measure_defects(state, "ferromagnetic"),
            ed.parity_expectation(state))


@pytest.mark.parametrize("N", [4, 6])
def test_sector_matches_dense_hamiltonian(N):
    rng = np.random.default_rng(N)
    ker = ed._kernels(N)
    P = _isometry(N)
    assert P.shape[1] == ker.D
    assert np.allclose(P.T @ P, np.eye(ker.D), atol=1e-14)
    for _ in range(3):
        g, jy = rng.uniform(-2.0, 2.0, size=2)
        H = _dense_h(N, g, 1.0, jy)
        Hs = ker.hamiltonians(g, 1.0, jy)
        assert np.allclose(Hs, P.T @ H @ P, atol=1e-12)
        assert np.allclose(H @ P, P @ Hs, atol=1e-12)      # the sector is closed under H


@pytest.mark.parametrize("N", [4, 6])
def test_sector_measures_match_dense(N):
    rng = np.random.default_rng(N)
    for _ in range(3):
        c = rng.normal(size=(ed._kernels(N).D, 2)) @ [1.0, 1j]
        st = ed.ManyBodyState(amplitudes=c, N=N)
        assert np.allclose(_sector_measures(st), _dense_measures(N, _isometry(N) @ c),
                           rtol=0.0, atol=1e-14)


def test_evolved_state_measures_match_dense():
    N = 8
    st = ed.evolve_exact(proto.reversed_round_trip(1.5, 1.0, 1.0), N)
    assert np.allclose(_sector_measures(st), _dense_measures(N, _isometry(N) @ st.amplitudes),
                       rtol=0.0, atol=1e-14)


def _eigh_apply(H, s, c):
    w, V = np.linalg.eigh(H)
    return V @ (np.exp(-1j * s * w) * (V.T @ c))


@pytest.mark.parametrize("s", [1e-3, 0.05, 0.7])
def test_exponential_matches_eigh(s):
    # one Taylor substep at the smallest s, several at the largest, on the
    # sectors of 18, 44 and 122 states
    for N in (8, 10, 12):
        ker = ed._kernels(N)
        H = ker.hamiltonians(3.0, 1.0, 0.5)
        bound = N * (3.0 + 1.0 + 0.5)
        c = np.random.default_rng(1).normal(size=(ker.D, 2)) @ [1.0, 1j]
        y = ed._expm_apply(s * H, s * bound, c)
        assert y.shape == (ker.D,)
        assert np.abs(y - _eigh_apply(H, s, c)).max() < 1e-13 * max(1.0, s * bound), N


@pytest.mark.parametrize("s", [
    (1e-3, 4e-3),       # s bound = 0.036 and 0.144: one substep each
    (0.09, 0.05),       # 3.24 and 1.8: 4 and 2 substeps
    (2e-3, 0.09),       # 0.072 and 3.24: 1 and 4
])
def test_exponential_pair_matches_eigh(s):
    # two exponentials at unequal lengths and Hamiltonians, each run alone
    # against its own dense exponential
    ker = ed._kernels(8)
    params = [(3.0, 1.0, 0.5), (-1.5, 1.0, 2.0)]
    rng = np.random.default_rng(2)
    c = rng.normal(size=(2, ker.D, 2)) @ [1.0, 1j]
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    for p, s_j, c_j in zip(params, s, c):
        H = ker.hamiltonians(*p)
        bound = 8 * sum(abs(x) for x in p)
        y = ed._expm_apply(s_j * H, s_j * bound, c_j)
        assert np.abs(y - _eigh_apply(H, s_j, c_j)).max() < 1e-13 * max(1.0, s_j * bound)
        assert abs(np.linalg.norm(y) - 1.0) < 1e-14


@pytest.mark.parametrize("N", [8, 12])
@pytest.mark.parametrize("h", [0.01, 0.3])
def test_step_matches_eigh_compositions(N, h):
    # fine = E5 E4 E2 E0 y and coarse = E3 E1 y, each E_j the dense exponential
    # of length h _LENGTHS[j] at dt + h _NODES[j]; at h = 0.3 the single step's
    # exponentials take several Taylor substeps
    ker = ed._kernels(N)
    pab = np.array([[2.5, 1.0, 0.3], [-1.5, 0.0, 0.8]])
    Hab = ker.hamiltonians(*pab.T).reshape(2, -1)
    dt = 0.4
    rng = np.random.default_rng(3)
    y = rng.normal(size=(ker.D, 2)) @ [1.0, 1j]
    y /= np.linalg.norm(y)
    fine, coarse = ed._step(ker, Hab, pab, dt, h, y)
    for got, chain in ((fine, (0, 2, 4, 5)), (coarse, (1, 3))):
        ref, total = y, 0.0
        for j in chain:
            p = pab[0] + (dt + h * ed._NODES[j]) * pab[1]
            s = h * ed._LENGTHS[j]
            ref = _eigh_apply(ker.hamiltonians(*p), s, ref)
            total += s * N * np.abs(p).sum()
        assert np.abs(got - ref).max() < 1e-13 * max(1.0, total)


def test_sector_dimensions():
    assert [ed._kernels(N).D for N in (8, 10, 12)] == [18, 44, 122]


def test_ground_state_energy_matches_free_fermions():
    for N, g in [(8, 10.0), (10, 0.0), (8, 2.5)]:
        gs = ed.ground_state(N, (g, 1.0, 0.0))
        e0 = _energy(gs, (g, 1.0, 0.0))
        q = lat.mode_grid(N)
        e_ff = -float(np.sum(np.hypot(*lat.eps_delta(g, 1.0, 0.0, np.cos(q), np.sin(q)))))
        assert abs(e0 - e_ff) < 1e-10 * max(1.0, abs(e_ff))
        assert abs(ed.parity_expectation(gs) - 1.0) < 1e-12


def test_ground_state_xy_energy():
    N, g, jy = 8, 1.3, 0.7
    gs = ed.ground_state(N, (g, 1.0, jy))
    e0 = _energy(gs, (g, 1.0, jy))
    q = lat.mode_grid(N)
    e_ff = -float(np.sum(np.hypot(*lat.eps_delta(g, 1.0, jy, np.cos(q), np.sin(q)))))
    assert abs(e0 - e_ff) < 1e-9


def test_static_schedule_preserves_eigenstate():
    # a constant path leaves the state an eigenstate up to phase
    N = 8
    sch = proto.Schedule((proto.Segment(0.0, 3.0, (10.0, 1.0, 0.0), (10.0 + 1e-14, 1.0, 0.0)),),
                         "static")
    st = ed.evolve_exact(sch, N)
    gs = ed.ground_state(N, (10.0, 1.0, 0.0))
    overlap = abs(np.vdot(gs.amplitudes, st.amplitudes))
    assert abs(overlap - 1.0) < 1e-9


def test_measure_defects_product_states():
    N = 8
    P = _isometry(N)
    psi = np.zeros(1 << N)
    psi[0] = 1.0  # all spins up
    st = ed.ManyBodyState(amplitudes=P.T @ psi, N=N)
    assert ed.measure_defects(st, "paramagnetic") == 0.0
    # Neel-in-x state: uniform superposition with alternating x-signs gives
    # kink density 1; build it from product of (|0> +- |1>)/sqrt(2).  Its
    # sector part is the even sum of the two Neel states, kink density 1 too.
    amps = np.ones(1 << N)
    for s in range(1 << N):
        sign = 1.0
        for j in range(1, N, 2):  # minus on odd sites
            if (s >> j) & 1:
                sign = -sign
        amps[s] = sign
    amps /= np.linalg.norm(amps)
    neel = ed.ManyBodyState(amplitudes=P.T @ amps, N=N)
    assert abs(ed.measure_defects(neel, "ferromagnetic") - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ed.measure_defects(st, "bogus")


def test_parity_conserved_along_evolution():
    sch = proto.round_trip(0.0, 1.0, 1.0, g_i=5.0, g_f=5.0)
    st = ed.evolve_exact(sch, 8)
    assert abs(ed.parity_expectation(st) - 1.0) < 1e-9


def test_roundtrip_matches_bdg():
    N, tau = 8, 2.0
    sch = proto.round_trip(0.0, tau, 1.0)
    st = ed.evolve_exact(sch, N)
    n_ed = ed.measure_defects(st, "paramagnetic")
    n_bdg = ev.fermion_density(ev.evolve([(sch, lat.mode_grid(N))])[0])
    assert abs(n_ed - n_bdg) < 1e-6


def test_reversed_kinks_match_bdg():
    N, tau = 8, 2.0
    sch = proto.reversed_round_trip(1.5, tau, 1.0)
    st = ed.evolve_exact(sch, N)
    k_ed = ed.measure_defects(st, "ferromagnetic")
    k_bdg = ev.defect_density(ev.evolve([(sch, lat.mode_grid(N))])[0])
    assert abs(k_ed - k_bdg) < 1e-6


def test_quarter_turn_matches_bdg():
    # XY dynamics with time-dependent J_y against the mode evolution
    N, tau = 8, 1.5
    sch = proto.quarter_turn(1.5, tau, 1.0, jy_initial=4.0)
    st = ed.evolve_exact(sch, N)
    k_ed = ed.measure_defects(st, "ferromagnetic")
    k_bdg = ev.defect_density(ev.evolve([(sch, lat.mode_grid(N))])[0])
    assert abs(k_ed - k_bdg) < 1e-6


def test_paramagnetic_measure_approaches_excitation_count():
    # N_P ~ N holds approximately, better the deeper the paramagnet:
    # the gap shrinks by > 4x from g_f = 5 to g_f = 20
    N, tau = 8, 2.0
    gaps = {}
    for g_f in (5.0, 20.0):
        sch = proto.round_trip(0.0, tau, 1.0, g_i=10.0, g_f=g_f)
        sp = ev.evolve([(sch, lat.mode_grid(N))])[0]
        n_p = ev.fermion_density(sp)           # sigma^z measure
        n_exc = ev.defect_density(sp)          # quasiparticle count
        gaps[g_f] = abs(n_p - n_exc)
    assert gaps[20.0] < 0.25 * gaps[5.0]


def test_kernel_size_guard():
    with pytest.raises(ValueError):
        ed._kernels(16)
    with pytest.raises(ValueError):
        ed._kernels(7)


# Defect densities from the full-space oracle this sector oracle replaced
# (matrix-free 2^N Hamiltonian, even-parity Lanczos ground state, adaptive
# Dormand-Prince 5(4) steps), run at rel_tol=1e-12, abs_tol=1e-14.  Round
# trips are measured in flips, reversed trips and the quarter turn in kinks.
_FULL_SPACE_REFERENCE = {
    (8, "round_trip", 1.0): 0.07164781353939792,
    (8, "round_trip", 2.0): 0.13433465479933815,
    (8, "reversed", 1.0): 0.282169380119015,
    (8, "reversed", 2.0): 0.0516446215380329,
    (8, "quarter_turn", 1.5): 0.19083527401136274,
    (10, "round_trip", 1.0): 0.07671331052754114,
    (10, "round_trip", 2.0): 0.16193052127509563,
    (10, "reversed", 1.0): 0.19607555012264974,
    (10, "reversed", 2.0): 0.11232814337539172,
    (10, "quarter_turn", 1.5): 0.27078191948287744,
}


_SCHEDULES = {
    "round_trip": (lambda tau: proto.round_trip(0.0, tau, 1.0), "paramagnetic"),
    "reversed": (lambda tau: proto.reversed_round_trip(1.5, tau, 1.0), "ferromagnetic"),
    "quarter_turn": (lambda tau: proto.quarter_turn(1.5, tau, 1.0, jy_initial=4.0),
                     "ferromagnetic"),
}


@pytest.mark.parametrize("N, kind, tau", sorted(_FULL_SPACE_REFERENCE))
def test_matches_full_space_reference(N, kind, tau):
    build, basis = _SCHEDULES[kind]
    value = ed.measure_defects(ed.evolve_exact(build(tau), N), basis)
    assert abs(value - _FULL_SPACE_REFERENCE[N, kind, tau]) < 1e-9


@pytest.mark.parametrize("opts, match", [
    (ev.SolverOptions(rel_tol=1e-300, abs_tol=1e-300), "fails its tolerance"),
    # default tolerances under a budget of 3 attempted steps
    (ev.SolverOptions(), "step budget exhausted"),
])
def test_failing_evolution_raises(opts, match, monkeypatch):
    if "budget" in match:
        monkeypatch.setattr(ev, "MAX_STEPS", 3)
    with pytest.raises(ev.NumericalFailure, match=match):
        ed.evolve_exact(proto.reversed_round_trip(1.5, 1.0, 1.0), 8, opts)


def test_step_underflow_raises():
    # h falls below 1e-13 of the 15-long segment before it reaches 1e-12
    with pytest.raises(ev.NumericalFailure, match="ED: step underflow at t=-15"):
        ed.evolve_exact(proto.reversed_round_trip(1.5, 10.0, 1.0), 8,
                        ev.SolverOptions(rel_tol=1e-300, abs_tol=1e-300))


def test_step_budget_counts_per_segment(monkeypatch):
    # 217 steps in all, at most 150 in each of the two segments
    monkeypatch.setattr(ev, "MAX_STEPS", 150)
    st = ed.evolve_exact(proto.reversed_round_trip(1.5, 1.0, 1.0), 8)
    assert st.meta["steps"] == 217


# The four N = 8 runs of ``validate`` at tau 1.05 and 1.95 at default
# tolerances: attempted steps and the density each check reads, computed with
# the Taylor exponentials summed term by term, one exponential at a time.
_VALIDATE_RUNS = {
    ("round_trip", 1.05): (2437, 0.06100268197531307),
    ("reversed", 1.05): (224, 0.2715236723544765),
    ("round_trip", 1.95): (3998, 0.1292112959537065),
    ("reversed", 1.95): (365, 0.058298099010047566),
}


@pytest.mark.parametrize("kind, tau", sorted(_VALIDATE_RUNS))
def test_validate_runs_frozen(kind, tau):
    build, basis = _SCHEDULES[kind]
    st = ed.evolve_exact(build(tau), 8)
    steps, value = _VALIDATE_RUNS[kind, tau]
    assert st.meta["steps"] == steps and st.meta["rejected"] == 0
    assert abs(ed.measure_defects(st, basis) - value) < 1e-13
    assert abs(ed.parity_expectation(st) - 1.0) < 1e-13


def test_evolution_statistics():
    st = ed.evolve_exact(proto.reversed_round_trip(1.5, 1.0, 1.0), 8)
    m = st.meta
    assert m["sector_dim"] == 18
    assert m["steps"] == m["accepted"] + m["rejected"] and m["accepted"] > 0
    assert 0.0 < m["h_min"] < math.inf
    assert all(type(ed.measure_defects(st, kind)) is float
               for kind in ("paramagnetic", "ferromagnetic"))
