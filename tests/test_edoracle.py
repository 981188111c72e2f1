import numpy as np
import pytest

from kzquench import edoracle as ed
from kzquench import evolver as ev
from kzquench import lattice as lat
from kzquench import protocol as proto


def test_ground_state_energy_matches_free_fermions():
    for N, g in [(8, 10.0), (10, 0.0), (8, 2.5)]:
        gs = ed.ground_state(N, (g, 1.0, 0.0))
        ker = ed._kernels(N)
        hpsi = ker.apply(gs.amplitudes, g, 1.0, 0.0)
        e0 = float(np.real(np.vdot(gs.amplitudes, hpsi)))
        grid = lat.mode_grid(N)
        e_ff = -float(np.sum(lat.ising_bdg(lat.IsingParams(g), grid.q).omega))
        assert abs(e0 - e_ff) < 1e-10 * max(1.0, abs(e_ff))
        assert abs(ed.parity_expectation(gs) - 1.0) < 1e-12


def test_ground_state_xy_energy():
    N, g, jy = 8, 1.3, 0.7
    gs = ed.ground_state(N, (g, 1.0, jy))
    ker = ed._kernels(N)
    e0 = float(np.real(np.vdot(gs.amplitudes, ker.apply(gs.amplitudes, g, 1.0, jy))))
    grid = lat.mode_grid(N)
    e_ff = -float(np.sum(lat.xy_bdg(lat.XYParams(g=g, J_y=jy), grid.q).omega))
    assert abs(e0 - e_ff) < 1e-9


def test_static_schedule_preserves_eigenstate():
    # a constant path leaves the state an eigenstate up to phase
    N = 8
    sch = proto.linear((10.0, 1.0, 0.0), (10.0 + 1e-14, 1.0, 0.0), duration=3.0)
    st = ed.evolve_exact(sch, N)
    gs = ed.ground_state(N, (10.0, 1.0, 0.0))
    overlap = abs(np.vdot(gs.amplitudes, st.amplitudes))
    assert abs(overlap - 1.0) < 1e-9


def test_measure_defects_product_states():
    N = 8
    psi = np.zeros(1 << N, dtype=complex)
    psi[0] = 1.0  # all spins up
    st = ed.ManyBodyState(amplitudes=psi, N=N)
    assert ed.measure_defects(st, "paramagnetic") == 0.0
    # Neel-in-x state: uniform superposition with alternating x-signs gives
    # kink density 1; build it from product of (|0> +- |1>)/sqrt(2)
    amps = np.ones(1 << N, dtype=complex)
    for s in range(1 << N):
        sign = 1.0
        for j in range(1, N, 2):  # minus on odd sites
            if (s >> j) & 1:
                sign = -sign
        amps[s] = sign
    amps /= np.linalg.norm(amps)
    neel = ed.ManyBodyState(amplitudes=amps, N=N)
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
    n_bdg = ev.fermion_density(ev.evolve_spectrum(sch, N))
    assert abs(n_ed - n_bdg) < 1e-6


def test_reversed_kinks_match_bdg():
    N, tau = 8, 2.0
    sch = proto.reversed_round_trip(1.5, tau, 1.0)
    st = ed.evolve_exact(sch, N)
    k_ed = ed.measure_defects(st, "ferromagnetic")
    k_bdg = ev.defect_density(ev.evolve_spectrum(sch, N))
    assert abs(k_ed - k_bdg) < 1e-6


def test_quarter_turn_matches_bdg():
    # XY dynamics with time-dependent J_y against the mode evolution
    N, tau = 8, 1.5
    sch = proto.quarter_turn(1.5, tau, 1.0, jy_initial=4.0)
    st = ed.evolve_exact(sch, N)
    k_ed = ed.measure_defects(st, "ferromagnetic")
    k_bdg = ev.defect_density(ev.evolve_spectrum(sch, N))
    assert abs(k_ed - k_bdg) < 1e-6


def test_paramagnetic_measure_approaches_excitation_count():
    # N_P ~ N holds approximately, better the deeper the paramagnet:
    # the gap shrinks by > 4x from g_f = 5 to g_f = 20
    N, tau = 8, 2.0
    gaps = {}
    for g_f in (5.0, 20.0):
        sch = proto.round_trip(0.0, tau, 1.0, g_i=10.0, g_f=g_f)
        sp = ev.evolve_spectrum(sch, N)
        n_p = ev.fermion_density(sp)           # sigma^z measure
        n_exc = ev.defect_density(sp)          # quasiparticle count
        gaps[g_f] = abs(n_p - n_exc)
    assert gaps[20.0] < 0.25 * gaps[5.0]


def test_kernel_size_guard():
    with pytest.raises(ValueError):
        ed._kernels(16)
    with pytest.raises(ValueError):
        ed._kernels(7)
