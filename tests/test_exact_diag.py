import numpy as np
import pytest
from scipy.linalg import expm

from rydclock.exact_diag import (AtomNumberError, ClockPulse, DressingPulse,
                                 HamiltonianTerms, PulseSequence, QuantumState,
                                 RampSchedule, _cf4_values, clock_rotation,
                                 dressed_pair_shift, project_qubit,
                                 qubit_bloch_vector, quadrature_variance_ratio,
                                 run_sequence)
from rydclock.geometry import (ArrayGeometry, build_subarrays,
                               DEFAULT_LATTICE_CONSTANT)
from rydclock.potentials import (DressingParams, pair_oscillation_frequency,
                                 weak_dressing_potential)

A_LAT = DEFAULT_LATTICE_CONSTANT
PAPER = DressingParams.from_hz(5.5e6, 11e6, 9.1)
WEAK = DressingParams.from_hz(2 * 0.05 * 11e6, 11e6, 9.1)  # beta = 0.05

PAIR = build_subarrays(1, 2, 2, 1, 1)
TRIO = build_subarrays(1, 3, 2, 1, 1)


def test_atom_number_cap():
    g = build_subarrays(2, 5, 2, 2, 1)
    assert g.n_atoms == 10
    with pytest.raises(AtomNumberError):
        HamiltonianTerms(g)


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 0.0]))  # not a power of 3
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 1.0, 0.0]))  # not normalized


def test_zero_interaction_time_is_noop():
    res = run_sequence(PAIR, PAPER, PulseSequence.spin_echo(0.0))
    assert res.contrast == pytest.approx(1.0, abs=1e-12)
    assert res.xi_w_sq == pytest.approx(1.0, abs=1e-9)
    assert res.max_rydberg_population == 0.0


def test_coherent_state_unit_variance_all_quadratures():
    res = run_sequence(TRIO, PAPER, PulseSequence((ClockPulse(np.pi / 2),)))
    assert res.contrast == pytest.approx(1.0, abs=1e-12)
    for alpha in np.linspace(0.0, np.pi, 7):
        assert res.variance_ratio(alpha) == pytest.approx(1.0, abs=1e-10)


def test_echo_cancels_light_shift_without_interactions():
    p = DressingParams(WEAK.omega_r, WEAK.delta, c6=0.0)
    res = run_sequence(PAIR, p, PulseSequence.spin_echo(100e-6))
    assert res.contrast == pytest.approx(1.0, abs=1e-5)
    assert res.xi_w_sq == pytest.approx(1.0, abs=1e-4)


def test_step_halving_leaves_result_invariant():
    seq = PulseSequence.spin_echo(20e-6)
    r1 = run_sequence(PAIR, PAPER, seq, RampSchedule(step=6.5e-9))
    r2 = run_sequence(PAIR, PAPER, seq, RampSchedule(step=3.25e-9))
    assert abs(r1.xi_w_sq - r2.xi_w_sq) < 1e-6
    assert abs(r1.contrast - r2.contrast) < 1e-6


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(3 ** n) + 1j * rng.standard_normal(3 ** n)
    return QuantumState(amp / np.linalg.norm(amp))


def test_block_propagation_matches_dense_exponential():
    terms = HamiltonianTerms(TRIO)
    psi0 = _random_state(3, 2)
    out = terms.propagate_clock_off(psi0.amplitudes, PAPER.omega_r,
                                    PAPER.delta, PAPER.c6, 1.7e-6)
    h = terms.assemble(PAPER.omega_r, PAPER.delta, 0.0, PAPER.c6).toarray()
    ref = expm(-1j * 1.7e-6 * h) @ psi0.amplitudes
    assert np.allclose(out, ref, atol=1e-9)


def test_block_ramp_matches_dense_ramp():
    sched = RampSchedule()
    n_steps = sched.n_ramp_steps()
    dt = sched.ramp_duration / n_steps
    for g in (PAIR, build_subarrays(2, 2, 2, 2, 1)):
        terms = HamiltonianTerms(g)
        psi0 = clock_rotation(QuantumState.ground(g.n_atoms), np.pi / 2).amplitudes
        blocked = terms.propagate_clock_off_ramp(psi0, PAPER, sched, "up")
        # dense reference: the same commutator-free steps on the full 3^N matrix
        ref = psi0.copy()
        for s in range(n_steps):
            for omega_r, delta in _cf4_values(PAPER, sched, "up", s, dt):
                h = terms.assemble(omega_r, delta, 0.0, PAPER.c6).toarray()
                ref = expm(-0.5j * dt * h) @ ref
        assert np.allclose(blocked, ref, atol=1e-9)


def test_exchange_symmetry_preserved():
    terms = HamiltonianTerms(PAIR)
    psi = clock_rotation(QuantumState.ground(2), np.pi / 2).amplitudes
    out = terms.propagate_clock_off(psi, PAPER.omega_r, PAPER.delta, PAPER.c6,
                                    3e-6)
    swapped = out.reshape(3, 3).T.reshape(-1)
    assert np.allclose(out, swapped, atol=1e-9)


def test_assemble_hermitian_and_schedule_endpoints():
    h = HamiltonianTerms(PAIR).assemble(PAPER.omega_r, PAPER.delta,
                                        0.3 * PAPER.omega_r, PAPER.c6)
    d = h.toarray()
    assert np.allclose(d, d.conj().T)
    sched = RampSchedule()
    om0, de0 = sched.values(PAPER, 0.0, "up")
    assert om0 == 0.0 and de0 == pytest.approx(3.0 * PAPER.delta)
    om1, de1 = sched.values(PAPER, sched.ramp_duration, "up")
    assert om1 == pytest.approx(PAPER.omega_r)
    assert de1 == pytest.approx(PAPER.delta)


def test_clock_rotation_inverse_and_projection():
    st = clock_rotation(QuantumState.ground(2), np.pi / 2, phase=0.3)
    back = clock_rotation(st, -np.pi / 2, phase=0.3)
    assert abs(back.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
    q, removed = project_qubit(st)
    assert removed == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(q) == pytest.approx(1.0)
    s = qubit_bloch_vector(q, 2)
    assert np.linalg.norm(s) == pytest.approx(1.0)  # N/2 for N = 2
    assert quadrature_variance_ratio(q, 2, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_quadrature_optimum_is_the_minimum():
    res = run_sequence(build_subarrays(2, 2, 2, 2, 1), PAPER,
                       PulseSequence.spin_echo(2e-6))
    assert res.var_ratio_min == pytest.approx(res.variance_ratio(res.alpha_opt),
                                              abs=1e-12)
    grid = np.linspace(0.0, np.pi, 2001)
    assert res.var_ratio_min <= min(res.variance_ratio(a) for a in grid) + 1e-12


def test_sudden_dressing_warns_about_rydberg_population():
    seq = PulseSequence.spin_echo(4e-6)
    with pytest.warns(UserWarning, match="Rydberg"):
        run_sequence(PAIR, PAPER, seq, RampSchedule(ramp_duration=0.0))


def test_adiabatic_ramps_keep_residual_population_small():
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        res = run_sequence(PAIR, WEAK, PulseSequence.spin_echo(50e-6))
    assert res.max_rydberg_population < 0.05


def test_pair_shift_consistent_between_modules():
    for r in (1 * A_LAT, 3 * A_LAT, 6 * A_LAT):
        assert dressed_pair_shift(PAPER, r) == pytest.approx(
            2.0 * pair_oscillation_frequency(PAPER, r), rel=1e-12)
    with pytest.raises(ValueError):
        dressed_pair_shift(PAPER, 0.0)


def test_pair_shift_blockaded_plateau_value():
    # at zero separation the shift saturates well below the beta^3 estimate
    v = dressed_pair_shift(PAPER, 1e-9)
    assert v == pytest.approx(62.3e3, rel=0.01)
    assert v < weak_dressing_potential(PAPER).v0


def test_weak_dressing_limit_matches_analytics():
    from rydclock.weak_dressing import (InteractionPhases, wineland)
    t_int = 50e-6
    res = run_sequence(PAIR, WEAK, PulseSequence.spin_echo(t_int))
    v = dressed_pair_shift(WEAK, 2 * A_LAT)
    phi = np.pi * v * t_int
    ph = InteractionPhases(phi=np.array([[0.0, phi], [phi, 0.0]]), t_int=t_int)
    obs = wineland(ph)
    assert res.contrast == pytest.approx(obs.contrast, rel=0.02)
    assert res.xi_w_sq == pytest.approx(obs.xi_w_sq, rel=0.05)
