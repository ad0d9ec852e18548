import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (SpinEchoOracle, ku_contrast, ku_variance_ratio_min,
                     pair_coefficients_loop)
from rydclock.geometry import (ArrayGeometry, build_subarrays,
                               DEFAULT_LATTICE_CONSTANT)
from rydclock.potentials import SoftCorePotential
from rydclock.weak_dressing import (CouplingMatrix, InteractionPhases,
                                    _pair_coefficients, contrast,
                                    couplings_from_potential, g2_correlator,
                                    g2_map_by_displacement, phases_for_geometry,
                                    scan_xi_vs_n, variance_ratio, wineland,
                                    write_scan_csv)

A_LAT = DEFAULT_LATTICE_CONSTANT


def random_phases(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    phi = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    phi[iu] = rng.uniform(-scale, scale, iu[0].size)
    return InteractionPhases(phi=phi + phi.T, t_int=1.0)


def test_phase_from_coupling_definition():
    c = CouplingMatrix(np.array([[0.0, 100.0], [100.0, 0.0]]))
    ph = InteractionPhases.from_couplings(c, t_int=1e-3)
    # phi = V t / (2 hbar) = pi f t for V = h f
    assert ph.phi[0, 1] == pytest.approx(np.pi * 100.0 * 1e-3)


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValueError):
        CouplingMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        InteractionPhases(phi=np.array([[1.0, 0.0], [0.0, 0.0]]), t_int=1.0)


def test_couplings_from_potential_values():
    v = SoftCorePotential(v0=46.4e3, r_b=4.9 * A_LAT)
    g = build_subarrays(4, 4, 2, 2, 1)
    c = couplings_from_potential(g, v)
    # nearest neighbor at 2 a_lat
    assert c.v[0, 1] == pytest.approx(46.4e3 / (1 + (2 / 4.9) ** 6))
    assert c.v[0, 1] == pytest.approx(46.2e3, rel=0.01)
    g2sub = build_subarrays(2, 2, 2, 2, n_subarrays=2)
    c2 = couplings_from_potential(g2sub, v)
    a_idx = g2sub.subarray_indices("A")
    b_idx = g2sub.subarray_indices("B")
    assert all(c2.v[i, j] == 0.0 for i in a_idx for j in b_idx)
    # two atoms at exactly r_b
    import rydclock.geometry as geo
    gg = geo.ArrayGeometry(((0, 0), (49, 0)), ("A", "A"),
                           lattice_constant=0.1 * A_LAT)
    cc = couplings_from_potential(gg, v)
    assert cc.v[0, 1] == pytest.approx(46.4e3 / 2.0)


def test_contrast_trivial_cases():
    assert contrast(random_phases(4, 0, scale=0.0)) == pytest.approx(1.0)
    ph = InteractionPhases(phi=np.array([[0.0, np.pi / 2], [np.pi / 2, 0.0]]),
                           t_int=1.0)
    assert contrast(ph) == pytest.approx(0.0, abs=1e-15)


def test_g2_trivial_cases():
    ph = random_phases(5, 1)
    assert g2_correlator(ph, 0.0, 0, 1) == 0.0
    ph2 = InteractionPhases(phi=np.array([[0.0, np.pi / 2], [np.pi / 2, 0.0]]),
                            t_int=1.0)
    assert g2_correlator(ph2, np.pi / 4, 0, 1) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        g2_correlator(ph, 0.3, 2, 2)


def test_against_state_vector_oracle():
    rng = np.random.default_rng(42)
    for trial in range(12):
        n = int(rng.integers(2, 10))
        ph = random_phases(n, 100 + trial)
        oracle = SpinEchoOracle(ph.phi)
        alpha = float(rng.uniform(0.0, np.pi))
        assert contrast(ph) == pytest.approx(oracle.contrast(), abs=1e-12)
        assert variance_ratio(ph, alpha) == pytest.approx(
            oracle.variance_ratio(alpha), abs=1e-10)
        g2 = {(i, j): oracle.g2(i, j, alpha)
              for i in range(n) for j in range(n) if i != j}
        for (i, j), ref in g2.items():
            assert g2_correlator(ph, alpha, i, j) == pytest.approx(ref, abs=1e-12)
        # random distinct sites on a 4x4 grid, so several pairs share a displacement
        cells = rng.choice(16, size=n, replace=False)
        g = ArrayGeometry(tuple((int(c % 4), int(c // 4)) for c in cells),
                          ("A",) * n)
        by_disp = {}
        for (i, j), ref in g2.items():
            key = (g.sites[j][0] - g.sites[i][0], g.sites[j][1] - g.sites[i][1])
            by_disp.setdefault(key, []).append(ref)
        gmap = g2_map_by_displacement(g, ph, alpha)
        assert set(gmap) == set(by_disp)
        for key, refs in by_disp.items():
            assert gmap[key] == pytest.approx(np.mean(refs), abs=1e-12)


def test_pair_table_bit_identical_to_per_pair_loop():
    v = SoftCorePotential(v0=46.4e3, r_b=4.9 * A_LAT)
    cases = [random_phases(n, n, scale=1.5).phi for n in (2, 3, 4, 7, 16, 31)]
    cases += [np.zeros((5, 5)),
              phases_for_geometry(build_subarrays(4, 5, 2, 2, 1), v, 3e-6).phi]
    for phi in cases:
        for got, ref in zip(_pair_coefficients(phi), pair_coefficients_loop(phi)):
            assert got.tobytes() == ref.tobytes()


def test_longitudinal_fields_cancelled_by_echo():
    rng = np.random.default_rng(7)
    ph = random_phases(5, 11)
    deltas = rng.uniform(-3.0, 3.0, 5)
    plain = SpinEchoOracle(ph.phi)
    shifted = SpinEchoOracle(ph.phi, deltas=deltas)
    for alpha in (0.3, 1.2):
        assert shifted.variance_ratio(alpha) == pytest.approx(
            plain.variance_ratio(alpha), abs=1e-12)
    assert shifted.contrast() == pytest.approx(plain.contrast(), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.0, max_value=np.pi))
def test_g2_pi_periodic_in_alpha(n, seed, alpha):
    ph = random_phases(n, seed)
    assert g2_correlator(ph, alpha, 0, 1) == pytest.approx(
        g2_correlator(ph, alpha + np.pi, 0, 1), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
def test_alpha_average_of_variance_ratio_at_least_one(n, seed):
    # holds for repulsive (non-negative) couplings, the physical case here
    rng = np.random.default_rng(seed)
    phi = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    phi[iu] = rng.uniform(0.0, 1.0, iu[0].size)
    ph = InteractionPhases(phi=phi + phi.T, t_int=1.0)
    alphas = np.linspace(0.0, np.pi, 64, endpoint=False)
    avg = np.mean([variance_ratio(ph, a) for a in alphas])
    assert avg >= 1.0 - 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
def test_wineland_dominates_variance_ratio(n, seed):
    ph = random_phases(n, seed)
    obs = wineland(ph)
    assert obs.xi_w_sq >= obs.var_ratio_min - 1e-12
    assert obs.var_ratio_min == pytest.approx(
        obs.variance_ratio(obs.alpha_opt), abs=1e-9)


def test_no_interaction_gives_unity():
    obs = wineland(random_phases(6, 0, scale=0.0))
    assert obs.xi_w_sq == pytest.approx(1.0)
    assert obs.contrast == pytest.approx(1.0)
    assert obs.xi_db == pytest.approx(0.0)


def test_wineland_db_inversion():
    # xi^2 = var_ratio / C^2 in dB
    assert 10 * np.log10(0.287 / 0.83 ** 2) == pytest.approx(-3.8, abs=0.05)


def test_all_to_all_matches_ku_closed_form():
    n, phi = 12, 0.07
    ph = InteractionPhases(phi=phi * (np.ones((n, n)) - np.eye(n)), t_int=1.0)
    obs = wineland(ph)
    assert obs.var_ratio_min == pytest.approx(ku_variance_ratio_min(n, phi),
                                              rel=1e-10)
    assert obs.contrast == pytest.approx(ku_contrast(n, phi), rel=1e-12)


def test_minimize_variance_returns_grid_refined_minimum():
    obs = wineland(random_phases(6, 3))
    grid = np.linspace(0.0, np.pi, 2001)
    assert obs.var_ratio_min <= min(obs.variance_ratio(a) for a in grid) + 1e-10


def test_scan_monotone_improvement():
    v = SoftCorePotential(v0=46.4e3, r_b=4.9 * A_LAT)
    t_grid = np.linspace(0.5e-6, 30e-6, 120)
    sizes = [(2, 2), (2, 4), (4, 4), (4, 8)]
    rows = scan_xi_vs_n(sizes, v, t_grid)
    xi = [r["xi_w_sq"] for r in rows]
    assert all(b < a for a, b in zip(xi, xi[1:]))


def test_scan_t_zero_trivial():
    v = SoftCorePotential(v0=46.4e3, r_b=4.9 * A_LAT)
    rows = scan_xi_vs_n([(2, 2)], v, [0.0])
    assert rows[0]["xi_w_sq"] == 1.0


def test_scan_csv_and_g2_map(tmp_path):
    v = SoftCorePotential(v0=46.4e3, r_b=4.9 * A_LAT)
    rows = scan_xi_vs_n([(2, 2)], v, [5e-6])
    path = tmp_path / "scan.csv"
    write_scan_csv(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "N,t_int_us,alpha_opt_deg,contrast,var_ratio_min,xi_db"

    g = build_subarrays(2, 2, 2, 2, 1)
    ph = phases_for_geometry(g, v, 5e-6)
    gmap = g2_map_by_displacement(g, ph, 0.4)
    assert (2, 0) in gmap and (0, 2) in gmap
    assert gmap[(2, 0)] == pytest.approx(gmap[(-2, 0)])
