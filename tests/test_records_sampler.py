import numpy as np
import pytest

from rydclock.ellipse import EllipseModel, tempered_log_pmf
from rydclock.records import MeasurementRecord
from rydclock.sampler import (NoiseSpec, _sample_tempered, sample_css, sample_sss,
                              sample_stability_run, tempered_binomial_variance,
                              zeta_for_variance_gain)


def _record(n=5):
    rng = np.random.default_rng(0)
    return MeasurementRecord(
        p_a=rng.random(n), p_b=rng.random(n),
        n_a=np.full(n, 70), n_b=np.full(n, 70), t_dark=0.101)


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(p_a=np.array([0.5]), p_b=np.array([0.5, 0.5]),
                          n_a=np.array([70]), n_b=np.array([70]))
    with pytest.raises(ValueError):
        MeasurementRecord(p_a=np.array([1.5]), p_b=np.array([0.5]),
                          n_a=np.array([70]), n_b=np.array([70]))
    with pytest.raises(ValueError):
        MeasurementRecord(p_a=np.array([0.5]), p_b=np.array([0.5]),
                          n_a=np.array([0]), n_b=np.array([70]))
    with pytest.raises(ValueError):
        MeasurementRecord(p_a=np.array([0.5]), p_b=np.array([0.5]),
                          n_a=np.array([70]), n_b=np.array([70]), mode="bogus")


def test_counts_and_subset():
    r = _record()
    assert np.all(r.k_a == np.rint(r.p_a * 70))
    sub = r.subset([3, 1])
    assert sub.n_shots == 2
    assert sub.p_a[0] == r.p_a[3] and sub.p_a[1] == r.p_a[1]
    assert sub.t_dark == r.t_dark


def test_csv_round_trip_bit_exact(tmp_path):
    r = _record(50)
    path = tmp_path / "rec.csv"
    r.to_csv(path)
    back = MeasurementRecord.from_csv(path)
    assert np.array_equal(back.p_a, r.p_a)  # repr round-trips floats exactly
    assert np.array_equal(back.p_b, r.p_b)
    assert np.array_equal(back.n_a, r.n_a)
    assert back.t_dark == r.t_dark
    (tmp_path / "empty.csv").write_text(
        "shot_index,p_a,p_b,n_a,n_b,theta_mode,t_dark_s\n")
    with pytest.raises(ValueError):
        MeasurementRecord.from_csv(tmp_path / "empty.csv")


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(contrast=1.2)
    with pytest.raises(ValueError):
        NoiseSpec(contrast=0.9, y_a=0.2)  # bound is (1 - C)/2 = 0.05
    with pytest.raises(ValueError):
        NoiseSpec(laser_phase_mode="pink")
    with pytest.raises(ValueError):
        NoiseSpec(sigma_theta=-0.1)
    p_a, p_b = NoiseSpec(contrast=0.8, differential_phase=np.pi / 2).fringe(0.0)
    assert p_a == pytest.approx(0.9)
    assert p_b == pytest.approx(0.5)


def test_sampling_is_seed_deterministic():
    noise = NoiseSpec(contrast=0.9, laser_phase_mode="random_uniform")
    a = sample_css(70, noise, 100, seed=7)
    b = sample_css(70, noise, 100, seed=7)
    assert np.array_equal(a.p_a, b.p_a) and np.array_equal(a.p_b, b.p_b)
    c = sample_css(70, noise, 100, seed=8)
    assert not np.array_equal(a.p_a, c.p_a)
    assert a.mode == "ellipse" and a.interleaved_label == "css"


def test_css_and_sss_share_the_phase_sequence():
    noise = NoiseSpec(contrast=1.0, laser_phase_mode="random_uniform")
    model = EllipseModel(phi=0.0, contrast=1.0, y0=0.5, zeta0=1.0, zeta1=1.0,
                         n_atoms=10000)
    css = sample_css(10000, noise, 150, seed=3)
    sss = sample_sss(10000, noise, model, 150, seed=3)
    # same theta draw per shot, so the large-N fractions track each other
    assert np.corrcoef(css.p_a, sss.p_a)[0, 1] > 0.999
    assert np.max(np.abs(css.p_a - sss.p_a)) < 0.05
    with pytest.raises(ValueError):
        sample_sss(70, noise, model, 10, seed=0)


def test_css_mean_matches_fringe():
    noise = NoiseSpec(contrast=0.8, theta0=np.pi / 3)
    rec = sample_css(70, noise, 100_000, seed=11)
    target = 0.5 + 0.4 * np.cos(np.pi / 3)
    sigma = np.sqrt(target * (1 - target) / (70 * 100_000))
    assert abs(rec.p_a.mean() - target) < 5 * sigma


def test_white_phase_noise_propagates_to_fractions():
    noise = NoiseSpec(contrast=0.5, laser_phase_mode="white", sigma_theta=0.05)
    rec = sample_css(20000, noise, 4000, seed=5)
    # at theta0 = pi/2 the fringe slope is -C/2, so std(p) ~ C/2 * sigma
    assert rec.p_a.std() == pytest.approx(0.25 * 0.05, rel=0.1)


def test_unity_zeta_reproduces_binomial_statistics():
    noise = NoiseSpec(contrast=0.0)
    model = EllipseModel(phi=0.0, contrast=0.0, y0=0.5, zeta0=1.0, zeta1=1.0,
                         n_atoms=70)
    sss = sample_sss(70, noise, model, 20000, seed=2)
    k = np.rint(sss.p_a * 70)
    assert k.mean() == pytest.approx(35.0, abs=5 * np.sqrt(70 * 0.25 / 20000) * 70)
    var = k.var(ddof=1)
    # sample variance of binomial(70, 1/2): se ~ var * sqrt(2/(M-1))
    assert abs(var - 17.5) < 5 * 17.5 * np.sqrt(2.0 / 19999)


def test_squeezed_counts_are_subbinomial():
    noise = NoiseSpec(contrast=0.0)
    model = EllipseModel(phi=0.0, contrast=0.0, y0=0.5, zeta0=0.6, zeta1=0.6,
                         n_atoms=70)
    sss = sample_sss(70, noise, model, 5000, seed=9)
    k = np.rint(sss.p_a * 70)
    expected = tempered_binomial_variance(70, 0.5, 1.0 / 0.36)
    assert expected < 17.5
    assert k.var(ddof=1) == pytest.approx(expected, rel=0.1)


def test_tempered_variance_limits():
    assert tempered_binomial_variance(70, 0.5, 1.0) == pytest.approx(17.5)
    assert tempered_binomial_variance(70, 0.3, 1.0) == pytest.approx(70 * 0.3 * 0.7)
    v = [tempered_binomial_variance(70, 0.5, 1.0 / z ** 2)
         for z in (0.5, 1.0, 2.0)]
    assert v[0] < v[1] < v[2]


def test_zeta_for_variance_gain_round_trip():
    z = zeta_for_variance_gain(70, 2.3)
    assert z == pytest.approx(0.765, abs=0.005)
    achieved = tempered_binomial_variance(70, 0.5, 1.0 / z ** 2)
    assert -10 * np.log10(achieved / 17.5) == pytest.approx(2.3, abs=1e-3)
    with pytest.raises(ValueError):
        zeta_for_variance_gain(70, 100.0)


def test_stability_run_validation():
    noise = NoiseSpec(contrast=0.95)
    with pytest.raises(ValueError):
        sample_stability_run(70, noise, 10, t_dark=0.0, seed=0)
    with pytest.raises(ValueError):
        sample_stability_run(70, noise, 10, t_dark=0.1, seed=0, servo="pid")


def test_noiseless_locked_run_is_constant():
    noise = NoiseSpec(contrast=0.95)
    rec = sample_stability_run(70, noise, 64, t_dark=0.101, seed=0,
                               shot_noise=False)
    assert np.allclose(rec.p_a, 0.5) and np.allclose(rec.p_b, 0.5)
    assert rec.mode == "stability" and rec.t_dark == 0.101


def test_servo_pulls_in_a_frequency_offset():
    noise = NoiseSpec(contrast=0.95)
    rec = sample_stability_run(70, noise, 400, t_dark=0.101, seed=0,
                               freq_offset_hz=0.05, shot_noise=False)
    # integrator converges: late shots sit back at the operating point
    assert abs(rec.p_a[-1] - 0.5) < 1e-4
    off = sample_stability_run(70, noise, 400, t_dark=0.101, seed=0,
                               freq_offset_hz=0.05, shot_noise=False,
                               servo="off")
    assert abs(off.p_a[-1] - 0.5) > 1e-2


def test_differential_frequency_appears_only_in_b():
    noise = NoiseSpec(contrast=0.95)
    f_d = 0.2
    rec = sample_stability_run(70, noise, 50, t_dark=0.101, seed=0,
                               diff_freq_hz=f_d, shot_noise=False, servo="off")
    dz = rec.p_a - rec.p_b
    expected = 0.5 * 0.95 * np.sin(2 * np.pi * f_d * 0.101)
    assert np.allclose(rec.p_a, 0.5, atol=1e-12)
    assert np.allclose(dz, expected, atol=1e-9)


def test_squeezed_stability_run_has_lower_differential_variance():
    noise = NoiseSpec(contrast=0.0)
    css = sample_stability_run(70, noise, 3000, t_dark=0.101, seed=4,
                               servo="off")
    sss = sample_stability_run(70, noise, 3000, t_dark=0.101, seed=4,
                               servo="off", zeta=0.6)
    assert (sss.p_a - sss.p_b).var() < 0.75 * (css.p_a - css.p_b).var()
    assert sss.interleaved_label == "sss"


def test_vectorized_tempered_draws_match_per_shot_inverse_cdf():
    rng = np.random.default_rng(6)
    p = np.concatenate([rng.random(300), [0.0, 1.0, 0.0, 1.0]])
    inv = rng.uniform(0.1, 5.0, p.size)
    u = rng.random(p.size)
    want = []
    for p_i, inv_i, u_i in zip(p, inv, u):
        cdf = np.cumsum(np.exp(tempered_log_pmf(70, p_i, inv_i)))
        want.append(np.searchsorted(cdf, u_i * cdf[-1]))
    got = _sample_tempered(70, p, inv, u)
    assert np.array_equal(got, want)
    assert list(got[-4:]) == [0, 70, 0, 70]
