import warnings

import numpy as np
import pytest
from scipy.stats import binom

from oracles import plain_binomial_loglik
from rydclock.ellipse import (EllipseModel, calibrated_pipeline, estimate_phi,
                              fisher_information_css, fit_mle, log_likelihood,
                              pmf_marginal, pmf_theta, tempered_log_pmf)
from rydclock.records import MeasurementRecord
from rydclock.sampler import NoiseSpec, sample_css

MODEL = EllipseModel(phi=np.radians(60.0), contrast=0.9, y0=0.5,
                     zeta0=1.0, zeta1=1.0, n_atoms=70)


def test_model_validation():
    with pytest.raises(ValueError):
        EllipseModel(phi=0.1, contrast=1.2, y0=0.5)
    with pytest.raises(ValueError):
        EllipseModel(phi=0.1, contrast=0.9, y0=0.1)  # fringe leaves [0, 1]
    with pytest.raises(ValueError):
        EllipseModel(phi=0.1, contrast=0.5, y0=0.5, zeta0=0.0)
    with pytest.raises(ValueError):
        EllipseModel(phi=0.1, contrast=0.5, y0=0.5, n_atoms=0)
    m = MODEL.replace(zeta0=0.7, zeta1=1.3)
    assert m.zeta_sq(0.0) == pytest.approx(1.3 ** 2)
    assert m.zeta_sq(np.pi / 2) == pytest.approx(0.7 ** 2)


def test_tempered_pmf_normalization_and_binomial_limit():
    for p, inv in [(0.3, 1.0), (0.7, 2.5), (0.5, 0.3)]:
        f = np.exp(tempered_log_pmf(70, p, inv))
        assert f.sum() == pytest.approx(1.0, abs=1e-12)
    f = np.exp(tempered_log_pmf(70, 0.3, 1.0))
    assert np.allclose(f, binom.pmf(np.arange(71), 70, 0.3), atol=1e-14)


def test_tempered_pmf_boundary_point_mass():
    for inv in (0.5, 1.0, 3.0):
        f0 = np.exp(tempered_log_pmf(70, 0.0, inv))
        f1 = np.exp(tempered_log_pmf(70, 1.0, inv))
        assert f0[0] == pytest.approx(1.0) and f0[1:].sum() < 1e-300
        assert f1[70] == pytest.approx(1.0) and f1[:70].sum() < 1e-300


def test_joint_and_marginal_pmfs_normalized():
    m = MODEL.replace(zeta0=0.8, zeta1=1.2)
    assert pmf_theta(m, 0.7).sum() == pytest.approx(1.0, abs=1e-12)
    marg = pmf_marginal(m, check=True)
    assert marg.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(marg >= 0)


def test_marginal_quadrature_check_raises_when_too_coarse():
    with pytest.raises(RuntimeError):
        pmf_marginal(MODEL, n_theta=8, check=True)


def test_marginal_symmetries():
    marg = pmf_marginal(MODEL, n_theta=360)
    # swapping the ensembles mirrors the phase; the theta average restores it
    refl = pmf_marginal(MODEL.replace(phi=2.0 * np.pi - MODEL.phi), n_theta=360)
    assert np.allclose(marg, refl.T, atol=1e-14)
    assert np.allclose(marg, marg.T, atol=1e-14)


def _css_record(phi_deg, n_shots, seed=0, contrast=0.9, n_atoms=70):
    noise = NoiseSpec(contrast=contrast, differential_phase=np.radians(phi_deg),
                      laser_phase_mode="random_uniform")
    return sample_css(n_atoms, noise, n_shots, seed)


def test_log_likelihood_matches_plain_binomial_oracle():
    rec = _css_record(60.0, 40)
    got = log_likelihood(rec, MODEL, n_theta=240)
    want = plain_binomial_loglik(rec.k_a, rec.k_b, 70, MODEL.phi, 0.9, 0.5, 240)
    assert got == pytest.approx(want, abs=1e-10)


def test_log_likelihood_swap_invariance_and_validation():
    rec = _css_record(60.0, 30, seed=3)
    swapped = MeasurementRecord(p_a=rec.p_b, p_b=rec.p_a, n_a=rec.n_a,
                                n_b=rec.n_b, mode=rec.mode)
    assert log_likelihood(swapped, MODEL) == pytest.approx(
        log_likelihood(rec, MODEL), abs=1e-9)
    with pytest.raises(ValueError):
        log_likelihood(rec, MODEL.replace(n_atoms=50))


def test_log_likelihood_underflow_matches_oracle():
    # at phi = 0 both ensembles see one p, and (1 - p)^N p^N <= 4^-N underflows
    n = 600
    model = EllipseModel(phi=0.0, contrast=0.5, y0=0.5, n_atoms=n)
    rec = MeasurementRecord(p_a=np.array([0.0, 0.5]), p_b=np.array([1.0, 0.5]),
                            n_a=np.full(2, n), n_b=np.full(2, n), mode="ellipse")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_likelihood(rec, model, n_theta=60)
    with np.errstate(divide="ignore"):
        want = plain_binomial_loglik(rec.k_a, rec.k_b, n, 0.0, 0.5, 0.5, 60)
    assert got == want == -np.inf


def test_atom_number_mismatch_is_rejected():
    small = _css_record(60.0, 40, n_atoms=20)
    cases = ((small, MODEL), (_css_record(60.0, 40), MODEL.replace(n_atoms=20)))
    for rec, model in cases:
        with pytest.raises(ValueError, match="atom number"):
            fit_mle(rec, model, free=("phi",), n_theta=36)
        with pytest.raises(ValueError, match="atom number"):
            estimate_phi(rec, model, n_theta=36)
    mixed = MeasurementRecord(p_a=small.p_a, p_b=small.p_b, n_a=small.n_a,
                              n_b=np.where(np.arange(40) % 2, 20, 21))
    with pytest.raises(ValueError, match="atom number"):
        log_likelihood(mixed, MODEL.replace(n_atoms=20))


def test_fit_mle_recovers_known_parameters():
    rec = _css_record(60.0, 1200, seed=5)
    init = EllipseModel(phi=np.radians(45.0), contrast=0.8, y0=0.5, n_atoms=70)
    fit = fit_mle(rec, init, free=("phi", "contrast", "y0"), n_theta=180)
    assert np.degrees(fit.phi_hat) == pytest.approx(60.0, abs=3.0)
    assert fit.model.contrast == pytest.approx(0.9, abs=0.03)
    assert fit.model.y0 == pytest.approx(0.5, abs=0.01)
    assert fit.log_likelihood > log_likelihood(rec, init, n_theta=180)


def test_fit_mle_flags_degenerate_record():
    rec = _css_record(60.0, 1)
    init = MODEL
    fit = fit_mle(rec, init, free=("phi",), n_theta=90)
    assert any("degenerate" in f for f in fit.flags)


def _starve_optimizer(monkeypatch):
    """Let every fit_mle optimizer run stop after 3 iterations."""
    from rydclock import ellipse

    real_minimize = ellipse.minimize

    def starved(fun, x0, method=None, jac=None, bounds=None, constraints=(),
                options=None):
        return real_minimize(fun, x0, method=method, jac=jac, bounds=bounds,
                             constraints=constraints,
                             options={**options, "maxiter": 3})

    monkeypatch.setattr(ellipse, "minimize", starved)


def _projected_gradient(rec, model, free, n_theta):
    """Log-likelihood gradient over ``free``, projected onto the parameter box."""
    from rydclock.ellipse import _BOUNDS, _marginal_gradient, _pair_counts

    counts = _pair_counts(rec, model.n_atoms)
    occupied = counts > 0
    table, grads = _marginal_gradient(model, n_theta)
    weight = counts[occupied] / table[occupied]
    x = np.array([getattr(model, name) for name in free])
    g = np.array([weight @ grads[name][occupied] for name in free])
    lo, hi = np.array([_BOUNDS[name] for name in free]).T
    return np.clip(x + g, lo, hi) - x


def test_fit_mle_flags_non_converged_optimizer(monkeypatch):
    _starve_optimizer(monkeypatch)
    rec = _css_record(60.0, 200, seed=5)
    fit = fit_mle(rec, MODEL.replace(phi=np.radians(45.0)),
                  free=("phi", "contrast"), n_theta=36)
    flags = [f for f in fit.flags if f.startswith("not converged: ")]
    assert len(flags) == 1 and "Iteration limit reached" in flags[0]
    monkeypatch.undo()
    for free in (("phi", "contrast"), ("phi", "contrast", "y0", "zeta0", "zeta1")):
        fit = fit_mle(rec, MODEL.replace(phi=np.radians(45.0)), free=free,
                      n_theta=36)
        assert not any(f.startswith("not converged") for f in fit.flags)
        # stationary: the fringe constraint is slack, so only the box projects
        m = fit.model
        assert min(m.y0 - m.contrast / 2.0, 1.0 - m.y0 - m.contrast / 2.0) > 1e-3
        assert np.max(np.abs(_projected_gradient(rec, m, free, 36))) < 1e-5


def test_marginal_derivatives_match_central_differences():
    from rydclock.ellipse import (_PARAM_NAMES, _marginal_gradient, _model_rows,
                                  _nodes, _phi_tables)

    m = MODEL.replace(phi=0.7, contrast=0.8, y0=0.47, zeta0=0.7, zeta1=1.3)
    table, grads = _marginal_gradient(m, 60)
    assert np.array_equal(table, pmf_marginal(m, n_theta=60))
    h = 1e-5
    for name in _PARAM_NAMES:
        x = getattr(m, name)
        fd = (pmf_marginal(m.replace(**{name: x + h}), n_theta=60)
              - pmf_marginal(m.replace(**{name: x - h}), n_theta=60)) / (2.0 * h)
        assert np.max(np.abs(fd - grads[name])) < 1e-6 * np.max(np.abs(grads[name]))
    angles = _nodes(60)
    t, d1, d2 = _phi_tables(np.exp(_model_rows(m, angles)), m, angles)
    assert np.array_equal(t, table) and np.array_equal(d1, grads["phi"])
    h = 1e-4
    fd2 = (pmf_marginal(m.replace(phi=m.phi + h), n_theta=60) - 2.0 * table
           + pmf_marginal(m.replace(phi=m.phi - h), n_theta=60)) / h ** 2
    assert np.max(np.abs(fd2 - d2)) < 1e-6 * np.max(np.abs(d2))


def test_logsumexp_rows_bit_identical_to_scipy():
    from scipy.special import logsumexp

    from rydclock.ellipse import _LOG_TINY, _log_binom_coeff, _logsumexp_rows

    rng = np.random.default_rng(3)
    rows = [rng.standard_normal((200, 71)) * scale for scale in (1e-3, 1.0, 40.0)]
    tied = np.round(rng.standard_normal((50, 71)))  # many tied maxima
    tied[:10] = 7.0  # every entry is the maximum
    rows.append(tied)
    # the tempered-binomial exponents _tempered_rows builds, boundary p included
    n = 70
    k = np.arange(n + 1)
    p = np.concatenate([[0.0, 1.0, 1e-300, 1e-12, 1.0 - 1e-16],
                        rng.uniform(0.0, 1.0, 200)])
    inv = rng.uniform(0.05, 20.0, p.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = inv[:, None] * (_log_binom_coeff(n)[None, :] + k * np.log(p)[:, None]
                            + (n - k) * np.log1p(-p)[:, None])
    rows.append(x)
    rows.append(np.where(rng.uniform(size=(20, 71)) < 0.5, 2.0 * _LOG_TINY, 0.0))
    rows.append(np.full((3, 71), -np.inf))
    for x in rows:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = logsumexp(x, axis=1, keepdims=True)
        got = _logsumexp_rows(x)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_estimate_phi_recovery_and_jackknife_identity():
    rec = _css_record(60.0, 600, seed=8)
    phi_full, jk = estimate_phi(rec, MODEL.replace(phi=0.0), n_theta=180,
                                return_jackknife=True)
    assert np.degrees(phi_full) == pytest.approx(60.0, abs=3.0)
    assert jk.mean == pytest.approx(phi_full, abs=1e-9)
    assert jk.phi_jk.size == 600


def test_phi_zero_estimate_is_biased_positive():
    rec = _css_record(0.0, 400, seed=2)
    phi = estimate_phi(rec, MODEL.replace(phi=0.0), n_theta=180)
    assert 0.0 <= phi < np.radians(15.0)


def test_calibrated_pipeline_outputs():
    cal = _css_record(60.0, 250, seed=10, n_atoms=20)
    meas = _css_record(60.0, 250, seed=11, n_atoms=20)
    init = EllipseModel(phi=np.radians(50.0), contrast=0.85, y0=0.5, n_atoms=20)
    res = calibrated_pipeline(cal, meas, init, n_bootstrap=5, n_theta=120,
                              free=("phi", "contrast", "y0"))
    assert np.degrees(res.phi_hat) == pytest.approx(60.0, abs=6.0)
    assert res.stat_err > 0 and res.calib_err >= 0
    assert res.jackknife.mean == pytest.approx(res.phi_hat, abs=1e-9)
    assert res.adev.axis == "count"
    assert res.bootstrap_phis.size == 5
    assert "not converged" not in res.bootstrap_flags
    empty = MeasurementRecord(p_a=np.empty(0), p_b=np.empty(0),
                              n_a=np.empty(0, int), n_b=np.empty(0, int))
    with pytest.raises(ValueError):
        calibrated_pipeline(empty, meas, init)


def test_calibrated_pipeline_counts_non_converged_replicates(monkeypatch):
    _starve_optimizer(monkeypatch)
    cal = _css_record(60.0, 100, seed=10, n_atoms=20)
    meas = _css_record(60.0, 100, seed=11, n_atoms=20)
    init = EllipseModel(phi=np.radians(50.0), contrast=0.85, y0=0.5, n_atoms=20)
    res = calibrated_pipeline(cal, meas, init, n_bootstrap=4, n_theta=36,
                              free=("phi", "contrast", "y0"))
    assert res.bootstrap_flags["not converged"] == 4


def test_calibrated_pipeline_rejects_atom_number_before_fitting(monkeypatch):
    from rydclock import ellipse

    def no_fit(*args, **kwargs):
        raise AssertionError("fit_mle ran before the atom-number check")

    monkeypatch.setattr(ellipse, "fit_mle", no_fit)
    cal = _css_record(60.0, 40, seed=10, n_atoms=20)
    meas = _css_record(60.0, 40, seed=11, n_atoms=30)
    init = EllipseModel(phi=np.radians(50.0), contrast=0.85, y0=0.5, n_atoms=20)
    with pytest.raises(ValueError, match="atom number"):
        calibrated_pipeline(cal, meas, init, n_bootstrap=2, n_theta=36)


def test_fisher_information_properties():
    m = EllipseModel(phi=0.0, contrast=0.95, y0=0.5, n_atoms=70)
    i0 = fisher_information_css(m, 0.0, n_theta=360)
    i30 = fisher_information_css(m, np.radians(30.0), n_theta=360)
    i150 = fisher_information_css(m, np.radians(150.0), n_theta=360)
    assert i0 >= -1e-9
    assert i30 > 10 * max(i0, 1e-12)
    assert i150 == pytest.approx(i30, rel=1e-6)
    with pytest.raises(ValueError):
        fisher_information_css(m.replace(zeta0=0.8), 0.3)
