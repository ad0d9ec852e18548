"""Empirical tempered-binomial noise model and the MLE ellipse-fitting pipeline.

The per-shot outcome model for two ensembles at atom-laser phase theta is a
product of binomial mass functions, each raised to a power 1/zeta^2 and
renormalized; the observable marginal averages theta over [0, 2 pi).  The
pipeline splits data into calibration and measurement halves, bootstraps the
calibration, and converts the phase estimate into per-shot jackknife
pseudo-values for Allan-deviation analysis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from .records import MeasurementRecord

_PARAM_NAMES = ("phi", "contrast", "y0", "zeta0", "zeta1")
_LOG_TINY = -745.0  # exp underflows below this


@dataclass(frozen=True)
class EllipseModel:
    """Parameters of the empirical probability mass function."""

    phi: float
    contrast: float
    y0: float
    zeta0: float = 1.0
    zeta1: float = 1.0
    n_atoms: int = 70

    def __post_init__(self):
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError("contrast must lie in [0, 1]")
        lo, hi = self.contrast / 2.0, 1.0 - self.contrast / 2.0
        if not lo - 1e-12 <= self.y0 <= hi + 1e-12:
            raise ValueError("y0 must keep P_A, P_B inside [0, 1]")
        if self.zeta0 <= 0 or self.zeta1 <= 0:
            raise ValueError("zeta components must be positive")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be positive")

    def zeta_sq(self, theta):
        return (self.zeta0 ** 2 * np.sin(theta) ** 2
                + self.zeta1 ** 2 * np.cos(theta) ** 2)

    def replace(self, **kwargs):
        vals = {name: getattr(self, name) for name in _PARAM_NAMES}
        vals["n_atoms"] = self.n_atoms
        vals.update(kwargs)
        return EllipseModel(**vals)


@dataclass
class LikelihoodResult:
    phi_hat: float
    model: EllipseModel
    log_likelihood: float
    flags: list = field(default_factory=list)
    bootstrap_spread: dict = None


@dataclass
class JackknifeSeries:
    """Single-shot pseudo-values phi_JK_i built from leave-one-out refits."""

    phi_jk: np.ndarray
    phi_full: float

    @property
    def mean(self):
        return float(np.mean(self.phi_jk))


@lru_cache(maxsize=32)
def _log_binom_coeff(n):
    k = np.arange(n + 1)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _logsumexp_rows(x):
    """Row-wise ``scipy.special.logsumexp(x, axis=1, keepdims=True)``, bit for bit.

    The same operations in the same order (the row maximum, its tie count
    m, the exp-sum of the other entries over m, then log1p(s) + log(m) +
    max) without scipy's fixed per-call overhead, which dominated one-row
    calls.  Non-finite results fall back to log(sum(exp(x))), as scipy does.
    """
    x_max = np.max(x, axis=1, keepdims=True)
    is_max = x == x_max
    m = np.sum(is_max, axis=1, keepdims=True, dtype=x.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, x) - x_max), axis=1,
                   keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + x_max
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.sum(np.exp(x), axis=1, keepdims=True)),
                           out)
    return out


def _tempered_rows(n, p, inv_zeta_sq):
    """(len(p), n+1) normalized log mass functions of tempered binomials.

    Row i is the binomial(n, p[i]) log pmf raised to the power
    ``inv_zeta_sq[i]`` and renormalized.  At the boundary (p = 0 or 1) the
    binomial is a point mass and any power leaves it unchanged.
    """
    p = np.asarray(p, dtype=float)
    inv_zeta_sq = np.asarray(inv_zeta_sq, dtype=float)
    edge = (p <= 0.0) | (p >= 1.0)
    pc = np.where(edge, 0.5, p)  # edge rows are overwritten below
    k = np.arange(n + 1)
    x = inv_zeta_sq[:, None] * (_log_binom_coeff(n)[None, :]
                                + k[None, :] * np.log(pc)[:, None]
                                + (n - k)[None, :] * np.log1p(-pc)[:, None])
    out = x - _logsumexp_rows(x)
    if edge.any():
        out[edge] = 2.0 * _LOG_TINY
        out[edge, np.where(p[edge] <= 0.0, 0, n)] = 0.0
    return out


def tempered_log_pmf(n, p, inv_zeta_sq):
    """Normalized log mass function of a binomial tempered by ``inv_zeta_sq``."""
    return _tempered_rows(n, [p], [inv_zeta_sq])[0]


def _model_rows(m: EllipseModel, angles):
    """Tempered log pmfs of one ensemble, one row per ensemble angle."""
    return _tempered_rows(m.n_atoms, m.contrast / 2.0 * np.cos(angles) + m.y0,
                          1.0 / m.zeta_sq(angles))


def pmf_theta(m: EllipseModel, theta):
    """Joint mass function over (k_A, k_B) at fixed atom-laser phase theta."""
    f_a, f_b = np.exp(_model_rows(m, np.array([theta, theta + m.phi])))
    return f_a[:, None] * f_b[None, :]


def pmf_marginal(m: EllipseModel, n_theta=720, check=False):
    """Theta-averaged mass function via uniform periodic quadrature."""
    out = _marginal(m, n_theta)
    if check:
        finer = _marginal(m, 2 * n_theta)
        if np.max(np.abs(finer - out)) > 1e-10:
            raise RuntimeError("quadrature not converged: doubling the node "
                              "count changes the marginal pmf by more than 1e-10")
    return out


def _marginal(m, n_theta):
    """L[k_A, k_B] = (1/T) sum_theta f_A(theta, k_A) f_B(theta + phi, k_B)."""
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    fa = np.exp(_model_rows(m, angles))
    fb = np.exp(_model_rows(m, angles + m.phi))
    return np.einsum("ti,tj->ij", fa, fb) / n_theta


def _log_marginal(m, n_theta):
    """log L[k_A, k_B]; -inf where the marginal underflows."""
    with np.errstate(divide="ignore"):
        return np.log(_marginal(m, n_theta))


def _pair_counts(record: MeasurementRecord, n_atoms):
    """(N+1) x (N+1) histogram of (k_A, k_B): the likelihoods' sufficient statistic."""
    if not (np.all(record.n_a == n_atoms) and np.all(record.n_b == n_atoms)):
        raise ValueError(f"record atom number does not match the model: every "
                         f"shot must have {n_atoms} atoms in both ensembles")
    size = n_atoms + 1
    return np.bincount(record.k_a * size + record.k_b,
                       minlength=size * size).reshape(size, size)


def _cell_sum(counts, table):
    """sum of counts * table over the occupied cells (0 * -inf would be nan)."""
    occupied = counts > 0
    return float(counts[occupied] @ table[occupied])


def log_likelihood(record: MeasurementRecord, model: EllipseModel, n_theta=360):
    """Total log likelihood of a record under the tempered-binomial model."""
    return _cell_sum(_pair_counts(record, model.n_atoms),
                     _log_marginal(model, n_theta))


_BOUNDS = {
    "phi": (0.0, np.pi),
    "contrast": (0.0, 1.0),
    "y0": (0.0, 1.0),
    "zeta0": (1e-3, 50.0),
    "zeta1": (1e-3, 50.0),
}


def fit_mle(data: MeasurementRecord, init: EllipseModel,
            free=_PARAM_NAMES, n_theta=360, n_starts=5, seed=0) -> LikelihoodResult:
    """Maximize the likelihood over the free parameters by multi-start simplex."""
    free = tuple(free)
    for name in free:
        if name not in _PARAM_NAMES:
            raise ValueError(f"unknown parameter: {name}")
    flags = []
    if data.n_shots < 2:
        flags.append("degenerate: too few shots for a meaningful fit")
    counts = _pair_counts(data, init.n_atoms)

    def objective(x):
        params = dict(zip(free, x))
        for name in free:
            b = _BOUNDS[name]
            if not b[0] <= params[name] <= b[1]:
                return 1e12
        try:
            model = init.replace(**params)
        except ValueError:
            return 1e12
        total = _cell_sum(counts, _log_marginal(model, n_theta))
        return -total if np.isfinite(total) else 1e12

    x0 = np.array([getattr(init, name) for name in free])
    rng = np.random.default_rng(seed)
    best = None
    for s in range(n_starts):
        start = x0 if s == 0 else x0 * (1.0 + 0.05 * rng.standard_normal(len(free)))
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-9, "maxiter": 4000})
        if best is None or res.fun < best.fun:
            best = res
    params = dict(zip(free, best.x))
    if "phi" in params:
        params["phi"] = float(np.clip(params["phi"], 0.0, np.pi))
    c = params.get("contrast", init.contrast)
    if "y0" in params or "contrast" in params:
        params["y0"] = float(np.clip(params.get("y0", init.y0),
                                     c / 2.0, 1.0 - c / 2.0))
    model = init.replace(**params)
    if not best.success:
        flags.append(f"not converged: {best.message}")
    for name in free:
        b = _BOUNDS[name]
        if abs(params[name] - b[0]) < 1e-6 or abs(params[name] - b[1]) < 1e-6:
            flags.append(f"boundary-pinned: {name}")
    return LikelihoodResult(phi_hat=float(model.phi), model=model,
                            log_likelihood=-float(best.fun), flags=flags)


def estimate_phi(record: MeasurementRecord, secondary: EllipseModel,
                 n_theta=360, coarse=61, return_jackknife=False):
    """argmax over phi in [0, pi] with the secondary parameters held fixed.

    Every step works on the record's (k_A, k_B) counts and the log of the
    theta-marginal table at trial phases.  The maximum is located on a
    coarse grid, polished with a bounded scalar search, then Newton-polished
    on the central-difference score.  With ``return_jackknife`` the per-shot
    score is the score table read at the shot's cell, and the leave-one-out
    estimates are one-step Newton updates with the pooled curvature; that
    construction makes the pseudo-value mean coincide with the full-sample
    estimate up to the optimizer tolerance, and agrees with full refits to
    O(1/n).
    """
    from scipy.optimize import minimize_scalar

    counts = _pair_counts(record, secondary.n_atoms)

    def log_table(phi):
        return _log_marginal(secondary.replace(phi=phi), n_theta)

    def total(phi):
        return _cell_sum(counts, log_table(phi))

    phis_c = np.linspace(0.0, np.pi, coarse)
    prof_c = np.array([total(phi) for phi in phis_c])
    kc = int(np.argmax(prof_c))
    dphi = phis_c[1] - phis_c[0]
    lo = max(0.0, phis_c[kc] - dphi)
    hi = min(np.pi, phis_c[kc] + dphi)

    res = minimize_scalar(lambda phi: -total(phi), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10})
    phi_full = float(res.x)

    # Newton-polish the argmax on the finite-difference score so that the
    # per-shot scores used below sum to zero to high precision.
    h = 1e-5
    score = curvature = None
    for _ in range(12):
        lm, l0, lp = (log_table(phi_full + d) for d in (-h, 0.0, h))
        with np.errstate(invalid="ignore"):  # -inf - -inf only in empty cells
            score = (lp - lm) / (2.0 * h)
        curvature = (_cell_sum(counts, lp) - 2.0 * _cell_sum(counts, l0)
                     + _cell_sum(counts, lm)) / h ** 2
        if curvature >= 0:
            raise RuntimeError("phase likelihood not locally concave at the optimum")
        step = -_cell_sum(counts, score) / curvature
        if abs(step) < 1e-12:
            break
        phi_full = float(np.clip(phi_full + step, 0.0, np.pi))
    if not return_jackknife:
        return phi_full

    m = record.n_shots
    phi_loo = phi_full + score[record.k_a, record.k_b] / curvature  # one-step Newton
    pseudo = m * phi_full - (m - 1.0) * phi_loo
    return phi_full, JackknifeSeries(phi_jk=pseudo, phi_full=phi_full)


@dataclass
class PipelineResult:
    phi_hat: float
    stat_err: float
    calib_err: float
    jackknife: JackknifeSeries
    adev: object
    calibration: EllipseModel
    bootstrap_phis: np.ndarray


def calibrated_pipeline(data_cal: MeasurementRecord, data_meas: MeasurementRecord,
                        init: EllipseModel, n_bootstrap=50, seed=0,
                        n_theta=360, free=_PARAM_NAMES) -> PipelineResult:
    """Calibration-split phase estimation with bootstrap and jackknife errors.

    Fits all model parameters on the calibration half (discarding its phase),
    extracts phi from the measurement half, converts it to per-shot jackknife
    pseudo-values (whose count-axis overlapping Allan deviation is returned),
    and quantifies calibration uncertainty by refitting on 50 bootstrap
    resamples.  Bootstrap index sets depend only on ``seed`` and the record
    length, so interleaved CSS/SSS runs share them.
    """
    from .stability import overlapping_adev

    if data_cal.n_shots == 0 or data_meas.n_shots == 0:
        raise ValueError("calibration and measurement records must be nonempty")
    _pair_counts(data_meas, init.n_atoms)  # reject a mismatch before the fit

    cal_fit = fit_mle(data_cal, init, free=free, n_theta=n_theta)
    secondary = cal_fit.model

    phi_full, jk = estimate_phi(data_meas, secondary, n_theta=n_theta,
                                return_jackknife=True)
    stat_err = float(np.std(jk.phi_jk, ddof=1) / np.sqrt(data_meas.n_shots))
    adev = overlapping_adev(jk.phi_jk, axis="count")

    rng = np.random.default_rng(seed)
    n_cal = data_cal.n_shots
    boot_phis = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        idx = rng.integers(0, n_cal, size=n_cal)
        boot = fit_mle(data_cal.subset(idx), secondary, free=free,
                       n_theta=n_theta, n_starts=1)
        boot_phis[b] = estimate_phi(data_meas, boot.model, n_theta=n_theta)
    calib_err = float(np.std(boot_phis, ddof=1))

    return PipelineResult(
        phi_hat=phi_full,
        stat_err=stat_err,
        calib_err=calib_err,
        jackknife=jk,
        adev=adev,
        calibration=secondary,
        bootstrap_phis=boot_phis,
    )


def fisher_information_css(m: EllipseModel, phi0, step=1e-4, n_theta=720,
                           richardson_tol=1e-3):
    """Classical Fisher information for phi of the CSS-reduced marginal model.

    Exact double sum over the (N+1)^2 outcome grid with the phi-derivative of
    log f taken by central finite differences (Richardson-checked).
    """
    if not (m.zeta0 == 1.0 and m.zeta1 == 1.0):
        raise ValueError("CSS Fisher information requires zeta = (1, 1)")

    def info(h):
        f0 = _marginal(m.replace(phi=phi0), n_theta)
        fp = _marginal(m.replace(phi=phi0 + h), n_theta)
        fm = _marginal(m.replace(phi=phi0 - h), n_theta)
        mask = (f0 > 1e-300) & (fp > 0) & (fm > 0)
        dlog = (np.log(fp[mask]) - np.log(fm[mask])) / (2.0 * h)
        return float(np.sum(dlog ** 2 * f0[mask]))

    i_h = info(step)
    i_h2 = info(step / 2.0)
    if abs(i_h - i_h2) > richardson_tol * (abs(i_h2) + 1e-9):
        warnings.warn("Fisher-information finite difference not converged "
                      f"(step {step:g}): {i_h:.6g} vs {i_h2:.6g}", stacklevel=2)
    return (4.0 * i_h2 - i_h) / 3.0
