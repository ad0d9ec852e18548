"""Empirical tempered-binomial noise model and the MLE ellipse-fitting pipeline.

The per-shot outcome model for two ensembles at atom-laser phase theta is a
product of binomial mass functions, each raised to a power 1/zeta^2 and
renormalized; the observable marginal averages theta over [0, 2 pi).  The
pipeline splits data into calibration and measurement halves, bootstraps the
calibration, and converts the phase estimate into per-shot jackknife
pseudo-values for Allan-deviation analysis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import LinearConstraint, minimize
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


def _row_derivatives(m: EllipseModel, angles, second=False):
    """One ensemble's rows f = exp(l) and the exact derivatives of l.

    Row l_k = s b_k(p) - log sum_k exp(s b_k(p)), with b_k the binomial log
    pmf, has dl/ds = b_k - E_f[b] = (l_k - E_f[l]) / s and
    dl/dp = s (b'_k - E_f[b']) = s (k - E_f[k]) / (p (1 - p)), because
    b'_k = k/p - (n-k)/(1-p) is affine in k.  Both are chained through
    p = y0 + (c/2) cos a and s = 1/zeta^2(a) at the ensemble angle a.

    Returns f and a dict of dl/dx for x in contrast, y0, zeta0, zeta1 and
    ``angle`` (a itself); with ``second`` also d2l/da2, which is
    x''_k - E_f[x''] - E_f[(dl/da)^2] for x_k = s b_k.  Rows at p = 0 or 1
    are point masses and carry zero derivatives.
    """
    n, c = m.n_atoms, m.contrast
    cos, sin = np.cos(angles), np.sin(angles)
    p = c / 2.0 * cos + m.y0
    s = 1.0 / m.zeta_sq(angles)
    ell = _tempered_rows(n, p, s)
    f = np.exp(ell)
    k = np.arange(n + 1.0)
    u = ell - np.sum(f * ell, axis=1, keepdims=True)  # s (b_k - E_f[b])
    dk = k - (f @ k)[:, None]  # k - E_f[k]
    edge = (p <= 0.0) | (p >= 1.0)
    u[edge] = dk[edge] = 0.0  # every derivative below is linear in u and dk
    pc = np.where(edge, 0.5, p)
    pq = pc * (1.0 - pc)
    zz = m.zeta0 ** 2 - m.zeta1 ** 2
    s_a = -s * s * zz * np.sin(2.0 * angles)  # ds/da
    p_a = -c / 2.0 * sin

    def col(v):
        return v[:, None]

    d = {"contrast": col(s * cos / (2.0 * pq)) * dk,
         "y0": col(s / pq) * dk,
         "zeta0": col(-2.0 * m.zeta0 * s * sin ** 2) * u,
         "zeta1": col(-2.0 * m.zeta1 * s * cos ** 2) * u,
         "angle": col(s_a / s) * u + col(s * p_a / pq) * dk}
    if not second:
        return f, d, None
    s_aa = 2.0 * s_a * s_a / s - 2.0 * s * s * zz * np.cos(2.0 * angles)
    b2 = 1.0 / (1.0 - pc) ** 2 - 1.0 / pc ** 2  # b''_k - E_f[b''] = b2 (k - E_f[k])
    d2 = (col(s_aa / s) * u
          + col((2.0 * s_a * p_a - s * c / 2.0 * cos) / pq + s * p_a ** 2 * b2) * dk)
    return f, d, d2 - np.sum(f * d["angle"] ** 2, axis=1, keepdims=True)


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


def _nodes(n_theta):
    return 2.0 * np.pi * np.arange(n_theta) / n_theta


def _marginal(m, n_theta):
    """L[k_A, k_B] = (1/T) sum_theta f_A(theta, k_A) f_B(theta + phi, k_B)."""
    angles = _nodes(n_theta)
    fa = np.exp(_model_rows(m, angles))
    fb = np.exp(_model_rows(m, angles + m.phi))
    return fa.T @ fb / n_theta


def _marginal_gradient(m, n_theta):
    """L and its exact derivative tables dL/dx for every x in _PARAM_NAMES.

    dL/dx = (1/T) [(f_A dl_A/dx)^T f_B + f_A^T (f_B dl_B/dx)]; phi moves
    only ensemble B's angle.
    """
    angles = _nodes(n_theta)
    fa, da, _ = _row_derivatives(m, angles)
    fb, db, _ = _row_derivatives(m, angles + m.phi)
    grads = {"phi": fa.T @ (fb * db["angle"])}
    for name in _PARAM_NAMES[1:]:
        grads[name] = (fa * da[name]).T @ fb + fa.T @ (fb * db[name])
    return fa.T @ fb / n_theta, {x: g / n_theta for x, g in grads.items()}


def _phi_tables(fa, m, angles):
    """L, dL/dphi and d2L/dphi2 at m.phi, given ensemble A's rows ``fa``."""
    fb, db, d2b = _row_derivatives(m, angles + m.phi, second=True)
    la = db["angle"]
    n_theta = len(angles)
    return (fa.T @ fb / n_theta, fa.T @ (fb * la) / n_theta,
            fa.T @ (fb * (d2b + la * la)) / n_theta)


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


def _fringe_constraint(free, init):
    """y0 - c/2 >= 0 and 1 - y0 - c/2 >= 0 (P_A, P_B in [0, 1]) on ``free``."""
    coef = {"y0": np.array([1.0, -1.0]), "contrast": np.array([-0.5, -0.5])}
    rows = np.array([coef.get(name, np.zeros(2)) for name in free]).T
    const = np.array([0.0, 1.0]) + sum(coef[name] * getattr(init, name)
                                       for name in coef if name not in free)
    return LinearConstraint(rows, -const, np.inf)


def fit_mle(data: MeasurementRecord, init: EllipseModel,
            free=_PARAM_NAMES, n_theta=360) -> LikelihoodResult:
    """Maximize the likelihood over the free parameters with exact gradients.

    One SLSQP run from ``init`` inside ``_BOUNDS``, with the fringe kept in
    [0, 1] by a linear constraint whenever contrast or y0 is free.
    """
    free = tuple(free)
    for name in free:
        if name not in _PARAM_NAMES:
            raise ValueError(f"unknown parameter: {name}")
    flags = []
    if data.n_shots < 2:
        flags.append("degenerate: too few shots for a meaningful fit")
    counts = _pair_counts(data, init.n_atoms)
    occupied = counts > 0
    n_k = counts[occupied]
    # SLSQP starts from an identity Hessian, so it sees the mean log likelihood
    # per shot; on the plain sum its first step is out of scale
    n = max(data.n_shots, 1)

    def objective(x):
        table, grads = _marginal_gradient(init.replace(**dict(zip(free, x))),
                                          n_theta)
        cell = table[occupied]
        # a trial point where a counted cell underflows is worth +inf; SLSQP's
        # line search then shortens the step
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            weight = n_k / cell
            grad = np.array([weight @ grads[name][occupied] for name in free])
            return -(n_k @ np.log(cell)) / n, -grad / n

    bounds = [_BOUNDS[name] for name in free]
    constraints = (_fringe_constraint(free, init)
                   if {"contrast", "y0"} & set(free) else ())
    res = minimize(objective, [getattr(init, name) for name in free], jac=True,
                   method="SLSQP", bounds=bounds, constraints=constraints,
                   options={"ftol": 1e-14, "maxiter": 200})
    # SLSQP evaluates at x clipped to the bounds but may return x an ulp outside
    x = np.clip(res.x, *np.array(bounds).T)
    params = {name: float(v) for name, v in zip(free, x)}
    model = init.replace(**params)
    if not res.success:
        flags.append(f"not converged: {res.message}")
    for name in free:
        b = _BOUNDS[name]
        if abs(params[name] - b[0]) < 1e-6 or abs(params[name] - b[1]) < 1e-6:
            flags.append(f"boundary-pinned: {name}")
    return LikelihoodResult(phi_hat=float(model.phi), model=model,
                            log_likelihood=-float(res.fun) * n, flags=flags)


def estimate_phi(record: MeasurementRecord, secondary: EllipseModel,
                 n_theta=360, coarse=61, return_jackknife=False):
    """argmax over phi in [0, pi] with the secondary parameters held fixed.

    Every step works on the record's (k_A, k_B) counts and the theta-marginal
    table; ensemble A's rows do not depend on phi and are built once.  The
    maximum is located on a coarse grid, then found by Newton's method on the
    exact score sum counts L'/L and curvature sum counts (L''/L - (L'/L)^2),
    bisecting whenever a step leaves the grid bracket or the curvature is not
    negative.  With ``return_jackknife`` the per-shot score is the score table
    read at the shot's cell, and the leave-one-out estimates are one-step
    Newton updates with the pooled curvature; that construction makes the
    pseudo-value mean coincide with the full-sample estimate up to the Newton
    tolerance, and agrees with full refits to O(1/n).
    """
    counts = _pair_counts(record, secondary.n_atoms)
    occupied = counts > 0
    n_k = counts[occupied]
    angles = _nodes(n_theta)
    fa = np.exp(_model_rows(secondary, angles))

    def total(phi):
        fb = np.exp(_model_rows(secondary, angles + phi))
        with np.errstate(divide="ignore"):
            return n_k @ np.log((fa.T @ fb)[occupied] / n_theta)

    phis = np.linspace(0.0, np.pi, coarse)
    kc = int(np.argmax([total(phi) for phi in phis]))
    lo, hi = phis[max(kc - 1, 0)], phis[min(kc + 1, coarse - 1)]
    phi_full = float(phis[kc])
    for _ in range(100):
        table, d1, d2 = _phi_tables(fa, secondary.replace(phi=phi_full), angles)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = d1 / table  # nan only in empty cells
        cell_score = score[occupied]
        curvature = n_k @ (d2[occupied] / table[occupied] - cell_score ** 2)
        total_score = n_k @ cell_score
        step = -total_score / curvature if curvature < 0 else np.inf
        if abs(step) < 1e-12:
            break
        if total_score > 0:
            lo = phi_full
        else:
            hi = phi_full
        trial = phi_full + step
        phi_full = trial if lo < trial < hi else 0.5 * (lo + hi)
    else:
        raise RuntimeError("phase likelihood has no locally concave maximum "
                           "in the grid bracket")
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
    bootstrap_flags: dict = field(default_factory=dict)


def _flag_kind(flag):
    """``boundary-pinned: <name>`` as is; other flags by the text before ':'."""
    return flag if flag.startswith("boundary-pinned") else flag.split(":")[0]


def calibrated_pipeline(data_cal: MeasurementRecord, data_meas: MeasurementRecord,
                        init: EllipseModel, n_bootstrap=50, seed=0,
                        n_theta=360, free=_PARAM_NAMES) -> PipelineResult:
    """Calibration-split phase estimation with bootstrap and jackknife errors.

    Fits all model parameters on the calibration half (discarding its phase),
    extracts phi from the measurement half, converts it to per-shot jackknife
    pseudo-values (whose count-axis overlapping Allan deviation is returned),
    and quantifies calibration uncertainty by refitting on 50 bootstrap
    resamples.  Bootstrap index sets depend only on ``seed`` and the record
    length, so interleaved CSS/SSS runs share them.  ``bootstrap_flags``
    counts the refits' flags by kind (``not converged``,
    ``boundary-pinned: <name>``).
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
    boot_flags = Counter()
    for b in range(n_bootstrap):
        idx = rng.integers(0, n_cal, size=n_cal)
        boot = fit_mle(data_cal.subset(idx), secondary, free=free, n_theta=n_theta)
        boot_flags.update(_flag_kind(f) for f in boot.flags)
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
        bootstrap_flags=dict(boot_flags),
    )


def fisher_information_css(m: EllipseModel, phi0, n_theta=720):
    """Classical Fisher information for phi of the CSS-reduced marginal model.

    Exact double sum of (dL/dphi)^2 / L over the (N+1)^2 outcome grid, with
    dL/dphi from the exact row derivatives.
    """
    if not (m.zeta0 == 1.0 and m.zeta1 == 1.0):
        raise ValueError("CSS Fisher information requires zeta = (1, 1)")
    angles = _nodes(n_theta)
    table, d1, _ = _phi_tables(np.exp(_model_rows(m, angles)), m.replace(phi=phi0),
                               angles)
    mask = table > 0
    return float(np.sum(d1[mask] ** 2 / table[mask]))
