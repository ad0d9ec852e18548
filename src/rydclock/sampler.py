"""Monte Carlo generation of per-shot measurement records.

Covers the three measurement modes used downstream: fixed-quadrature variance
scans, servo-locked stability runs, and randomized-phase ellipse runs.  CSS
shots are plain binomial draws; SSS shots are drawn from the tempered-binomial
mass function by inverse CDF.  Records generated with the same seed share the
identical atom-laser phase sequence, so interleaved CSS/SSS comparisons probe
the same phases shot by shot.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ellipse import EllipseModel, _tempered_rows, tempered_log_pmf
from .records import MeasurementRecord

PHASE_MODES = ("fixed", "white", "random_uniform")


@dataclass(frozen=True)
class NoiseSpec:
    """Fringe parameters and the per-shot atom-laser phase law.

    ``y_a``/``y_b`` are excitation offsets about 1/2 (the supplement's y_A,
    y_B), bounded so the fringe stays inside [0, 1].
    """

    contrast: float = 1.0
    differential_phase: float = 0.0
    laser_phase_mode: str = "fixed"
    sigma_theta: float = 0.0
    theta0: float = np.pi / 2.0
    y_a: float = 0.0
    y_b: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError("contrast must lie in [0, 1]")
        bound = (1.0 - self.contrast) / 2.0
        if abs(self.y_a) > bound + 1e-12 or abs(self.y_b) > bound + 1e-12:
            raise ValueError("offsets must satisfy |y| <= (1 - C)/2")
        if self.laser_phase_mode not in PHASE_MODES:
            raise ValueError(f"laser_phase_mode must be one of {PHASE_MODES}")
        if self.sigma_theta < 0:
            raise ValueError("sigma_theta must be nonnegative")

    def draw_theta(self, n_shots, rng):
        if self.laser_phase_mode == "random_uniform":
            return rng.uniform(0.0, 2.0 * np.pi, n_shots)
        theta = np.full(n_shots, self.theta0)
        if self.laser_phase_mode == "white" and self.sigma_theta > 0:
            theta = theta + self.sigma_theta * rng.standard_normal(n_shots)
        return theta

    def fringe(self, theta):
        """(P_A, P_B) mean excitation fractions at atom-laser phase theta."""
        c = self.contrast / 2.0
        p_a = 0.5 + self.y_a + c * np.cos(theta)
        p_b = 0.5 + self.y_b + c * np.cos(theta + self.differential_phase)
        return p_a, p_b


def _streams(seed):
    """Phase and outcome generators; the phase stream is label-independent."""
    theta_ss, outcome_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(theta_ss), np.random.default_rng(outcome_ss)


def _clip_probs(p):
    if np.any(p < 0) or np.any(p > 1):
        warnings.warn("fringe probabilities clipped to [0, 1]", stacklevel=3)
        p = np.clip(p, 0.0, 1.0)
    return p


def _record_mode(noise):
    return "ellipse" if noise.laser_phase_mode == "random_uniform" else "quadrature"


def sample_css(n_atoms, noise: NoiseSpec, n_shots, seed) -> MeasurementRecord:
    """Binomial (coherent, uncorrelated-atom) shots for both ensembles."""
    if n_atoms < 1:
        raise ValueError("n_atoms must be positive")
    theta_rng, rng = _streams(seed)
    theta = noise.draw_theta(n_shots, theta_rng)
    p_a, p_b = (_clip_probs(p) for p in noise.fringe(theta))
    k_a = rng.binomial(n_atoms, p_a)
    k_b = rng.binomial(n_atoms, p_b)
    return MeasurementRecord(
        p_a=k_a / n_atoms, p_b=k_b / n_atoms,
        n_a=np.full(n_shots, n_atoms), n_b=np.full(n_shots, n_atoms),
        mode=_record_mode(noise), interleaved_label="css",
        theta_mode=noise.laser_phase_mode,
    )


def _sample_tempered(n, p, inv_zeta_sq, u):
    """Inverse-CDF draws: one count per (p, inv_zeta_sq, u) triple.

    The count of CDF entries below u times the total is the left-side
    ``searchsorted`` index, taken for every row at once.
    """
    cdf = np.cumsum(np.exp(_tempered_rows(n, p, inv_zeta_sq)), axis=1)
    return np.count_nonzero(cdf < u[:, None] * cdf[:, -1:], axis=1)


def sample_sss(n_atoms, noise: NoiseSpec, model: EllipseModel, n_shots,
               seed) -> MeasurementRecord:
    """Tempered-binomial shots with phase-dependent noise scaling zeta(theta).

    The phase sequence matches :func:`sample_css` at the same seed.  The
    fringe means come from ``noise``; ``model`` supplies the zeta components
    (its contrast/offset are ignored so interleaved runs share one fringe).
    """
    if n_atoms != model.n_atoms:
        raise ValueError("model atom number must match n_atoms")
    theta_rng, rng = _streams(seed)
    theta = noise.draw_theta(n_shots, theta_rng)
    p_a, p_b = (_clip_probs(p) for p in noise.fringe(theta))
    inv_a = 1.0 / model.zeta_sq(theta)
    inv_b = 1.0 / model.zeta_sq(theta + noise.differential_phase)
    if np.any(~np.isfinite(inv_a)) or np.any(~np.isfinite(inv_b)):
        raise ValueError("zeta too small: tempered mass function not normalizable")
    u = rng.random((2, n_shots))
    k_a = _sample_tempered(n_atoms, p_a, inv_a, u[0])
    k_b = _sample_tempered(n_atoms, p_b, inv_b, u[1])
    return MeasurementRecord(
        p_a=k_a / n_atoms, p_b=k_b / n_atoms,
        n_a=np.full(n_shots, n_atoms), n_b=np.full(n_shots, n_atoms),
        mode=_record_mode(noise), interleaved_label="sss",
        theta_mode=noise.laser_phase_mode,
    )


def sample_stability_run(n_atoms, noise: NoiseSpec, n_shots, t_dark, seed,
                         servo="integrator", gain=0.2, freq_offset_hz=0.0,
                         diff_freq_hz=0.0, zeta=None, cycle_time=1.4,
                         shot_noise=True) -> MeasurementRecord:
    """Servo-locked differential comparison run at fixed dark time.

    Per shot the common atom-laser phase accumulates 2 pi (f_offset + servo
    correction) t_dark on top of the quadrature operating point; ensemble B
    additionally accumulates 2 pi diff_freq_hz t_dark.  The optional
    integrator servo steers the mean excitation of both ensembles back to the
    fringe side point.  With ``zeta`` given, outcomes are tempered-binomial
    (spin-squeezed) draws instead of binomial ones.
    """
    if t_dark <= 0:
        raise ValueError("t_dark must be positive")
    if servo not in ("off", "integrator"):
        raise ValueError("servo must be 'off' or 'integrator'")
    theta_rng, rng = _streams(seed)
    jitter = noise.draw_theta(n_shots, theta_rng) - noise.theta0
    phi_b = noise.differential_phase + 2.0 * np.pi * diff_freq_hz * t_dark

    c = noise.contrast / 2.0
    correction = 0.0  # servo phase correction applied to the next shot
    p_a = np.empty(n_shots)
    p_b = np.empty(n_shots)
    if zeta is not None:
        zeta = np.broadcast_to(np.asarray(zeta, dtype=float), (2,))
        u = rng.random((2, n_shots))
    for i in range(n_shots):
        delta = 2.0 * np.pi * freq_offset_hz * t_dark + jitter[i] + correction
        theta = noise.theta0 + delta
        mean_a = 0.5 + noise.y_a + c * np.cos(theta)
        mean_b = 0.5 + noise.y_b + c * np.cos(theta + phi_b)
        if not shot_noise:
            p_a[i], p_b[i] = mean_a, mean_b
        elif zeta is None:
            p_a[i] = rng.binomial(n_atoms, np.clip(mean_a, 0, 1)) / n_atoms
            p_b[i] = rng.binomial(n_atoms, np.clip(mean_b, 0, 1)) / n_atoms
        else:
            inv = 1.0 / (zeta[0] ** 2 * np.sin(theta) ** 2
                         + zeta[1] ** 2 * np.cos(theta) ** 2)
            p_a[i], p_b[i] = _sample_tempered(
                n_atoms, np.clip([mean_a, mean_b], 0, 1), [inv, inv], u[:, i]) / n_atoms
        if servo == "integrator":
            # excitation error mapped back to phase on the sin fringe slope
            err = 0.5 * (p_a[i] + p_b[i]) - (0.5 + 0.5 * (noise.y_a + noise.y_b))
            if c > 0:
                correction -= gain * (-err / c)
    return MeasurementRecord(
        p_a=p_a, p_b=p_b,
        n_a=np.full(n_shots, n_atoms), n_b=np.full(n_shots, n_atoms),
        mode="stability", t_dark=t_dark, cycle_time=cycle_time,
        interleaved_label="css" if zeta is None else "sss",
        theta_mode=noise.laser_phase_mode,
    )


def tempered_binomial_variance(n, p, inv_zeta_sq):
    """Exact variance of the tempered binomial by direct summation."""
    k = np.arange(n + 1)
    f = np.exp(tempered_log_pmf(n, p, inv_zeta_sq))
    mean = np.sum(k * f)
    return float(np.sum((k - mean) ** 2 * f))


def zeta_for_variance_gain(n, gain_db, p=0.5, lo=0.05, hi=1.0):
    """zeta0 whose tempered variance at the noise quadrature sits gain_db
    below binomial (power convention: gain_db = -10 log10 ratio)."""
    target = binom_var = p * (1.0 - p) * n
    target = binom_var * 10.0 ** (-gain_db / 10.0)

    def ratio(z):
        return tempered_binomial_variance(n, p, 1.0 / z ** 2) - target

    if ratio(lo) > 0 or ratio(hi) < 0:
        raise ValueError("target gain outside the bracketed zeta range")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ratio(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
