"""Dressed two-body interaction strengths and the soft-core fit.

Energies are handled as plain frequencies (h x Hz) throughout; hbar only shows
up at formula boundaries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .geometry import DEFAULT_LATTICE_CONSTANT

TWO_PI = 2.0 * np.pi


class FitError(RuntimeError):
    """Nonlinear fit failed to converge; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DressingParams:
    """Rydberg drive parameters, all angular frequencies in rad/s.

    ``c6`` is the van der Waals coefficient in rad/s * m^6.
    """

    omega_r: float
    delta: float
    c6: float
    omega_c: float = 0.0

    def __post_init__(self):
        if self.omega_r <= 0:
            raise ValueError("omega_r must be positive")
        if self.delta == 0:
            raise ValueError("delta must be nonzero (blockade radius undefined)")

    @property
    def beta(self):
        return self.omega_r / (2.0 * self.delta)

    @classmethod
    def from_hz(cls, omega_r_hz, delta_hz, c6_ghz_um6, omega_c_hz=0.0):
        """Build from linear frequencies: Omega_r, Delta in Hz and C6 in GHz um^6."""
        return cls(
            omega_r=TWO_PI * omega_r_hz,
            delta=TWO_PI * delta_hz,
            c6=TWO_PI * c6_ghz_um6 * 1e9 * 1e-36,
            omega_c=TWO_PI * omega_c_hz,
        )


@dataclass(frozen=True)
class SoftCorePotential:
    """Plateau value v0 (h x Hz) and range r_b (meters) of V0 / [1 + (r/R_b)^6]."""

    v0: float
    r_b: float

    def __post_init__(self):
        if self.r_b <= 0:
            raise ValueError("r_b must be positive")

    def __call__(self, r):
        return soft_core(self, r)


@dataclass(frozen=True)
class PairOscillationData:
    """Pair oscillation frequencies vs separation, separations in lattice units."""

    r_lat: tuple
    freq_hz: tuple
    err_hz: tuple
    lattice_constant: float = DEFAULT_LATTICE_CONSTANT

    def __post_init__(self):
        if not (len(self.r_lat) == len(self.freq_hz) == len(self.err_hz)):
            raise ValueError("r_lat, freq_hz, err_hz must have equal length")
        if any(r <= 0 for r in self.r_lat):
            raise ValueError("separations must be positive")
        if len(set(self.r_lat)) != len(self.r_lat):
            raise ValueError("separations must be distinct")
        if any(e <= 0 for e in self.err_hz):
            raise ValueError("frequency errors must be positive")

    @classmethod
    def from_csv(cls, path, lattice_constant=DEFAULT_LATTICE_CONSTANT):
        r, f, e = [], [], []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                r.append(float(row["r_lat"]))
                f.append(float(row["freq_hz"]))
                e.append(float(row["err_hz"]))
        if not r:
            raise ValueError(f"no data rows in {path}")
        return cls(tuple(r), tuple(f), tuple(e), lattice_constant)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r_lat", "freq_hz", "err_hz"])
            for row in zip(self.r_lat, self.freq_hz, self.err_hz):
                w.writerow(row)


def weak_dressing_potential(p: DressingParams) -> SoftCorePotential:
    """Perturbative soft core: V0 = beta^3 Omega_r (h x Hz), R_b = |C6/(2 Delta)|^(1/6)."""
    v0_hz = p.beta ** 3 * (p.omega_r / TWO_PI)
    r_b = abs(p.c6 / (2.0 * p.delta)) ** (1.0 / 6.0)
    return SoftCorePotential(v0=v0_hz, r_b=r_b)


def soft_core(v: SoftCorePotential, r):
    """Interaction energy (h x Hz) at separation r (meters)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("separation must be nonnegative")
    out = v.v0 / (1.0 + (r / v.r_b) ** 6)
    return out if out.ndim else float(out)


def _model_freq(params, r_lat):
    f_plateau, rb_lat = params
    return f_plateau / (1.0 + (r_lat / rb_lat) ** 6)


def _model_jac(params, r_lat):
    f_plateau, rb_lat = params
    x = (r_lat / rb_lat) ** 6
    denom = 1.0 + x
    d_f = 1.0 / denom
    d_rb = f_plateau * 6.0 * x / (rb_lat * denom ** 2)
    return np.column_stack([d_f, d_rb])


def fit_soft_core(data: PairOscillationData):
    """Weighted (1/sigma^2) fit of f(r) = f_plateau / [1 + (r/R_b)^6].

    Returns ``(SoftCorePotential, cov)`` where v0 = 2 * f_plateau (the plateau
    pair energy in h x Hz), r_b is in meters and ``cov`` is the 2x2 parameter
    covariance for (v0_hz, r_b_m).
    """
    r = np.asarray(data.r_lat, dtype=float)
    f = np.asarray(data.freq_hz, dtype=float)
    sigma = np.asarray(data.err_hz, dtype=float)
    if len(r) < 3:
        raise ValueError("need at least 3 distinct separations")

    x0 = np.array([2.0 * f.max() / 2.0, np.median(r)])  # f_plateau, rb in a_lat
    x0[0] = max(x0[0], 1e-12)

    def resid(params):
        return (_model_freq(params, r) - f) / sigma

    def jac(params):
        return _model_jac(params, r) / sigma[:, None]

    sol = least_squares(resid, x0, jac=jac, method="lm", xtol=1e-14, ftol=1e-14)
    if not sol.success:
        raise FitError("soft-core fit did not converge", residual=float(np.sum(sol.fun ** 2)))

    f_plateau, rb_lat = sol.x
    # covariance from the weighted Jacobian at the optimum
    jtj = sol.jac.T @ sol.jac
    try:
        cov_native = np.linalg.inv(jtj)
    except np.linalg.LinAlgError as exc:
        raise FitError("degenerate fit (singular normal matrix)") from exc
    # transform (f_plateau, rb_lat) -> (v0_hz, r_b_m)
    scale = np.diag([2.0, data.lattice_constant])
    cov = scale @ cov_native @ scale.T
    pot = SoftCorePotential(v0=2.0 * f_plateau, r_b=rb_lat * data.lattice_constant)
    return pot, cov


def fit_report_json(pot: SoftCorePotential, cov, lattice_constant=DEFAULT_LATTICE_CONSTANT):
    """JSON-serializable fit report (v0_hz, rb_lat, covariance)."""
    return {
        "v0_hz": pot.v0,
        "rb_lat": pot.r_b / lattice_constant,
        "rb_m": pot.r_b,
        "covariance_v0hz_rbm": np.asarray(cov).tolist(),
    }


def pair_oscillation_frequency(p: DressingParams, r):
    """Two-atom oscillation frequency omega (Hz) with V(r) = 2 hbar omega.

    Uses the exact static two-atom spectrum rather than a time-domain fit.
    """
    if r <= 0:
        raise ValueError("separation must be positive")
    from .exact_diag import dressed_pair_shift

    return dressed_pair_shift(p, r) / 2.0

