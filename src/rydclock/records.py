"""Per-shot measurement records and their CSV contract.

The CSV layout (shot_index, p_a, p_b, n_a, n_b, theta_mode, t_dark_s) is the
interchange format between the samplers and the analysis modules, so real
experimental data can be ingested the same way.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

MODES = ("quadrature", "stability", "ellipse")


@dataclass
class MeasurementRecord:
    """Time-ordered per-shot excitation fractions for two subarrays."""

    p_a: np.ndarray
    p_b: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    mode: str = "quadrature"
    t_dark: float = 0.0
    cycle_time: float = 1.4
    interleaved_label: str = "css"
    theta_mode: str = "fixed"

    def __post_init__(self):
        self.p_a = np.asarray(self.p_a, dtype=float)
        self.p_b = np.asarray(self.p_b, dtype=float)
        self.n_a = np.asarray(self.n_a, dtype=int)
        self.n_b = np.asarray(self.n_b, dtype=int)
        if not (self.p_a.shape == self.p_b.shape == self.n_a.shape == self.n_b.shape):
            raise ValueError("per-shot arrays must share one shape")
        if np.any(self.p_a < 0) or np.any(self.p_a > 1) \
                or np.any(self.p_b < 0) or np.any(self.p_b > 1):
            raise ValueError("excitation fractions must lie in [0, 1]")
        if np.any(self.n_a <= 0) or np.any(self.n_b <= 0):
            raise ValueError("atom numbers must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    @property
    def n_shots(self):
        return self.p_a.size

    @property
    def k_a(self):
        return np.rint(self.p_a * self.n_a).astype(int)

    @property
    def k_b(self):
        return np.rint(self.p_b * self.n_b).astype(int)

    def subset(self, indices):
        """Record restricted to the given shot indices (order preserved)."""
        idx = np.asarray(indices)
        return MeasurementRecord(
            p_a=self.p_a[idx], p_b=self.p_b[idx],
            n_a=self.n_a[idx], n_b=self.n_b[idx],
            mode=self.mode, t_dark=self.t_dark, cycle_time=self.cycle_time,
            interleaved_label=self.interleaved_label, theta_mode=self.theta_mode,
        )

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["shot_index", "p_a", "p_b", "n_a", "n_b",
                        "theta_mode", "t_dark_s"])
            for i in range(self.n_shots):
                w.writerow([i, repr(float(self.p_a[i])), repr(float(self.p_b[i])),
                            self.n_a[i], self.n_b[i], self.theta_mode,
                            repr(float(self.t_dark))])

    @classmethod
    def from_csv(cls, path, mode="quadrature", **kwargs):
        p_a, p_b, n_a, n_b = [], [], [], []
        theta_mode = "fixed"
        t_dark = 0.0
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                p_a.append(float(row["p_a"]))
                p_b.append(float(row["p_b"]))
                n_a.append(int(row["n_a"]))
                n_b.append(int(row["n_b"]))
                theta_mode = row["theta_mode"]
                t_dark = float(row["t_dark_s"])
        if not p_a:
            raise ValueError(f"no data rows in {path}")
        return cls(p_a=np.array(p_a), p_b=np.array(p_b),
                   n_a=np.array(n_a), n_b=np.array(n_b),
                   mode=mode, t_dark=t_dark, theta_mode=theta_mode, **kwargs)
