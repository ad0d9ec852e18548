"""Closed-form Ising analytics for the spin-echo squeezing sequence.

The spin echo cancels all longitudinal fields, so the sequence is fully
characterized by the pairwise interaction phases phi_ij.  Contrast, the
two-particle correlator and quadrature variances then follow from products of
cosines of those phases; everything here is verified against a brute-force
state-vector oracle in the test suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, distance_matrix
from .potentials import SoftCorePotential, soft_core


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric pair-energy matrix V_ij in h x Hz with zero diagonal."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("coupling matrix must be square")
        if not np.all(np.isfinite(v)):
            raise ValueError("coupling matrix must be finite")
        if not np.allclose(v, v.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(v) != 0):
            raise ValueError("coupling matrix must have zero diagonal")
        object.__setattr__(self, "v", v)

    @property
    def n_atoms(self):
        return self.v.shape[0]


@dataclass(frozen=True)
class InteractionPhases:
    """Pairwise interaction phases phi_ij = V_ij t_int / (2 hbar), radians."""

    phi: np.ndarray
    t_int: float

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ValueError("phase matrix must be square")
        if not np.allclose(phi, phi.T):
            raise ValueError("phase matrix must be symmetric")
        if np.any(np.diag(phi) != 0):
            raise ValueError("phase matrix must have zero diagonal")
        object.__setattr__(self, "phi", phi)

    @property
    def n_atoms(self):
        return self.phi.shape[0]

    @classmethod
    def from_couplings(cls, c: CouplingMatrix, t_int):
        # V = h f  =>  V t / (2 hbar) = pi f t
        return cls(phi=np.pi * c.v * t_int, t_int=t_int)


@dataclass(frozen=True)
class SqueezingObservables:
    contrast: float
    xi_w_sq: float
    alpha_opt: float
    var_ratio_min: float
    variance_ratio: object = None  # callable alpha -> ratio

    @property
    def xi_db(self):
        return 10.0 * np.log10(self.xi_w_sq)


def couplings_from_potential(g: ArrayGeometry, v: SoftCorePotential) -> CouplingMatrix:
    """Soft-core couplings within each subarray; zero across subarrays."""
    r = distance_matrix(g)
    labels = np.asarray(g.subarray_labels)
    same = labels[:, None] == labels[None, :]
    with np.errstate(divide="ignore"):
        vij = np.where(same, v.v0 / (1.0 + (r / v.r_b) ** 6), 0.0)
    np.fill_diagonal(vij, 0.0)
    return CouplingMatrix(vij)


def _pair_coefficients(phi):
    """Per-pair coefficients (a_ij, b_ij) with g2_ij(alpha) = a sin^2 + b sin cos."""
    n = phi.shape[0]
    cosphi = np.cos(phi)
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mask = np.ones(n, dtype=bool)
            mask[i] = mask[j] = False
            p_minus = 0.5 * np.prod(np.cos(phi[mask, i] - phi[mask, j]))
            p_plus = 0.5 * np.prod(np.cos(phi[mask, i] + phi[mask, j]))
            prod_i = np.prod(cosphi[mask, i])
            prod_j = np.prod(cosphi[mask, j])
            a[i, j] = a[j, i] = 0.25 * (p_minus - p_plus)
            b[i, j] = b[j, i] = 0.25 * np.sin(phi[i, j]) * (prod_i + prod_j)
    return a, b


def g2_correlator(ph: InteractionPhases, alpha, i, j):
    """Connected two-particle correlator at quadrature angle alpha."""
    if i == j:
        raise ValueError("g2 requires two distinct sites")
    phi = ph.phi
    n = ph.n_atoms
    mask = np.ones(n, dtype=bool)
    mask[i] = mask[j] = False
    p_minus = 0.5 * np.prod(np.cos(phi[mask, i] - phi[mask, j]))
    p_plus = 0.5 * np.prod(np.cos(phi[mask, i] + phi[mask, j]))
    prod_i = np.prod(np.cos(phi[mask, i]))
    prod_j = np.prod(np.cos(phi[mask, j]))
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    return (0.25 * (p_minus - p_plus) * sin_a ** 2
            + 0.25 * sin_a * cos_a * np.sin(phi[i, j]) * (prod_i + prod_j))


def contrast(ph: InteractionPhases):
    """Mean single-spin coherence after the spin echo, C in [0, 1]."""
    phi = ph.phi
    cosphi = np.cos(phi)
    np.fill_diagonal(cosphi, 1.0)
    return float(np.mean(np.prod(cosphi, axis=1)))


def mean_sigma_z(ph: InteractionPhases, alpha):
    """Per-spin <sigma_z> after the quadrature rotation (zero for pure Ising echo)."""
    return np.zeros(ph.n_atoms)


def variance_ratio(ph: InteractionPhases, alpha, n_per_ensemble=None):
    """Var[d_z] / sigma_QPN^2 for two identical independent ensembles."""
    n = ph.n_atoms
    if n_per_ensemble is not None and n_per_ensemble != n:
        raise ValueError("n_per_ensemble must match the phase matrix size")
    return quadratic_form(_ratio_matrix(ph.phi), alpha)


def _ratio_matrix(phi):
    """2x2 matrix R with variance ratio [cos a, sin a] R [cos a, sin a]^T.

    Summing g2 = a sin^2 + b sin cos over the pairs i != j gives
    A sin^2 + B sin cos, so the ratio is 1 + (4/n)(A sin^2 + B sin cos).
    """
    n = phi.shape[0]
    a, b = _pair_coefficients(phi)
    off = 2.0 * np.sum(b) / n
    return np.array([[1.0, off], [off, 1.0 + 4.0 * np.sum(a) / n]])


def quadratic_form(m, alpha):
    """[cos alpha, sin alpha] m [cos alpha, sin alpha]^T for a symmetric 2x2 m."""
    u = np.array([np.cos(alpha), np.sin(alpha)])
    return float(u @ m @ u)


def quadrature_minimum(m):
    """(alpha in [0, pi), value) at the minimum of ``quadratic_form(m, alpha)``.

    With m = [[p, q], [q, r]] the form is (p + r)/2 + (p - r)/2 cos 2alpha
    + q sin 2alpha, so the minimum is the smaller eigenvalue of m and alpha
    the angle of its eigenvector.
    """
    (p, q), (_, r) = m
    alpha = 0.5 * np.arctan2(-2.0 * q, r - p) % np.pi
    return float(alpha), float(0.5 * (p + r) - np.hypot(0.5 * (p - r), q))


def minimize_variance(ph: InteractionPhases):
    """Optimal quadrature in closed form: (alpha_opt, var_min, ratio callable).

    With A = sum a_ij and B = sum b_ij, var_min = 1 + (2/n)(A - sqrt(A^2 +
    B^2)) at alpha_opt = atan2(-B, A) / 2 mod pi.
    """
    r = _ratio_matrix(ph.phi)
    alpha_opt, var_min = quadrature_minimum(r)
    return alpha_opt, var_min, lambda alpha: quadratic_form(r, alpha)


def wineland(ph: InteractionPhases, n=None) -> SqueezingObservables:
    """Wineland parameter from the alpha-optimized variance and the contrast."""
    if n is not None and n != ph.n_atoms:
        raise ValueError("n must match the phase matrix size")
    if ph.n_atoms < 2:
        raise ValueError("need at least two atoms")
    alpha_opt, var_min, ratio = minimize_variance(ph)
    c = contrast(ph)
    return SqueezingObservables(
        contrast=c,
        xi_w_sq=var_min / c ** 2,
        alpha_opt=alpha_opt,
        var_ratio_min=var_min,
        variance_ratio=ratio,
    )


def phases_for_geometry(g: ArrayGeometry, v: SoftCorePotential, t_int,
                        subarray=None) -> InteractionPhases:
    """Interaction phases for one subarray of ``g`` (default: first label)."""
    c = couplings_from_potential(g, v)
    if subarray is None:
        subarray = g.labels[0]
    idx = np.asarray(g.subarray_indices(subarray))
    return InteractionPhases(phi=np.pi * c.v[np.ix_(idx, idx)] * t_int, t_int=t_int)


def scan_xi_vs_n(sizes, v: SoftCorePotential, t_grid, spacing=(2, 2),
                 lattice_constant=None):
    """Optimal Wineland parameter vs atom number for square/rect subarrays.

    ``sizes`` is a list of (rows, cols); each geometry is scanned over
    ``t_grid`` and the quadrature angle.  Returns a list of result dicts.
    """
    from .geometry import build_subarrays, DEFAULT_LATTICE_CONSTANT

    if len(sizes) == 0 or len(t_grid) == 0:
        raise ValueError("sizes and t_grid must be nonempty")
    a_lat = lattice_constant or DEFAULT_LATTICE_CONSTANT
    rows_out = []
    for rows, cols in sizes:
        g = build_subarrays(rows, cols, spacing[0], spacing[1], 1,
                            lattice_constant=a_lat)
        best = None
        for t_int in t_grid:
            if t_int == 0:
                obs = SqueezingObservables(contrast=1.0, xi_w_sq=1.0,
                                           alpha_opt=0.0, var_ratio_min=1.0)
            else:
                ph = phases_for_geometry(g, v, t_int)
                obs = wineland(ph)
            if best is None or obs.xi_w_sq < best[1].xi_w_sq:
                best = (t_int, obs)
        t_opt, obs = best
        rows_out.append({
            "n": g.n_atoms,
            "rows": rows,
            "cols": cols,
            "t_int_opt": t_opt,
            "alpha_opt": obs.alpha_opt,
            "contrast": obs.contrast,
            "var_ratio_min": obs.var_ratio_min,
            "xi_w_sq": obs.xi_w_sq,
            "xi_db": obs.xi_db,
        })
    return rows_out


def write_scan_csv(path, scan_rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "t_int_us", "alpha_opt_deg", "contrast",
                    "var_ratio_min", "xi_db"])
        for r in scan_rows:
            w.writerow([r["n"], r["t_int_opt"] * 1e6,
                        np.degrees(r["alpha_opt"]), r["contrast"],
                        r["var_ratio_min"], r["xi_db"]])


def g2_map_by_displacement(g: ArrayGeometry, ph: InteractionPhases, alpha,
                           subarray=None):
    """Average g2 keyed by lattice displacement (rx, ry) within one subarray."""
    if subarray is None:
        subarray = g.labels[0]
    idx = list(g.subarray_indices(subarray))
    if len(idx) != ph.n_atoms:
        raise ValueError("phase matrix does not match the subarray size")
    sites = [g.sites[i] for i in idx]
    sums, counts = {}, {}
    for a_loc in range(len(idx)):
        for b_loc in range(len(idx)):
            if a_loc == b_loc:
                continue
            rx = sites[b_loc][0] - sites[a_loc][0]
            ry = sites[b_loc][1] - sites[a_loc][1]
            val = g2_correlator(ph, alpha, a_loc, b_loc)
            sums[(rx, ry)] = sums.get((rx, ry), 0.0) + val
            counts[(rx, ry)] = counts.get((rx, ry), 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


def write_g2_csv(path, g2_map):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rx", "ry", "g2"])
        for (rx, ry), val in sorted(g2_map.items()):
            w.writerow([rx, ry, val])
