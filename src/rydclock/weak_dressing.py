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

from .geometry import (DEFAULT_LATTICE_CONSTANT, ArrayGeometry, build_subarrays,
                       distance_matrix)
from .potentials import SoftCorePotential


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
    """Optimal-quadrature squeezing observables of one spin-echo run.

    The variance ratio at quadrature angle alpha is the quadratic form of the
    2x2 ``ratio_matrix`` (``quadratic_form``); ``var_ratio_min`` and
    ``alpha_opt`` are its minimum and the angle there.
    """

    contrast: float
    xi_w_sq: float
    alpha_opt: float
    var_ratio_min: float
    ratio_matrix: np.ndarray

    @classmethod
    def from_ratio_matrix(cls, c, m, **extra):
        """Observables at the closed-form optimum of ``m`` for contrast ``c``."""
        alpha_opt, var_min = quadrature_minimum(m)
        return cls(contrast=float(c), xi_w_sq=float(var_min / c ** 2),
                   alpha_opt=alpha_opt, var_ratio_min=var_min, ratio_matrix=m,
                   **extra)

    def variance_ratio(self, alpha):
        """Var[d_z] / sigma_QPN^2 at quadrature angle alpha."""
        return quadratic_form(self.ratio_matrix, alpha)

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
    """Per-pair coefficients (a_ij, b_ij) with g2_ij(alpha) = a sin^2 + b sin cos.

    a_ij = (P-_ij - P+_ij) / 8 and b_ij = sin(phi_ij) (Q_ij + Q_ji) / 4, with
    P+-_ij = prod_k cos(phi_ki +- phi_kj) and Q_ij = prod_k cos(phi_ki) over
    the spectators k != i, j (the closed-form Ising correlators of Foss-Feig
    et al., PRA 87, 042101 (2013)).  The products run over k in ascending
    order for all pairs at once, a factor of 1 standing in for k = i or
    k = j, so each entry is the same sequential product as a per-pair
    ``np.prod``.  One factor buffer is reused for every k, so the table costs
    O(N^2) memory.  This one table serves g2, the ratio matrix and the
    displacement map.
    """
    n = phi.shape[0]
    cosphi = np.cos(phi)
    p_minus, p_plus, q = np.ones((3, n, n))
    f = np.empty((n, n))  # the factor of one spectator k
    for k in range(n):
        row = phi[k]
        for prod, op in ((p_minus, np.subtract), (p_plus, np.add), (q, None)):
            if op is None:
                f[:] = cosphi[k][:, None]
            else:
                np.cos(op.outer(row, row, out=f), out=f)
            f[k, :] = f[:, k] = 1.0
            prod *= f
    a = 0.25 * (0.5 * p_minus - 0.5 * p_plus)
    b = 0.25 * np.sin(phi) * (q + q.T)
    # copy the i < j entries to j > i, so both halves hold the same bits
    lower = np.tri(n, k=-1, dtype=bool)
    for m in (a, b):
        f[:] = m.T
        np.copyto(m, f, where=lower)
        np.fill_diagonal(m, 0.0)
    return a, b


def _g2_table(phi, alpha):
    a, b = _pair_coefficients(phi)
    sin_a = np.sin(alpha)
    return a * sin_a ** 2 + b * sin_a * np.cos(alpha)


def g2_correlator(ph: InteractionPhases, alpha, i, j):
    """Connected two-particle correlator at quadrature angle alpha."""
    if i == j:
        raise ValueError("g2 requires two distinct sites")
    return float(_g2_table(ph.phi, alpha)[i, j])


def contrast(ph: InteractionPhases):
    """Mean single-spin coherence after the spin echo, C in [0, 1]."""
    phi = ph.phi
    cosphi = np.cos(phi)
    np.fill_diagonal(cosphi, 1.0)
    return float(np.mean(np.prod(cosphi, axis=1)))


def variance_ratio(ph: InteractionPhases, alpha):
    """Var[d_z] / sigma_QPN^2 for two identical independent ensembles."""
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


def wineland(ph: InteractionPhases) -> SqueezingObservables:
    """Wineland parameter at the closed-form optimal quadrature.

    With A = sum a_ij and B = sum b_ij, var_min = 1 + (2/n)(A - sqrt(A^2 +
    B^2)) at alpha_opt = atan2(-B, A) / 2 mod pi.
    """
    if ph.n_atoms < 2:
        raise ValueError("need at least two atoms")
    return SqueezingObservables.from_ratio_matrix(contrast(ph),
                                                  _ratio_matrix(ph.phi))


def phases_for_geometry(g: ArrayGeometry, v: SoftCorePotential, t_int,
                        subarray=None) -> InteractionPhases:
    """Interaction phases for one subarray of ``g`` (default: first label)."""
    c = couplings_from_potential(g, v)
    if subarray is None:
        subarray = g.labels[0]
    idx = np.asarray(g.subarray_indices(subarray))
    return InteractionPhases(phi=np.pi * c.v[np.ix_(idx, idx)] * t_int, t_int=t_int)


def _best_over_t_int(sizes, t_grid, observer):
    """One scan row per (rows, cols): the t_int in ``t_grid`` with the least xi^2.

    ``observer(rows, cols)`` returns that size's ``t_int -> observables``
    callable (``SqueezingObservables`` or ``EDResult``); the first t_int wins
    ties.  ED rows also carry ``max_rydberg_pop``.
    """
    if len(sizes) == 0 or len(t_grid) == 0:
        raise ValueError("sizes and t_grid must be nonempty")
    out = []
    for rows, cols in sizes:
        observe = observer(rows, cols)
        t_opt, obs = min(((t_int, observe(t_int)) for t_int in t_grid),
                         key=lambda pair: pair[1].xi_w_sq)
        row = {"n": rows * cols, "rows": rows, "cols": cols, "t_int_opt": t_opt,
               "alpha_opt": obs.alpha_opt, "contrast": obs.contrast,
               "var_ratio_min": obs.var_ratio_min, "xi_w_sq": obs.xi_w_sq,
               "xi_db": obs.xi_db}
        if hasattr(obs, "max_rydberg_population"):
            row["max_rydberg_pop"] = obs.max_rydberg_population
        out.append(row)
    return out


def scan_xi_vs_n(sizes, v: SoftCorePotential, t_grid, spacing=(2, 2),
                 lattice_constant=None):
    """Optimal Wineland parameter vs atom number for square/rect subarrays.

    ``sizes`` is a list of (rows, cols); each geometry is scanned over
    ``t_grid`` and the quadrature angle.  Returns a list of result dicts.
    """
    a_lat = lattice_constant or DEFAULT_LATTICE_CONSTANT

    def observer(rows, cols):
        g = build_subarrays(rows, cols, spacing[0], spacing[1], 1,
                            lattice_constant=a_lat)
        return lambda t_int: wineland(phases_for_geometry(g, v, t_int))

    return _best_over_t_int(sizes, t_grid, observer)


def write_scan_csv(path, scan_rows):
    """Scan rows as CSV; ED rows add a ``max_rydberg_pop`` column."""
    extra = ["max_rydberg_pop"] if "max_rydberg_pop" in scan_rows[0] else []
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "t_int_us", "alpha_opt_deg", "contrast",
                    "var_ratio_min", "xi_db", *extra])
        for r in scan_rows:
            w.writerow([r["n"], r["t_int_opt"] * 1e6,
                        np.degrees(r["alpha_opt"]), r["contrast"],
                        r["var_ratio_min"], r["xi_db"], *(r[k] for k in extra)])


def g2_map_by_displacement(g: ArrayGeometry, ph: InteractionPhases, alpha,
                           subarray=None):
    """Average g2 keyed by lattice displacement (rx, ry) within one subarray."""
    if subarray is None:
        subarray = g.labels[0]
    idx = list(g.subarray_indices(subarray))
    if len(idx) != ph.n_atoms:
        raise ValueError("phase matrix does not match the subarray size")
    sites = np.array([g.sites[i] for i in idx])
    pair = ~np.eye(len(idx), dtype=bool)
    # displacement of site b from site a, over the ordered pairs a != b
    keys, inverse = np.unique((sites[None, :] - sites[:, None])[pair], axis=0,
                              return_inverse=True)
    sums = np.bincount(inverse, weights=_g2_table(ph.phi, alpha)[pair])
    counts = np.bincount(inverse)
    return {(int(rx), int(ry)): s / c
            for (rx, ry), s, c in zip(keys, sums, counts)}
