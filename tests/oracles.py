"""Independent reference implementations used only by the tests.

Everything here is deliberately written without importing the package's
analytic formulas: brute-force state vectors, closed-form one-axis-twisting
expressions from the literature, naive O(M^2) Allan sums, and a plain
binomial likelihood built on scipy.stats.
"""

from itertools import combinations

import numpy as np
from scipy.stats import binom


def _rotate_x(psi, n, angle):
    c, s = np.cos(angle / 2.0), -1j * np.sin(angle / 2.0)
    u = np.array([[c, s], [s, c]])
    for i in range(n):
        psi = psi.reshape(2 ** (n - 1 - i), 2, 2 ** i)
        psi = np.einsum("ab,xby->xay", u, psi)
    return psi.reshape(-1)


def _pauli(psi, n, site, axis):
    psi2 = psi.reshape(2 ** (n - 1 - site), 2, 2 ** site)
    out = np.empty_like(psi2)
    if axis == "z":
        out[:, 0, :] = -psi2[:, 0, :]
        out[:, 1, :] = psi2[:, 1, :]
    elif axis == "y":
        out[:, 0, :] = -1j * psi2[:, 1, :]
        out[:, 1, :] = 1j * psi2[:, 0, :]
    elif axis == "x":
        out[:, 0, :] = psi2[:, 1, :]
        out[:, 1, :] = psi2[:, 0, :]
    return out.reshape(-1)


def three_level_hamiltonian(r_dist, omega_r, delta, omega_c, c6):
    """Dense 3^N H3 / hbar, the reference for the block-diagonal ED engine.

    Digit i of basis index k, (k // 3**i) % 3, is site i's level (0 = g,
    1 = e, 2 = r).  The drives couple g-e (omega_c) and e-r (omega_r) with
    the 1/2 prefactor; each |r> adds delta, each |r>|r> pair c6 / r^6.
    """
    n = len(r_dist)
    h = np.zeros((3 ** n, 3 ** n))
    for k in range(3 ** n):
        levels = [(k // 3 ** i) % 3 for i in range(n)]
        ryd = [i for i in range(n) if levels[i] == 2]
        h[k, k] = delta * len(ryd) + c6 * sum(
            1.0 / r_dist[i, j] ** 6 for i, j in combinations(ryd, 2))
        for i, level in enumerate(levels):
            if level < 2:  # raise site i by one level
                h[k, k + 3 ** i] = h[k + 3 ** i, k] = 0.5 * (
                    omega_c if level == 0 else omega_r)
    return h


def pair_coefficients_loop(phi):
    """Per-pair (a_ij, b_ij), g2_ij(alpha) = a sin^2 + b sin cos, one pair at a time.

    Each spectator product is one ``np.prod`` over the sites k != i, j in
    ascending order; the package's table must match these bits.
    """
    n = phi.shape[0]
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            k = [s for s in range(n) if s not in (i, j)]
            p_minus = 0.5 * np.prod(np.cos(phi[k, i] - phi[k, j]))
            p_plus = 0.5 * np.prod(np.cos(phi[k, i] + phi[k, j]))
            a[i, j] = a[j, i] = 0.25 * (p_minus - p_plus)
            b[i, j] = b[j, i] = 0.25 * np.sin(phi[i, j]) * (
                np.prod(np.cos(phi[k, i])) + np.prod(np.cos(phi[k, j])))
    return a, b


class SpinEchoOracle:
    """Brute-force spin echo under a diagonal Ising interaction.

    Sequence: pi/2 (x) -- exp(-i sum phi_ij n_i n_j) -- pi (x) -- same again,
    where n_i projects on the excited qubit state; phi_ij is the per-pair
    interaction phase accumulated over each interaction half.  Optional
    per-site longitudinal fields delta_i add exp(-i delta_i n_i) per half.
    The measured quadrature is m(alpha) = cos(alpha) sz + sin(alpha) sx
    (the mean spin points along +y after this sequence).
    """

    def __init__(self, phi_mat, deltas=None):
        phi_mat = np.asarray(phi_mat, dtype=float)
        n = phi_mat.shape[0]
        dim = 2 ** n
        bits = (np.arange(dim)[:, None] >> np.arange(n)) & 1
        diag = np.einsum("ki,kj,ij->k", bits, bits, np.triu(phi_mat, 1))
        if deltas is not None:
            diag = diag + bits @ np.asarray(deltas, dtype=float)
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        psi = _rotate_x(psi, n, np.pi / 2)
        psi = np.exp(-1j * diag) * psi
        psi = _rotate_x(psi, n, np.pi)
        psi = np.exp(-1j * diag) * psi
        self.psi = psi
        self.n = n

    def _expect(self, a_psi):
        return np.real(np.vdot(self.psi, a_psi))

    def _m(self, site, alpha):
        return (np.cos(alpha) * _pauli(self.psi, self.n, site, "z")
                + np.sin(alpha) * _pauli(self.psi, self.n, site, "x"))

    def contrast(self):
        s = np.zeros(3)
        for k, axis in enumerate("xyz"):
            acc = np.zeros_like(self.psi)
            for i in range(self.n):
                acc += _pauli(self.psi, self.n, i, axis)
            s[k] = 0.5 * self._expect(acc)
        return 2.0 * np.linalg.norm(s) / self.n

    def mean_sigma(self, site, alpha):
        return self._expect(self._m(site, alpha))

    def g2(self, i, j, alpha):
        mi, mj = self._m(i, alpha), self._m(j, alpha)
        return 0.25 * (np.real(np.vdot(mi, mj))
                       - self._expect(mi) * self._expect(mj))

    def variance_ratio(self, alpha):
        acc = sum(self._m(i, alpha) for i in range(self.n))
        mean = self._expect(acc)
        var = 0.25 * (np.real(np.vdot(acc, acc)) - mean ** 2)
        return 4.0 * var / self.n


def ku_variance_ratio_min(n, phi):
    """Kitagawa-Ueda one-axis-twisting minimal variance over quadratures,
    normalized to the coherent-state value (literature closed form)."""
    a = (1.0 - np.cos(2.0 * phi) ** (n - 2)) / 8.0
    b = 0.5 * np.sin(phi) * np.cos(phi) ** (n - 2)
    return 1.0 + 2.0 * (n - 1) * (a - np.sqrt(a ** 2 + b ** 2))


def ku_contrast(n, phi):
    return np.cos(phi) ** (n - 1)


def ku_optimal_xi_sq(n, n_grid=20001):
    """Optimal Wineland parameter for one-axis twisting by dense phi scan."""
    phis = np.linspace(1e-6, np.pi / 2, n_grid)
    xi = ku_variance_ratio_min(n, phis) / ku_contrast(n, phis) ** 2
    return float(np.min(xi))


def naive_overlapping_avar(y, m):
    """Literal double-loop overlapping Allan variance at averaging factor m."""
    y = np.asarray(y, dtype=float)
    big_m = y.size
    total = 0.0
    count = 0
    for j in range(big_m - 2 * m + 1):
        inner = 0.0
        for i in range(j, j + m):
            inner += y[i + m] - y[i]
        total += inner ** 2
        count += 1
    return total / (2.0 * m ** 2 * count)


def plain_binomial_loglik(k_a, k_b, n, phi, contrast, y0, n_theta):
    """Log likelihood of the zeta=(1,1) model via scipy binomials only."""
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    p_a = contrast / 2.0 * np.cos(thetas) + y0
    p_b = contrast / 2.0 * np.cos(thetas + phi) + y0
    total = 0.0
    for ka, kb in zip(k_a, k_b):
        like = np.mean(binom.pmf(ka, n, p_a) * binom.pmf(kb, n, p_b))
        total += np.log(like)
    return total
