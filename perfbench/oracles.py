"""Reference computations written apart from the rydclock package.

The output checks compare the program against these: a brute-force spin-echo
state vector, the Kitagawa-Ueda one-axis-twisting closed form, direct
window sums for the overlapping Allan variance, a scipy.stats binomial
likelihood, and the tempered-binomial variance used to pick the squeezing
strength of the synthetic inputs.  Only numpy and scipy are imported here.
"""

import numpy as np
from scipy.special import gammaln, logsumexp


def tempered_binomial_variance(n, p, zeta):
    """Variance of Binomial(n, p) raised to the power 1/zeta^2 and renormalized."""
    k = np.arange(n + 1)
    log_f = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
             + k * np.log(p) + (n - k) * np.log1p(-p)) / zeta ** 2
    f = np.exp(log_f - logsumexp(log_f))
    mean = np.sum(k * f)
    return float(np.sum((k - mean) ** 2 * f))


def zeta_for_gain_db(n, gain_db, p=0.5):
    """zeta whose tempered variance at p lies gain_db below the binomial one."""
    target = p * (1.0 - p) * n * 10.0 ** (-gain_db / 10.0)
    lo, hi = 0.05, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if tempered_binomial_variance(n, p, mid) > target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _rotate_x(psi, n, angle):
    c, s = np.cos(angle / 2.0), -1j * np.sin(angle / 2.0)
    u = np.array([[c, s], [s, c]])
    for i in range(n):
        psi = np.einsum("ab,xby->xay", u, psi.reshape(2 ** (n - 1 - i), 2, 2 ** i))
    return psi.reshape(-1)


def _pauli(psi, n, site, axis):
    v = psi.reshape(2 ** (n - 1 - site), 2, 2 ** site)
    out = np.empty_like(v)
    if axis == "z":
        out[:, 0], out[:, 1] = -v[:, 0], v[:, 1]
    elif axis == "x":
        out[:, 0], out[:, 1] = v[:, 1], v[:, 0]
    else:
        out[:, 0], out[:, 1] = -1j * v[:, 1], 1j * v[:, 0]
    return out.reshape(-1)


def spin_echo_observables(phi, alpha):
    """(contrast, variance ratio at alpha) of the Ising spin echo, by state vector.

    pi/2 -- exp(-i sum_{i<j} phi_ij n_i n_j) -- pi -- the same again, with n_i
    the excited-state projector; the quadrature is cos(alpha) Sz + sin(alpha) Sx.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0]
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    diag = np.einsum("ki,kj,ij->k", bits, bits, np.triu(phi, 1))
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    psi = _rotate_x(psi, n, np.pi / 2)
    psi = np.exp(-1j * diag) * psi
    psi = _rotate_x(psi, n, np.pi)
    psi = np.exp(-1j * diag) * psi

    spin = [0.5 * np.real(np.vdot(psi, sum(_pauli(psi, n, i, a) for i in range(n))))
            for a in "xyz"]
    contrast = 2.0 * np.linalg.norm(spin) / n
    m = sum(np.cos(alpha) * _pauli(psi, n, i, "z")
            + np.sin(alpha) * _pauli(psi, n, i, "x") for i in range(n))
    mean = np.real(np.vdot(psi, m))
    var = 0.25 * (np.real(np.vdot(m, m)) - mean ** 2)
    return float(contrast), float(4.0 * var / n)


def one_axis_twisting_xi_sq(n, n_grid=200001):
    """Optimal Wineland parameter of one-axis twisting (Kitagawa-Ueda closed form)."""
    phi = np.linspace(1e-6, np.pi / 2, n_grid)
    a = (1.0 - np.cos(2.0 * phi) ** (n - 2)) / 8.0
    b = 0.5 * np.sin(phi) * np.cos(phi) ** (n - 2)
    var_min = 1.0 + 2.0 * (n - 1) * (a - np.sqrt(a ** 2 + b ** 2))
    with np.errstate(divide="ignore", over="ignore"):
        xi = var_min / np.cos(phi) ** (2 * (n - 1))
    k = int(np.argmin(xi))
    return float(xi[k]), float(phi[k])


def overlapping_avar(y, m):
    """Overlapping Allan variance at averaging factor m from direct window sums."""
    y = np.asarray(y, dtype=float)
    windows = np.lib.stride_tricks.sliding_window_view(y, m).sum(axis=1)
    d = windows[m:] - windows[:-m]
    return float(np.sum(d ** 2) / (2.0 * m ** 2 * d.size))


def binomial_loglik(k_a, k_b, n, phi, contrast, y0, n_theta):
    """Log likelihood of the zeta = (1, 1) ellipse model, theta-averaged with scipy."""
    from scipy.stats import binom  # slow to import; kept out of the set-up time

    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    p_a = contrast / 2.0 * np.cos(theta) + y0
    p_b = contrast / 2.0 * np.cos(theta + phi) + y0
    like = np.mean(binom.pmf(np.asarray(k_a)[:, None], n, p_a[None, :])
                   * binom.pmf(np.asarray(k_b)[:, None], n, p_b[None, :]), axis=1)
    return float(np.sum(np.log(like)))
