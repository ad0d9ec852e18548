"""Full three-level (g, e, r) dynamics for small arrays via exact propagation.

Basis ordering is little-endian in the site index: basis state k has digit
(k // 3**i) % 3 for site i, with 0 = g, 1 = e, 2 = r.  Clock pulses are ideal
instantaneous rotations in the {g, e} subspace; the Rydberg drive is applied
with linear ramps of Omega_r and Delta, discretized in fixed time steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

import numpy as np
import scipy.sparse as sp

from .geometry import ArrayGeometry, distance_matrix
from .potentials import DressingParams
from .weak_dressing import quadratic_form, quadrature_minimum

N_CAP = 9


class AtomNumberError(ValueError):
    pass


@dataclass
class QuantumState:
    """Complex amplitudes over the 3^N product basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        n = int(round(np.log(amp.size) / np.log(3.0)))
        if 3 ** n != amp.size:
            raise ValueError("amplitude vector length must be a power of 3")
        if abs(np.linalg.norm(amp) - 1.0) > 1e-9:
            raise ValueError("state must be normalized to 1e-9")
        self.amplitudes = amp
        self._n = n

    @property
    def n_atoms(self):
        return self._n

    @classmethod
    def ground(cls, n_atoms):
        amp = np.zeros(3 ** n_atoms, dtype=complex)
        amp[0] = 1.0
        return cls(amp)


@dataclass(frozen=True)
class RampSchedule:
    """Linear switch-on/off ramps for the Rydberg drive.

    During the up-ramp Omega_r goes 0 -> max and Delta goes delta_high ->
    delta over ``ramp_duration``; the down-ramp is the mirror image.  The
    clock drive is piecewise constant and off during dressing.
    """

    ramp_duration: float = 225e-9
    step: float = 6.5e-9
    delta_high: float = None  # rad/s at the start of the up-ramp; default 3x plateau

    def n_ramp_steps(self):
        if self.ramp_duration == 0:
            return 0
        return max(1, int(round(self.ramp_duration / self.step)))

    def values(self, p: DressingParams, t, direction):
        """(omega_r, delta) at local ramp time t; direction is 'up' or 'down'."""
        x = np.clip(t / self.ramp_duration, 0.0, 1.0)
        if direction == "down":
            x = 1.0 - x
        d_high = self.delta_high if self.delta_high is not None else 3.0 * p.delta
        return x * p.omega_r, d_high + x * (p.delta - d_high)


@dataclass(frozen=True)
class ClockPulse:
    angle: float
    phase: float = 0.0


@dataclass(frozen=True)
class DressingPulse:
    duration: float  # plateau time; ramps are added around it


@dataclass(frozen=True)
class PulseSequence:
    segments: tuple

    def __post_init__(self):
        for seg in self.segments:
            if isinstance(seg, DressingPulse) and seg.duration < 0:
                raise ValueError("segment durations must be nonnegative")

    @classmethod
    def spin_echo(cls, t_int):
        """pi/2 -- dressing t_int/2 -- echo pi -- dressing t_int/2."""
        if t_int < 0:
            raise ValueError("t_int must be nonnegative")
        return cls((
            ClockPulse(np.pi / 2, 0.0),
            DressingPulse(t_int / 2),
            ClockPulse(np.pi, 0.0),
            DressingPulse(t_int / 2),
        ))


@lru_cache(maxsize=16)
def _digit_table(n_atoms):
    dim = 3 ** n_atoms
    k = np.arange(dim)
    return np.stack([(k // 3 ** i) % 3 for i in range(n_atoms)], axis=1)


@lru_cache(maxsize=8)
def _qubit_projection(n_atoms):
    """Indices of r-free basis states and their 2^N destination indices."""
    digits = _digit_table(n_atoms)
    keep = np.all(digits != 2, axis=1)
    src = np.nonzero(keep)[0]
    dest = (digits[src] * (2 ** np.arange(n_atoms))[None, :]).sum(axis=1)
    return src, dest


def _site_isometries(r_dist):
    """(G, N) array of the site permutations that keep every pair distance.

    Found by backtracking, one site at a time; distances match to rounding
    (relative 1e-12).  The identity comes first.
    """
    n = len(r_dist)
    same = np.isclose(r_dist[:, :, None, None], r_dist[None, None],
                      rtol=1e-12, atol=0.0)  # same[i, j, a, b]: r_ij == r_ab
    found = []

    def extend(perm):
        i = len(perm)
        if i == n:
            found.append(perm)
            return
        for a in range(n):
            if a not in perm and all(same[i, j, a, b] for j, b in enumerate(perm)):
                extend(perm + [a])

    extend([])
    return np.array(found)


class _BlockGroup:
    """Every active-subset block of one size k, stacked.

    ``idx[j, b]`` is the 3^N basis index of state b of block j, where bit a
    of b puts the block's a-th active site in |r> (else |e>).  Blocks whose
    active sites map onto each other under a site isometry have the same
    Hamiltonian once their sites are listed in corresponding order, so only
    one representative per orbit is diagonalized: block j uses
    representative ``rep_of[j]``.  ``n_r[b]`` is shared by all blocks,
    ``v_int[i, b]`` is representative i's sum of 1/r^6 over its |r> pairs,
    and ``hop`` is the sum of sigma_x over the k active sites.
    """

    def __init__(self, subsets, r_dist, isometries):
        m, k = subsets.shape
        position = np.full(2 ** len(r_dist), -1)
        position[(1 << subsets).sum(axis=1)] = np.arange(m)
        image = position[(1 << isometries[:, subsets]).sum(axis=2)]  # (G, m)
        g_best = np.argmin(image, axis=0)
        rep = image[g_best, np.arange(m)]
        # block j's sites, listed as the preimages of its representative's
        inverse = np.argsort(isometries, axis=1)
        sites = inverse[g_best[:, None], subsets[rep]]
        reps, self.rep_of = np.unique(rep, return_inverse=True)

        bits = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1  # 1 = |r>
        self.idx = ((1 + bits) @ (3 ** sites).T).T
        self.n_r = bits.sum(axis=1).astype(float)
        self.v_int = np.zeros((reps.size, 2 ** k))
        for a in range(k):
            for c in range(a + 1, k):
                both = (bits[:, a] == 1) & (bits[:, c] == 1)
                self.v_int[:, both] += (
                    1.0 / r_dist[subsets[reps, a], subsets[reps, c]] ** 6)[:, None]
        self.hop = np.zeros((2 ** k, 2 ** k))
        for a in range(k):
            self.hop[np.arange(2 ** k), np.arange(2 ** k) ^ (1 << a)] = 1.0

    def hamiltonians(self, omega_r, delta, c6):
        """(reps, 2^k, 2^k) stack of the representatives' real symmetric H."""
        m, dim = self.v_int.shape
        h = np.broadcast_to(0.5 * omega_r * self.hop, (m, dim, dim)).copy()
        h.reshape(m, dim * dim)[:, ::dim + 1] = delta * self.n_r + c6 * self.v_int
        return h


def _real_matmul(v, z):
    """v @ z for real v and complex z, as one real product on z's float view."""
    z = np.ascontiguousarray(z)
    return (v @ z.view(np.float64)).view(complex)


class HamiltonianTerms:
    """Geometry-fixed building blocks of H3 / hbar.

    H(t) = omega_r * T_er + delta * T_rr + c6 * T_int + omega_c * T_ge
    with T_er, T_ge carrying the 1/2 drive prefactors.  With the clock drive
    off, atoms in |g> are frozen, so H is block diagonal over subsets S of
    non-ground ("active") atoms, each block an {e, r} spin problem of
    dimension 2^|S|.  The blocks are kept stacked by size (``groups``, one
    per k = 0..N), so every propagator below is one batched LAPACK or BLAS
    call per block size.
    """

    def __init__(self, g: ArrayGeometry):
        n = g.n_atoms
        if n > N_CAP:
            mem_gb = (3 ** n) ** 2 * 16 / 1e9
            raise AtomNumberError(
                f"N={n} exceeds the exact-diagonalization cap of {N_CAP} "
                f"(a dense 3^{n} operator alone would need ~{mem_gb:.1f} GB)")
        self.n_atoms = n
        self.r_dist = distance_matrix(g)
        isometries = _site_isometries(self.r_dist)
        self.groups = [
            _BlockGroup(np.array(list(combinations(range(n), k)),
                                 dtype=int).reshape(comb(n, k), k),
                        self.r_dist, isometries)
            for k in range(n + 1)]

    def assemble(self, omega_r, delta, omega_c, c6):
        """Full sparse 3^N Hamiltonian; the reference for the block path."""
        n = self.n_atoms
        dim = 3 ** n
        digits = _digit_table(n)
        inv_r6 = np.zeros(dim)
        for i in range(n):
            for j in range(i + 1, n):
                both_r = (digits[:, i] == 2) & (digits[:, j] == 2)
                inv_r6[both_r] += 1.0 / self.r_dist[i, j] ** 6

        def hop(lo, hi):
            rows = np.concatenate([np.nonzero(digits[:, i] == lo)[0] + (hi - lo) * 3 ** i
                                   for i in range(n)])
            cols = np.concatenate([np.nonzero(digits[:, i] == lo)[0] for i in range(n)])
            m = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))
            return 0.5 * (m + m.T)

        return (omega_r * hop(1, 2) + delta * sp.diags((digits == 2).sum(axis=1) * 1.0)
                + c6 * sp.diags(inv_r6) + omega_c * hop(0, 1)).tocsr()

    def plateau_basis(self, omega_r, delta, c6):
        """Per-group (eigenvalues, real eigenvectors) of the clock-off blocks."""
        out = []
        for grp in self.groups:
            w, v = np.linalg.eigh(grp.hamiltonians(omega_r, delta, c6))
            out.append((w[grp.rep_of], v[grp.rep_of]))
        return out

    def ramp_unitaries(self, p, schedule, direction):
        """Per-group ramp propagators, built one CF4 half-step at a time.

        Each step applies the fourth-order commutator-free Magnus scheme (two
        exponentials built from the drive values at the Gauss nodes), each
        exponential one batched ``eigh`` per block size.  The steps are folded
        into the running product rather than stored.
        """
        n_steps = schedule.n_ramp_steps()
        dt = schedule.ramp_duration / n_steps
        us = [np.broadcast_to(np.eye(grp.n_r.size, dtype=complex),
                              grp.v_int.shape + grp.n_r.shape).copy()
              for grp in self.groups]  # one per orbit representative
        for s in range(n_steps):
            for omega_r, delta in _cf4_values(p, schedule, direction, s, dt):
                for i, grp in enumerate(self.groups):
                    w, v = np.linalg.eigh(grp.hamiltonians(omega_r, delta, p.c6))
                    phase = np.exp(-0.5j * w * dt)[..., None]
                    us[i] = _real_matmul(
                        v, phase * _real_matmul(v.swapaxes(-1, -2), us[i]))
        return [u[grp.rep_of] for grp, u in zip(self.groups, us)]

    def apply(self, psi, unitaries, transpose=False):
        """Apply one (m, 2^k, 2^k) propagator stack per group to a 3^N state."""
        psi = np.asarray(psi, dtype=complex)
        out = np.empty(psi.shape, dtype=complex)
        for grp, u in zip(self.groups, unitaries):
            if transpose:
                u = u.swapaxes(-1, -2)
            out[grp.idx] = (u @ psi[grp.idx][..., None])[..., 0]
        return out

    def apply_plateau(self, psi, basis, duration):
        """exp(-i H duration) psi from the groups' eigenbases (``plateau_basis``)."""
        psi = np.asarray(psi, dtype=complex)
        out = np.empty(psi.shape, dtype=complex)
        for grp, (w, v) in zip(self.groups, basis):
            sub = _real_matmul(v.swapaxes(-1, -2), psi[grp.idx][..., None])
            out[grp.idx] = _real_matmul(v, np.exp(-1j * w * duration)[..., None]
                                        * sub)[..., 0]
        return out

    def propagate_clock_off(self, psi, omega_r, delta, c6, duration):
        """Exact constant-Hamiltonian evolution with the clock drive off.

        Diagonalizes each active-subset block (max dimension 2^N), so the cost
        is independent of the duration -- this is what makes millisecond
        plateaus tractable at N = 9.
        """
        return self.apply_plateau(psi, self.plateau_basis(omega_r, delta, c6),
                                  duration)

    def propagate_clock_off_ramp(self, psi, p, schedule, direction):
        """Ramp evolution on the same active-subset blocks (``ramp_unitaries``)."""
        return self.apply(psi, self.ramp_unitaries(p, schedule, direction))


def clock_rotation(state: QuantumState, angle, phase=0.0) -> QuantumState:
    """Ideal instantaneous global rotation in the {g, e} subspace."""
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    u = np.eye(3, dtype=complex)
    u[0, 0] = c
    u[1, 1] = c
    u[0, 1] = -1j * np.exp(-1j * phase) * s
    u[1, 0] = -1j * np.exp(1j * phase) * s
    n = state.n_atoms
    psi = state.amplitudes
    for i in range(n):
        psi = psi.reshape(3 ** (n - 1 - i), 3, 3 ** i)
        psi = np.einsum("ab,xby->xay", u, psi).reshape(-1)
    return QuantumState(psi)


def project_qubit(state: QuantumState):
    """Drop the Rydberg level: (normalized 2^N amplitudes, removed population)."""
    src, dest = _qubit_projection(state.n_atoms)
    q = np.zeros(2 ** state.n_atoms, dtype=complex)
    q[dest] = state.amplitudes[src]
    kept = np.linalg.norm(q)
    if kept == 0:
        raise ValueError("state has no support outside the Rydberg level")
    return q / kept, 1.0 - kept ** 2


def _apply_pauli(psi_q, n, site, axis):
    psi = psi_q.reshape(2 ** (n - 1 - site), 2, 2 ** site)
    out = np.empty_like(psi)
    if axis == "z":
        out[:, 0, :] = -psi[:, 0, :]
        out[:, 1, :] = psi[:, 1, :]
    elif axis == "x":
        out[:, 0, :] = psi[:, 1, :]
        out[:, 1, :] = psi[:, 0, :]
    elif axis == "y":
        out[:, 0, :] = -1j * psi[:, 1, :]
        out[:, 1, :] = 1j * psi[:, 0, :]
    return out.reshape(-1)


def _collective_paulis(psi_q, n):
    """Rows M_x psi, M_y psi, M_z psi with M_a the sum of sigma_a over sites."""
    m_psi = np.zeros((3, psi_q.size), dtype=complex)
    for k, axis in enumerate(("x", "y", "z")):
        for i in range(n):
            m_psi[k] += _apply_pauli(psi_q, n, i, axis)
    return m_psi


def qubit_bloch_vector(psi_q, n):
    """Collective spin expectation (Sx, Sy, Sz) of a 2^N qubit state."""
    return 0.5 * np.real(_collective_paulis(psi_q, n) @ psi_q.conj())


def _quadrature_covariance(psi_q, n):
    """Covariance of (M_z, M_perp), M_perp the in-plane part normal to the mean spin.

    The quadrature at angle alpha is M(alpha) = cos(alpha) M_z + sin(alpha)
    M_perp, so its variance is the quadratic form of this 2x2 matrix.
    """
    m_psi = _collective_paulis(psi_q, n)
    sx, sy, _ = np.real(m_psi @ psi_q.conj())
    gamma = np.arctan2(sy, sx)
    mx, my, mz = m_psi
    m = np.stack([mz, np.sin(gamma) * mx - np.cos(gamma) * my])
    mean = np.real(m @ psi_q.conj())
    return np.real(m.conj() @ m.T) - np.outer(mean, mean)


def quadrature_variance_ratio(psi_q, n, alpha):
    """Var[d_z]/sigma_QPN^2 at quadrature angle alpha for two identical ensembles.

    alpha = 0 measures along the mean-spin axis' z-quadrature; the in-plane
    component perpendicular to the mean spin completes the quadrature plane.
    """
    return quadratic_form(_quadrature_covariance(psi_q, n) / n, alpha)


@dataclass
class EDResult:
    contrast: float
    xi_w_sq: float
    alpha_opt: float
    var_ratio_min: float
    max_rydberg_population: float
    variance_ratio: object = None

    @property
    def xi_db(self):
        return 10.0 * np.log10(self.xi_w_sq)


_CF4_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = (0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0)


def _cf4_values(p, schedule, direction, step_index, dt):
    """Effective (omega_r, delta) pairs for the two CF4 exponentials.

    The Hamiltonian is linear in the drive values, so each weighted Gauss-node
    combination is itself a Hamiltonian at effective drive values, applied
    over dt/2.  The first returned pair weights the earlier node more.
    """
    c1, c2 = _CF4_NODES
    a1, a2 = _CF4_WEIGHTS
    om1, de1 = schedule.values(p, (step_index + c1) * dt, direction)
    om2, de2 = schedule.values(p, (step_index + c2) * dt, direction)
    return (
        (2.0 * (a1 * om1 + a2 * om2), 2.0 * (a1 * de1 + a2 * de2)),
        (2.0 * (a2 * om1 + a1 * om2), 2.0 * (a2 * de1 + a1 * de2)),
    )


class DressingEngine:
    """Clock-off propagation for one (geometry, DressingParams, RampSchedule).

    The ramps and the plateau Hamiltonian do not depend on the state, so each
    block size's up-ramp unitary and plateau eigenbasis are built once, on
    first use, and every dressing pulse after that is a few batched mat-vecs
    per block size.  The down ramp is the transpose of the up ramp: the block
    Hamiltonians are real symmetric, and the mirrored ramp visits the up
    ramp's CF4 exponentials in reverse order.  Reuse one engine across a
    t_int scan; ``run_sequence`` builds a fresh one per call.
    """

    def __init__(self, g: ArrayGeometry, p: DressingParams,
                 schedule: RampSchedule = None):
        self.terms = HamiltonianTerms(g)
        self.p = p
        self.schedule = schedule or RampSchedule()

    @cached_property
    def _up_ramp(self):
        return self.terms.ramp_unitaries(self.p, self.schedule, "up")

    @cached_property
    def _plateau_basis(self):
        return self.terms.plateau_basis(self.p.omega_r, self.p.delta, self.p.c6)

    def _dressing_pulse(self, state, plateau):
        """Up-ramp, plateau and down-ramp on the clock-off blocks.

        Returns the final state and the largest Rydberg population after any leg.
        """
        legs = ["plateau"] if plateau > 0 else []
        if self.schedule.ramp_duration > 0:
            legs = ["up", *legs, "down"]
        max_ryd = 0.0
        for leg in legs:
            if leg == "plateau":
                psi = self.terms.apply_plateau(state.amplitudes,
                                               self._plateau_basis, plateau)
            else:
                psi = self.terms.apply(state.amplitudes, self._up_ramp,
                                       transpose=leg == "down")
            state = QuantumState(psi / np.linalg.norm(psi))
            max_ryd = max(max_ryd, project_qubit(state)[1])
        return state, max_ryd

    def run(self, seq: PulseSequence) -> EDResult:
        """Execute the pulse sequence and extract squeezing observables.

        Clock pulses are ideal rotations; a zero-duration dressing segment is
        a no-op (the experiment simply would not pulse the Rydberg laser).
        The final quadrature rotation and pi/2 pulse are folded into the
        quadrature analysis of the post-interaction state; the Rydberg level
        is projected out (and its maximum population reported) before
        observables.  The optimal quadrature is closed form: the variance
        ratio is a quadratic form in (cos alpha, sin alpha), so its minimum
        ``var_ratio_min`` is the smaller eigenvalue of the (M_z, M_perp)
        covariance over N, and ``alpha_opt`` is the angle of that eigenvector.
        """
        return self._run(seq)

    def _run(self, seq):
        # the adiabaticity warning names the caller of run or run_sequence
        n = self.terms.n_atoms
        state = QuantumState.ground(n)
        max_ryd = 0.0
        for seg in seq.segments:
            if isinstance(seg, ClockPulse):
                state = clock_rotation(state, seg.angle, seg.phase)
            elif isinstance(seg, DressingPulse):
                if seg.duration > 0:
                    state, ryd = self._dressing_pulse(state, seg.duration)
                    max_ryd = max(max_ryd, ryd)
            else:
                raise TypeError(f"unknown sequence segment: {seg!r}")

        psi_q, residual_ryd = project_qubit(state)
        if residual_ryd > 0.05:
            warnings.warn(f"residual Rydberg population {residual_ryd:.3f} exceeds "
                          "5%: adiabaticity violated", stacklevel=3)
        s = qubit_bloch_vector(psi_q, n)
        c = 2.0 * np.linalg.norm(s) / n

        cov = _quadrature_covariance(psi_q, n) / n
        alpha_opt, var_min = quadrature_minimum(cov)

        def ratio(alpha):
            return quadratic_form(cov, alpha)

        return EDResult(
            contrast=float(c),
            xi_w_sq=float(var_min / c ** 2),
            alpha_opt=float(alpha_opt),
            var_ratio_min=float(var_min),
            max_rydberg_population=float(max_ryd),
            variance_ratio=ratio,
        )


def run_sequence(g: ArrayGeometry, p: DressingParams, seq: PulseSequence,
                 schedule: RampSchedule = None) -> EDResult:
    """``DressingEngine(g, p, schedule).run(seq)`` on a fresh engine."""
    return DressingEngine(g, p, schedule)._run(seq)


def dressed_pair_shift(p: DressingParams, r):
    """Static two-atom pair shift V(r) in h x Hz from exact dressed energies.

    Diagonalizes the symmetric {|ee>, (|er>+|re>)/sqrt(2), |rr>} block and the
    single-atom {|e>, |r>} block, returning E(ee) - 2 E(e).
    """
    if r <= 0:
        raise ValueError("separation must be positive")
    omega, delta, c6 = p.omega_r, p.delta, p.c6

    h1 = np.array([[0.0, omega / 2.0], [omega / 2.0, delta]])
    w1, v1 = np.linalg.eigh(h1)
    b1 = int(np.argmax(np.abs(v1[0, :])))
    if abs(v1[0, b1]) ** 2 < 0.5:
        warnings.warn("single-atom dressed states near degeneracy; "
                      "branch assignment unreliable", stacklevel=2)
    e_single = w1[b1]

    coup = omega / np.sqrt(2.0)
    h2 = np.array([
        [0.0, coup, 0.0],
        [coup, delta, coup],
        [0.0, coup, 2.0 * delta + c6 / r ** 6],
    ])
    w2, v2 = np.linalg.eigh(h2)
    b2 = int(np.argmax(np.abs(v2[0, :])))
    if abs(v2[0, b2]) ** 2 < 0.5:
        warnings.warn("pair dressed states near a crossing; "
                      "branch assignment unreliable", stacklevel=2)
    e_pair = w2[b2]

    return (e_pair - 2.0 * e_single) / (2.0 * np.pi)
