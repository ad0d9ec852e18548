"""Output checks.  Each returns a list of failure messages; empty means pass.

The checks take parsed outputs and reference values, so the self-test can
feed them corrupted outputs without running a workload.  Statistical checks
accept 4 standard deviations, or a band at least 4 standard deviations wide
as measured over many seeds: the benchmark runs on arbitrary seeds, and a
3-sigma band would fail on about 1 seed in 370 for no fault of the program.
"""

import numpy as np

from oracles import overlapping_avar

N_SIGMA = 4.0


def _fail(ok, message):
    return [] if ok else [message]


def ed_zero_time(xi_w_sq, contrast):
    """An echo with no dressing leaves the coherent state: xi^2 = C = 1."""
    return _fail(abs(xi_w_sq - 1.0) <= 1e-9 and abs(contrast - 1.0) <= 1e-9,
                 f"ED t_int = 0: xi^2 = {xi_w_sq!r}, C = {contrast!r} (want 1 to 1e-9)")


def _unit_interval(values):
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(v)) and np.all((v >= 0.0) & (v <= 1.0)))


def ed_scan_rows(rows, grid_us, best_n=None):
    """Contrasts and Rydberg populations in [0, 1]; with ``best_n``, that
    size's best xi is below 0 dB at an interior point of the t_int grid."""
    fails = _fail(_unit_interval([r["contrast"] for r in rows])
                  and _unit_interval([r["max_rydberg_pop"] for r in rows]),
                  "ED scan: contrast or Rydberg population outside [0, 1]")
    if best_n is not None:
        row = next((r for r in rows if r["N"] == best_n), None)
        if row is None:
            return fails + [f"ED scan: no row for N = {best_n}"]
        lo, hi = min(grid_us), max(grid_us)
        fails += _fail(row["xi_db"] < 0.0 and lo + 1e-9 < row["t_int_us"] < hi - 1e-9,
                       f"ED scan N = {best_n}: best xi {row['xi_db']:.3f} dB at "
                       f"{row['t_int_us']:.3f} us (want < 0 dB inside "
                       f"({lo:.3f}, {hi:.3f}) us)")
    return fails


def ed_evolve(out, xi_closed_form):
    """Weak-dressing agreement, populations and the Robertson bound.

    The variance ratio is a quadratic form in (cos a, sin a), so it is
    a + b cos 2a + c sin 2a exactly; the fit through the 181-point grid gives
    r(a + 90 deg) for the bound r(a) r(a + 90 deg) >= C^2.
    """
    c = out["contrast"]
    fails = _fail(_unit_interval([c, out["max_rydberg_population"]]),
                  "ed-evolve: contrast or Rydberg population outside [0, 1]")
    rel = out["xi_w_sq"] / xi_closed_form - 1.0
    fails += _fail(abs(rel) < 0.10,
                   f"ed-evolve N = {out['n_atoms']}: xi^2 {out['xi_w_sq']:.5f} vs "
                   f"closed form {xi_closed_form:.5f} ({100 * rel:+.2f}%, want < 10%)")
    a = np.radians(np.asarray(out["alpha_grid_deg"], dtype=float))
    r = np.asarray(out["var_ratio_grid"], dtype=float)
    basis = np.column_stack([np.ones_like(a), np.cos(2 * a), np.sin(2 * a)])
    coef = np.linalg.lstsq(basis, r, rcond=None)[0]
    resid = float(np.max(np.abs(basis @ coef - r)))
    r_perp = coef[0] - coef[1] * np.cos(2 * a) - coef[2] * np.sin(2 * a)
    worst = float(np.min(r * r_perp - c ** 2))
    fails += _fail(resid < 1e-9 and worst >= -1e-9,
                   f"ed-evolve: variance-ratio grid off a sinusoid by {resid:.2e} "
                   f"or Robertson bound violated by {-worst:.2e}")
    return fails


def loglik(got, want):
    ok = got is not None and abs(got - want) <= 1e-9 * abs(want)
    return _fail(ok, f"log_likelihood {got!r} vs scipy binomial oracle {want!r} "
                     "(want 1e-9 relative)")


def ellipse_fits(fits, phi_deg, statistical):
    """Each fit has finite positive errors; if ``statistical``, phi within
    N_SIGMA combined standard errors of the truth."""
    fails = []
    for label, fit in fits.items():
        err = fit["combined_err_deg"]
        if not (np.isfinite(fit["phi_deg"]) and np.isfinite(err) and err > 0):
            fails.append(f"ellipse-fit {label}: phi {fit['phi_deg']!r} +- {err!r}")
        elif statistical and abs(fit["phi_deg"] - phi_deg) > N_SIGMA * err:
            fails.append(f"ellipse-fit {label}: phi {fit['phi_deg']:.3f} deg is "
                         f"{abs(fit['phi_deg'] - phi_deg) / err:.1f} combined sigma "
                         f"from {phi_deg} deg (want <= {N_SIGMA:g})")
    return fails


def ellipse_adev_ratio(css_rows, sss_rows):
    """SSS beats CSS at the shortest averaging: 0 < ratio <= 3 dB.

    The paper's nominal gain is 2 +- 1 dB; over many seeds this ratio has mean
    1.2 dB and spread 0.3 dB at 1000 measurement shots, so the lower edge is
    0 dB (SSS no worse than CSS), a 4-sigma margin.
    """
    ratio = 20.0 * np.log10(css_rows[0]["adev"] / sss_rows[0]["adev"])
    return _fail(0.0 < ratio <= 3.0,
                 f"ellipse SSS/CSS short-time ratio {ratio:.2f} dB (want (0, 3] dB)")


def phase_estimates(fisher, phis, n_shots, phi_deg):
    """I(0) < I(phi) and every estimate within 4/sqrt(n I(phi)) of phi."""
    if any(v is None for v in fisher) or any(p is None for p in phis):
        return ["phase estimation: an operation failed"]
    i_zero, i_phi = fisher
    fails = _fail(i_zero < i_phi, f"Fisher information I(0) = {i_zero:.4g} "
                                  f"not below I({phi_deg:g} deg) = {i_phi:.4g}")
    limit = N_SIGMA / np.sqrt(n_shots * i_phi)
    for p in phis:
        fails += _fail(abs(p - np.radians(phi_deg)) <= limit,
                       f"estimate_phi {np.degrees(p):.3f} deg off {phi_deg} deg by "
                       f"more than {np.degrees(limit):.3f} deg")
    return fails


def soft_core_fit(v0_hz, rb_lat, v0_true, rb_true):
    return _fail(abs(v0_hz - v0_true) <= 400.0 and abs(rb_lat - rb_true) <= 0.2,
                 f"fit-potential V0 = {v0_hz:.1f} Hz, R_b = {rb_lat:.4f} a "
                 f"(want {v0_true:g} +- 400 Hz, {rb_true} +- 0.2 a)")


def weak_row_vs_state_vector(row, contrast, var_ratio):
    """A weak-dressing scan row against the brute-force spin echo."""
    xi_sq = 10.0 ** (row["xi_db"] / 10.0)
    ok = (abs(row["contrast"] - contrast) <= 1e-10
          and abs(row["var_ratio_min"] - var_ratio) <= 1e-10
          and abs(xi_sq - var_ratio / contrast ** 2) <= 1e-10 * xi_sq)
    return _fail(ok, f"weak scan N = {row['N']:g}: (C, ratio) = "
                     f"({row['contrast']!r}, {row['var_ratio_min']!r}) vs state "
                     f"vector ({contrast!r}, {var_ratio!r})")


def flat_vs_one_axis_twisting(row, xi_sq_ref):
    xi_sq = 10.0 ** (row["xi_db"] / 10.0)
    rel = xi_sq / xi_sq_ref - 1.0
    return _fail(abs(rel) < 0.01, f"flat-potential scan N = {row['N']:g}: xi^2 "
                                  f"{xi_sq:.6f} vs one-axis twisting {xi_sq_ref:.6f} "
                                  f"({100 * rel:+.3f}%, want < 1%)")


def allan_vs_window_sums(curve, y, label):
    """Every Allan point equals the direct window-sum variance to 1e-12."""
    worst = 0.0
    for row in curve:
        want = overlapping_avar(y, int(row["m"]))
        worst = max(worst, abs(row["adev"] ** 2 - want) / want)
    return _fail(bool(curve) and worst <= 1e-12,
                 f"allan {label}: worst relative deviation {worst:.2e} from the "
                 "window-sum Allan variance (want 1e-12)")


def css_sql(css_rows, sql):
    """White-noise amplitude at the shortest tau within N_SIGMA of the SQL.

    The shortest-tau point has the most degrees of freedom and an unbiased
    error bar; a fit over all tau comes out low by ~1 sigma at this length.
    """
    r = css_rows[0]
    amp, err = r["adev"] * np.sqrt(r["tau_s"]), r["err"] * np.sqrt(r["tau_s"])
    return _fail(abs(amp - sql) <= N_SIGMA * err,
                 f"CSS white-noise amplitude {amp:.4f} vs SQL {sql:.4f} "
                 f"({(amp - sql) / err:+.2f} sigma, want within {N_SIGMA:g})")


def white_noise_amplitude(rows):
    """Weighted fit of adev = a tau^(-1/2) in log space."""
    adev = np.array([r["adev"] for r in rows])
    tau = np.array([r["tau_s"] for r in rows])
    w = (adev / np.array([r["err"] for r in rows])) ** 2
    return float(np.exp(np.sum(w * (np.log(adev) + 0.5 * np.log(tau))) / np.sum(w)))


def clock_gain(css_rows, sss_rows, gain_db):
    ratio = 20.0 * np.log10(white_noise_amplitude(css_rows)
                            / white_noise_amplitude(sss_rows))
    return _fail(abs(ratio - gain_db) <= 0.3,
                 f"SSS/CSS Allan amplitude ratio {ratio:.3f} dB "
                 f"(want {gain_db} +- 0.3 dB)")
