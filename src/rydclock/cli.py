"""Command-line entry point with a shared JSON config and run manifests.

Every command resolves its parameters (config file < flags), writes the
outputs into an output directory, and drops a manifest beside them recording
the resolved parameters, their hash, the seed and package versions.  Any
stochastic run can be replayed bit-exactly with ``--from-manifest``.

Exit codes: 0 success, 2 usage/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .ellipse import EllipseModel, calibrated_pipeline, fisher_information_css
from .exact_diag import N_CAP, DressingEngine, PulseSequence, run_sequence
from .geometry import build_subarrays
from .potentials import (DressingParams, FitError, PairOscillationData,
                         SoftCorePotential, fit_soft_core, fit_report_json)
from .records import MeasurementRecord
from .sampler import NoiseSpec, sample_css, sample_sss, sample_stability_run
from .stability import dz_from_record, freq_series, overlapping_adev
from .weak_dressing import scan_xi_vs_n, write_scan_csv

USAGE_ERROR, NUMERICAL_ERROR = 2, 3
OUTPUT_DIR_ENV = "RYDCLOCK_OUTPUT_DIR"


class UsageError(ValueError):
    pass


def _json_default(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_manifest(out_dir, command, params, outputs):
    import scipy

    params = json.loads(json.dumps(params, sort_keys=True, default=_json_default))
    blob = json.dumps(params, sort_keys=True).encode()
    manifest = {
        "command": command,
        "params": params,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": params.get("seed"),
        "versions": {"rydclock": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "outputs": outputs,
    }
    _write_json(os.path.join(out_dir, f"{command}.manifest.json"), manifest)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config: {exc}") from exc


def _require(params, key, caster=None, section=None):
    where = f"{section}.{key}" if section else key
    if key not in params or params[key] is None:
        raise UsageError(f"missing required config field: {where}")
    value = params[key]
    if caster is not None:
        try:
            return caster(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid value for {where}: {value!r}") from exc
    return value


def _dressing_from(params):
    d = _require(params, "dressing")
    return DressingParams.from_hz(
        omega_r_hz=_require(d, "omega_r_hz", float, "dressing"),
        delta_hz=_require(d, "delta_hz", float, "dressing"),
        c6_ghz_um6=_require(d, "c6_ghz_um6", float, "dressing"),
        omega_c_hz=float(d.get("omega_c_hz", 0.0)),
    )


# ---------------------------------------------------------------- commands

def cmd_fit_potential(params, out_dir):
    data = PairOscillationData.from_csv(
        _require(params, "input"),
        lattice_constant=float(params.get("lattice_constant_nm", 575.0)) * 1e-9)
    if len(data.r_lat) < 3:
        raise UsageError("need at least 3 distinct separations")
    pot, cov = fit_soft_core(data)
    out = os.path.join(out_dir, "fit_potential.json")
    _write_json(out, fit_report_json(pot, cov, data.lattice_constant))
    return [out]


def cmd_scan_squeezing(params, out_dir):
    engine = params.get("engine", "weak")
    sizes = [tuple(s) for s in _require(params, "sizes")]
    t_grid = [t * 1e-6 for t in _require(params, "t_grid_us")]
    spacing = tuple(params.get("spacing", (2, 2)))
    a_lat = float(params.get("lattice_constant_nm", 575.0)) * 1e-9

    if engine == "weak":
        if "potential" in params:
            p = params["potential"]
            pot = SoftCorePotential(v0=_require(p, "v0_hz", float, "potential"),
                                    r_b=_require(p, "rb_lat", float, "potential") * a_lat)
        else:
            from .potentials import weak_dressing_potential
            pot = weak_dressing_potential(_dressing_from(params))
        rows = scan_xi_vs_n(sizes, pot, t_grid, spacing=spacing,
                            lattice_constant=a_lat)
        out = os.path.join(out_dir, "scan_squeezing.csv")
        write_scan_csv(out, rows)
        return [out]

    if engine != "ed":
        raise UsageError("engine must be 'weak' or 'ed'")
    import csv as _csv

    dp = _dressing_from(params)
    for rows_, cols_ in sizes:
        if rows_ * cols_ > N_CAP:
            raise UsageError(
                f"exact diagonalization supports at most {N_CAP} atoms; "
                f"requested N={rows_ * cols_}")
    out = os.path.join(out_dir, "scan_squeezing_ed.csv")
    with open(out, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["N", "t_int_us", "alpha_opt_deg", "contrast",
                    "var_ratio_min", "xi_db", "max_rydberg_pop"])
        for rows_, cols_ in sizes:
            n = rows_ * cols_
            engine = DressingEngine(build_subarrays(
                rows_, cols_, spacing[0], spacing[1], 1, lattice_constant=a_lat), dp)
            best = None
            for t_int in t_grid:
                res = engine.run(PulseSequence.spin_echo(t_int))
                if best is None or res.xi_w_sq < best[1].xi_w_sq:
                    best = (t_int, res)
            t_opt, res = best
            w.writerow([n, t_opt * 1e6, np.degrees(res.alpha_opt),
                        res.contrast, res.var_ratio_min,
                        10.0 * np.log10(res.xi_w_sq), res.max_rydberg_population])
    return [out]


def cmd_ed_evolve(params, out_dir):
    g_params = _require(params, "geometry")
    rows_ = _require(g_params, "rows", int, "geometry")
    cols_ = _require(g_params, "cols", int, "geometry")
    n = rows_ * cols_
    if n > N_CAP:
        raise UsageError(f"exact diagonalization supports at most {N_CAP} "
                         f"atoms; requested N={n}")
    a_lat = float(params.get("lattice_constant_nm", 575.0)) * 1e-9
    g = build_subarrays(rows_, cols_, int(g_params.get("spacing", 2)),
                        int(g_params.get("spacing", 2)), 1,
                        lattice_constant=a_lat)
    dp = _dressing_from(params)
    t_int = _require(params, "t_int_us", float) * 1e-6
    res = run_sequence(g, dp, PulseSequence.spin_echo(t_int))
    alpha_grid = np.linspace(0.0, 180.0, 181, endpoint=False)
    out = os.path.join(out_dir, "ed_evolve.json")
    _write_json(out, {
        "n_atoms": n,
        "t_int_us": t_int * 1e6,
        "contrast": res.contrast,
        "xi_w_sq": res.xi_w_sq,
        "xi_db": 10.0 * np.log10(res.xi_w_sq),
        "alpha_opt_deg": float(np.degrees(res.alpha_opt)),
        "var_ratio_min": res.var_ratio_min,
        "max_rydberg_population": res.max_rydberg_population,
        "alpha_grid_deg": alpha_grid,
        "var_ratio_grid": [res.variance_ratio(np.radians(a)) for a in alpha_grid],
    })
    return [out]


def _noise_from(params):
    return NoiseSpec(
        contrast=float(params.get("contrast", 1.0)),
        differential_phase=np.radians(float(params.get("phi_deg", 0.0))),
        laser_phase_mode=params.get("laser_phase_mode", "fixed"),
        sigma_theta=float(params.get("sigma_theta", 0.0)),
        theta0=np.radians(float(params.get("theta0_deg", 90.0))),
        y_a=float(params.get("y_a", 0.0)),
        y_b=float(params.get("y_b", 0.0)),
    )


def cmd_simulate_clock(params, out_dir):
    seed = _require(params, "seed", int)
    noise = _noise_from(params)
    record = sample_stability_run(
        n_atoms=_require(params, "n_atoms", int),
        noise=noise,
        n_shots=_require(params, "n_shots", int),
        t_dark=_require(params, "t_dark_ms", float) * 1e-3,
        seed=seed,
        servo=params.get("servo", "integrator"),
        gain=float(params.get("gain", 0.2)),
        freq_offset_hz=float(params.get("freq_offset_hz", 0.0)),
        diff_freq_hz=float(params.get("diff_freq_hz", 0.0)),
        zeta=params.get("zeta"),
        cycle_time=float(params.get("cycle_time_s", 1.4)),
    )
    series = freq_series(dz_from_record(record), noise.contrast,
                         record.t_dark, record.cycle_time)
    curve = overlapping_adev(series, axis="time")
    rec_path = os.path.join(out_dir, "record.csv")
    record.to_csv(rec_path)
    adev_path = os.path.join(out_dir, "adev.csv")
    curve.to_csv(adev_path)
    return [rec_path, adev_path]


def cmd_sample_ellipse(params, out_dir):
    seed = _require(params, "seed", int)
    n_atoms = _require(params, "n_atoms", int)
    n_shots = _require(params, "n_shots", int)
    noise = _noise_from({**params, "laser_phase_mode": "random_uniform"})
    outputs = []
    for label in params.get("ensembles", ["css"]):
        if label == "css":
            rec = sample_css(n_atoms, noise, n_shots, seed)
        else:
            model = EllipseModel(
                phi=noise.differential_phase, contrast=noise.contrast,
                y0=0.5, zeta0=float(params.get("zeta0", 1.0)),
                zeta1=float(params.get("zeta1", 1.0)), n_atoms=n_atoms)
            rec = sample_sss(n_atoms, noise, model, n_shots, seed)
        path = os.path.join(out_dir, f"ellipse_{label}.csv")
        rec.to_csv(path)
        outputs.append(path)
    return outputs


def cmd_allan(params, out_dir):
    record = MeasurementRecord.from_csv(_require(params, "input"))
    axis = params.get("axis", "time")
    dz = dz_from_record(record)
    if axis == "time":
        series = freq_series(dz, float(params.get("contrast", 1.0)),
                             record.t_dark or float(params.get("t_dark_ms", 1.0)) * 1e-3,
                             float(params.get("cycle_time_s", 1.4)))
        curve = overlapping_adev(series, axis="time")
    else:
        curve = overlapping_adev(dz, axis="count")
    out = os.path.join(out_dir, "adev.csv")
    curve.to_csv(out)
    return [out]


def cmd_ellipse_fit(params, out_dir):
    cal = MeasurementRecord.from_csv(_require(params, "cal"), mode="ellipse")
    meas = MeasurementRecord.from_csv(_require(params, "meas"), mode="ellipse")
    n_atoms = int(cal.n_a[0])
    init = EllipseModel(
        phi=np.radians(float(params.get("phi_init_deg", 45.0))),
        contrast=float(params.get("contrast_init", 0.9)),
        y0=0.5, zeta0=float(params.get("zeta_init", 1.0)),
        zeta1=float(params.get("zeta_init", 1.0)), n_atoms=n_atoms)
    result = calibrated_pipeline(
        cal, meas, init,
        n_bootstrap=int(params.get("n_bootstrap", 50)),
        seed=_require(params, "seed", int),
        n_theta=int(params.get("n_theta", 360)))
    out = os.path.join(out_dir, "ellipse_fit.json")
    _write_json(out, {
        "phi_deg": float(np.degrees(result.phi_hat)),
        "stat_err_deg": float(np.degrees(result.stat_err)),
        "calib_err_deg": float(np.degrees(result.calib_err)),
        "combined_err_deg": float(np.degrees(
            np.hypot(result.stat_err, result.calib_err))),
        "calibration": {
            "contrast": result.calibration.contrast,
            "y0": result.calibration.y0,
            "zeta0": result.calibration.zeta0,
            "zeta1": result.calibration.zeta1,
        },
    })
    adev_path = os.path.join(out_dir, "ellipse_adev.csv")
    result.adev.to_csv(adev_path)
    return [out, adev_path]


def cmd_fisher(params, out_dir):
    model = EllipseModel(
        phi=0.0, contrast=float(params.get("contrast", 0.95)),
        y0=float(params.get("y0", 0.5)), zeta0=1.0, zeta1=1.0,
        n_atoms=int(params.get("n_atoms", 70)))
    rows = []
    for phi_deg in params.get("phi_deg", [0.0, 30.0]):
        info = fisher_information_css(model, np.radians(float(phi_deg)))
        rows.append({"phi_deg": float(phi_deg), "fisher_information": info})
    out = os.path.join(out_dir, "fisher.json")
    _write_json(out, {"n_atoms": model.n_atoms, "contrast": model.contrast,
                      "y0": model.y0, "rows": rows})
    return [out]


_COMMANDS = {
    "fit-potential": cmd_fit_potential,
    "scan-squeezing": cmd_scan_squeezing,
    "ed-evolve": cmd_ed_evolve,
    "simulate-clock": cmd_simulate_clock,
    "sample-ellipse": cmd_sample_ellipse,
    "allan": cmd_allan,
    "ellipse-fit": cmd_ellipse_fit,
    "fisher": cmd_fisher,
}

_FLAG_KEYS = {
    "input": "--in", "cal": "--cal", "meas": "--meas", "axis": "--axis",
    "seed": "--seed", "engine": "--engine",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rydclock",
        description="Rydberg-dressed spin-squeezing simulator and analysis")
    parser.add_argument("--from-manifest", metavar="PATH",
                        help="replay a previous run from its manifest")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        p.add_argument("--in", dest="input", default=None)
        p.add_argument("--cal", default=None)
        p.add_argument("--meas", default=None)
        p.add_argument("--axis", default=None, choices=["time", "count"])
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--engine", default=None, choices=["weak", "ed"])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.from_manifest:
            with open(args.from_manifest) as fh:
                manifest = json.load(fh)
            if not isinstance(manifest, dict):
                raise UsageError("manifest: top level must be an object")
            command, params = manifest.get("command"), manifest.get("params")
            if command not in _COMMANDS:
                raise UsageError(f"manifest: unknown command {command!r}")
            if not isinstance(params, dict):
                raise UsageError("manifest: params must be an object")
            out_dir = params.get("out_dir") or "."
        else:
            if not args.command:
                parser.print_usage(sys.stderr)
                return USAGE_ERROR
            command = args.command
            params = _load_config(args.config)
            for key in ("input", "cal", "meas", "axis", "seed", "engine"):
                value = getattr(args, key)
                if value is not None:
                    params[key] = value
            out_dir = (args.out_dir or params.get("out_dir")
                       or os.environ.get(OUTPUT_DIR_ENV) or ".")
            params["out_dir"] = out_dir

        os.makedirs(out_dir, exist_ok=True)
        outputs = _COMMANDS[command](params, out_dir)
        _write_manifest(out_dir, command, params,
                        [os.path.basename(p) for p in outputs])
        return 0
    # LinAlgError subclasses ValueError, so it must be caught first.
    except (FitError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError) as exc:  # UsageError, AtomNumberError, I/O
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
