"""The three step families of a benchmark round: inputs, timed steps, checks.

Every workload runs all three families once per round, so every run reports
every end-to-end metric.  The workload's own family runs at ``FULL`` size and
carries most of the time; the other two run at ``SMOKE`` size, a small
configuration of the same commands.  Inputs are drawn from the workload seed
when a family is built; the program only ever sees the files and arguments
made here.
"""

import csv
import json
import os
import sys
import traceback

import numpy as np

import rydclock.cli as cli
import rydclock.ellipse as ellipse
import rydclock.exact_diag as exact_diag
import rydclock.geometry as geometry
import rydclock.potentials as potentials
import rydclock.records as records
import rydclock.sampler as sampler
import rydclock.weak_dressing as weak_dressing

import checks
import oracles

FULL, SMOKE = "full", "smoke"

PAPER_DRESSING = {"omega_r_hz": 5.5e6, "delta_hz": 11e6, "c6_ghz_um6": 9.1}
# beta = Omega_r / (2 Delta) = 0.05: the weak-dressing limit of criterion 5.
WEAK_DRESSING = {"omega_r_hz": 2 * 0.05 * 11e6, "delta_hz": 11e6, "c6_ghz_um6": 9.1}
N_ATOMS = 70
CONTRAST = 0.95
PHI_DEG = 30.0
T_DARK_MS = 101.0
CYCLE_TIME_S = 1.4
V0_HZ, RB_LAT = 46.4e3, 4.9


class Ops:
    """Counts the program operations a run attempts and those that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def cli(self, *argv):
        """``rydclock.cli.main(argv)``; True when it exits with code 0."""
        return self.call(cli.main, [str(a) for a in argv]) == 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if fn is cli.main and result != 0:
            print(f"rydclock {' '.join(args[0])}: exit code {result}",
                  file=sys.stderr)
            self.failed += 1
        return result


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """Rows of a CSV file as dicts of floats (strings where not numeric)."""
    def num(v):
        try:
            return float(v)
        except ValueError:
            return v
    with open(path, newline="") as fh:
        return [{k: num(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _column(rows, key):
    return np.array([r[key] for r in rows], dtype=float)


# ------------------------------------------------------------------- ED

class EdFamily:
    """``scan-squeezing --engine ed`` and ``ed-evolve``: the exact_diag layer."""

    name = "ed"
    # Each scan is (sizes, t_int grid in us); the first size of the first
    # scan is the one whose best xi the full-size check places on the grid.
    SIZES = {
        FULL: {"scans": (([[2, 2]], np.array([1.0, 2.0, 3.0])),
                         ([[2, 3]], np.array([2.0]))),
               "evolve": (2, 3)},
        SMOKE: {"scans": (([[1, 2]], np.array([1.0, 2.0])),), "evolve": (1, 3)},
    }

    def __init__(self, size, rng, in_dir):
        self.size = size
        s = self.SIZES[size]
        self.scans = []
        for k, (sizes, grid_us) in enumerate(s["scans"]):
            grid_us = grid_us + rng.uniform(-0.1, 0.1, grid_us.size)
            self.scans.append((sizes, grid_us, _write_json(
                os.path.join(in_dir, f"ed_scan{k}.json"), {
                    "engine": "ed", "dressing": PAPER_DRESSING, "sizes": sizes,
                    "t_grid_us": grid_us.tolist()})))
        self.evolve_shape = s["evolve"]
        rows, cols = self.evolve_shape
        self.evolve_cfg = _write_json(os.path.join(in_dir, "ed_evolve.json"), {
            "geometry": {"rows": rows, "cols": cols, "spacing": 2},
            "dressing": WEAK_DRESSING, "t_int_us": float(rng.uniform(80.0, 120.0))})

    def run(self, ops, out, timed):
        for k, (_, _, cfg) in enumerate(self.scans):
            with timed("ed_scan_s"):
                ops.cli("scan-squeezing", "--config", cfg,
                        "--out-dir", os.path.join(out, f"scan{k}"))
        with timed("ed_evolve_s"):
            ops.cli("ed-evolve", "--config", self.evolve_cfg, "--out-dir", out)

    def check(self, ops, out):
        fails = []
        dressing = potentials.DressingParams.from_hz(**PAPER_DRESSING)
        zero = ops.call(exact_diag.run_sequence, geometry.build_subarrays(1, 2, 2, 2, 1),
                        dressing, exact_diag.PulseSequence.spin_echo(0.0))
        if zero is not None:
            fails += checks.ed_zero_time(zero.xi_w_sq, zero.contrast)

        for k, (sizes, grid_us, _) in enumerate(self.scans):
            scan = read_csv(os.path.join(out, f"scan{k}", "scan_squeezing_ed.csv"))
            best_n = sizes[0][0] * sizes[0][1] if self.size == FULL and k == 0 else None
            fails += checks.ed_scan_rows(scan, grid_us, best_n=best_n)

        evolve = _read_json(os.path.join(out, "ed_evolve.json"))
        weak = potentials.DressingParams.from_hz(**WEAK_DRESSING)
        rows_, cols_ = self.evolve_shape
        g = geometry.build_subarrays(rows_, cols_, 2, 2, 1)
        closed = ops.call(weak_dressing.wineland, weak_dressing.phases_for_geometry(
            g, potentials.weak_dressing_potential(weak), evolve["t_int_us"] * 1e-6))
        if closed is not None:
            fails += checks.ed_evolve(evolve, closed.xi_w_sq)
        return fails


# ------------------------------------------------------------- ellipse

class EllipseFamily:
    """``sample-ellipse``, ``ellipse-fit`` and library phase estimation."""

    name = "ellipse"
    SIZES = {
        FULL: {"n_cal": 200, "n_meas": 1000, "n_bootstrap": 2, "n_theta": 72,
               "fits": ("css", "sss"), "phase_records": 1, "phase_shots": 10_000},
        SMOKE: {"n_cal": 200, "n_meas": 200, "n_bootstrap": 2, "n_theta": 36,
                "fits": ("css",), "phase_records": 1, "phase_shots": 1000},
    }
    LABELS = ("css", "sss")

    def __init__(self, size, rng, in_dir):
        self.size = size
        self.s = self.SIZES[size]
        data_seed = int(rng.integers(1, 2 ** 31))
        self.boot_seed = int(rng.integers(1, 2 ** 31))
        self.phase_seeds = [int(x) for x in rng.integers(1, 2 ** 31,
                                                         self.s["phase_records"])]
        self.sample_cfg = _write_json(os.path.join(in_dir, "sample_ellipse.json"), {
            "seed": data_seed, "n_atoms": N_ATOMS,
            "n_shots": self.s["n_cal"] + self.s["n_meas"], "contrast": CONTRAST,
            "phi_deg": PHI_DEG, "ensembles": list(self.LABELS),
            "zeta0": oracles.zeta_for_gain_db(N_ATOMS, 2.0)})
        self.noise = sampler.NoiseSpec(contrast=CONTRAST,
                                       differential_phase=np.radians(PHI_DEG),
                                       laser_phase_mode="random_uniform")
        self.css_model = ellipse.EllipseModel(phi=0.0, contrast=CONTRAST, y0=0.5,
                                              n_atoms=N_ATOMS)

    def _split(self, out, label):
        """Calibration (first n_cal shots) and measurement halves of a record."""
        with open(os.path.join(out, f"ellipse_{label}.csv")) as fh:
            lines = fh.readlines()
        n_cal = self.s["n_cal"]
        paths = []
        for part, body in (("cal", lines[1:1 + n_cal]), ("meas", lines[1 + n_cal:])):
            path = os.path.join(out, f"{label}_{part}.csv")
            with open(path, "w") as fh:
                fh.writelines([lines[0]] + body)
            paths.append(path)
        return paths

    def run(self, ops, out, timed):
        with timed("sample_ellipse_s"):
            ops.cli("sample-ellipse", "--config", self.sample_cfg, "--out-dir", out)
        fit_cfg = _write_json(os.path.join(out, "fit_config.json"), {
            "n_bootstrap": self.s["n_bootstrap"], "n_theta": self.s["n_theta"]})
        halves = {label: self._split(out, label) for label in self.s["fits"]}
        for label in self.s["fits"]:
            cal, meas = halves[label]
            with timed("ellipse_fit_s"):
                ops.cli("ellipse-fit", "--config", fit_cfg, "--cal", cal,
                        "--meas", meas, "--seed", self.boot_seed,
                        "--out-dir", os.path.join(out, f"fit_{label}"))
        self.fisher = []
        for phi in (0.0, PHI_DEG):
            with timed("phase_estimation_s"):
                self.fisher.append(ops.call(ellipse.fisher_information_css,
                                            self.css_model, np.radians(phi), n_theta=720))
        self.phis = []
        for seed in self.phase_seeds:
            with timed("phase_estimation_s"):
                rec = ops.call(sampler.sample_css, N_ATOMS, self.noise,
                               self.s["phase_shots"], seed)
                self.phis.append(ops.call(ellipse.estimate_phi, rec, self.css_model,
                                          n_theta=180, coarse=31))

    def check(self, ops, out):
        fails = []
        cal_path = os.path.join(out, "css_cal.csv")
        rec = records.MeasurementRecord.from_csv(cal_path, mode="ellipse")
        got = ops.call(ellipse.log_likelihood, rec,
                       self.css_model.replace(phi=np.radians(PHI_DEG)), n_theta=360)
        rows = read_csv(cal_path)
        want = oracles.binomial_loglik(
            np.rint(_column(rows, "p_a") * N_ATOMS), np.rint(_column(rows, "p_b") * N_ATOMS),
            N_ATOMS, np.radians(PHI_DEG), CONTRAST, 0.5, 360)
        fails += checks.loglik(got, want)

        fits = {label: _read_json(os.path.join(out, f"fit_{label}", "ellipse_fit.json"))
                for label in self.s["fits"]}
        adev = {label: read_csv(os.path.join(out, f"fit_{label}", "ellipse_adev.csv"))
                for label in self.s["fits"]}
        fails += checks.ellipse_fits(fits, PHI_DEG, statistical=self.size == FULL)
        if self.size == FULL:
            fails += checks.ellipse_adev_ratio(adev["css"], adev["sss"])
        fails += checks.phase_estimates(self.fisher, self.phis,
                                        self.s["phase_shots"], PHI_DEG)
        return fails


# ---------------------------------------------------------- analytics

def _flat_t_grid_us(n, v0_hz, n_points):
    """t_int grid within 5% of the one-axis-twisting optimum phase."""
    _, phi_opt = oracles.one_axis_twisting_xi_sq(n)
    return (phi_opt * np.linspace(0.95, 1.05, n_points) / (np.pi * v0_hz) * 1e6)


class AnalyticsFamily:
    """``fit-potential``, weak-dressing scans, ``simulate-clock`` and ``allan``."""

    name = "analytics"
    SIZES = {
        FULL: {"max_side": 8, "t_points": 8, "flat": [(5, 10), (10, 10)],
               "flat_points": 7, "clock_shots": 12288},
        SMOKE: {"max_side": 5, "t_points": 6, "flat": [(2, 5)],
                "flat_points": 5, "clock_shots": 1024},
    }
    LABELS = ("css", "sss")

    def __init__(self, size, rng, in_dir):
        self.size = size
        s = self.SIZES[size]
        r = np.arange(1.0, 8.001, 0.125)
        f_true = (V0_HZ / 2.0) / (1.0 + (r / RB_LAT) ** 6)
        f_obs = f_true * (1.0 + 0.01 * rng.standard_normal(r.size))
        self.pairs = os.path.join(in_dir, "pairs.csv")
        with open(self.pairs, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r_lat", "freq_hz", "err_hz"])
            w.writerows(zip(r.tolist(), f_obs.tolist(), (0.01 * f_true).tolist()))

        self.scan_sizes = [[k, k] for k in range(2, s["max_side"] + 1)]
        self.t_grid_us = np.sort(np.linspace(0.5, 6.0, s["t_points"])
                                 + rng.uniform(-0.05, 0.05, s["t_points"]))
        flat_v0 = float(rng.uniform(40e3, 50e3))
        self.flat_cfgs = []
        for rows, cols in s["flat"]:
            diameter_lat = np.hypot(2 * rows, 2 * cols)
            self.flat_cfgs.append(_write_json(
                os.path.join(in_dir, f"flat_{rows}x{cols}.json"), {
                    "engine": "weak", "sizes": [[rows, cols]],
                    "potential": {"v0_hz": flat_v0, "rb_lat": 1e3 * diameter_lat},
                    "t_grid_us": _flat_t_grid_us(rows * cols, flat_v0,
                                                 s["flat_points"]).tolist()}))
        base = {"seed": int(rng.integers(1, 2 ** 31)), "n_atoms": N_ATOMS,
                "n_shots": s["clock_shots"], "t_dark_ms": T_DARK_MS,
                "contrast": CONTRAST, "cycle_time_s": CYCLE_TIME_S}
        self.clock_cfgs = {
            "css": _write_json(os.path.join(in_dir, "clock_css.json"), base),
            "sss": _write_json(os.path.join(in_dir, "clock_sss.json"),
                               {**base, "zeta": oracles.zeta_for_gain_db(N_ATOMS, 2.30)})}
        self.allan_cfg = _write_json(os.path.join(in_dir, "allan.json"), {
            "contrast": CONTRAST, "cycle_time_s": CYCLE_TIME_S})

    def run(self, ops, out, timed):
        fit_dir = os.path.join(out, "fit")
        with timed("fit_potential_s"):
            ops.cli("fit-potential", "--in", self.pairs, "--out-dir", fit_dir)
        fit = _read_json(os.path.join(fit_dir, "fit_potential.json"))
        scan_cfg = _write_json(os.path.join(out, "weak_scan.json"), {
            "engine": "weak", "sizes": self.scan_sizes,
            "potential": {"v0_hz": fit["v0_hz"], "rb_lat": fit["rb_lat"]},
            "t_grid_us": self.t_grid_us.tolist()})
        with timed("weak_scan_s"):
            ops.cli("scan-squeezing", "--config", scan_cfg,
                    "--out-dir", os.path.join(out, "scan"))
        for k, cfg in enumerate(self.flat_cfgs):
            with timed("weak_scan_s"):
                ops.cli("scan-squeezing", "--config", cfg,
                        "--out-dir", os.path.join(out, f"flat{k}"))
        for label in self.LABELS:
            run_dir = os.path.join(out, f"clock_{label}")
            with timed("clock_s"):
                ops.cli("simulate-clock", "--config", self.clock_cfgs[label],
                        "--out-dir", run_dir)
            for axis in ("time", "count"):
                with timed("clock_s"):
                    ops.cli("allan", "--in", os.path.join(run_dir, "record.csv"),
                            "--axis", axis, "--config", self.allan_cfg,
                            "--out-dir", os.path.join(out, f"allan_{label}_{axis}"))

    def check(self, ops, out):
        fit = _read_json(os.path.join(out, "fit", "fit_potential.json"))
        fails = checks.soft_core_fit(fit["v0_hz"], fit["rb_lat"], V0_HZ, RB_LAT)

        row = read_csv(os.path.join(out, "scan", "scan_squeezing.csv"))[0]
        t_int = row["t_int_us"] * 1e-6
        sites = np.array([(2 * i, 2 * j) for j in range(2) for i in range(2)], float)
        r_lat = np.hypot(*(sites[:, None, :] - sites[None, :, :]).transpose(2, 0, 1))
        phi = np.pi * t_int * fit["v0_hz"] / (1.0 + (r_lat / fit["rb_lat"]) ** 6)
        np.fill_diagonal(phi, 0.0)
        fails += checks.weak_row_vs_state_vector(
            row, *oracles.spin_echo_observables(phi, np.radians(row["alpha_opt_deg"])))

        for k, (rows_, cols_) in enumerate(self.SIZES[self.size]["flat"]):
            flat = read_csv(os.path.join(out, f"flat{k}", "scan_squeezing.csv"))[0]
            fails += checks.flat_vs_one_axis_twisting(
                flat, oracles.one_axis_twisting_xi_sq(rows_ * cols_)[0])

        curves = {}
        for label in self.LABELS:
            rec = read_csv(os.path.join(out, f"clock_{label}", "record.csv"))
            dz = _column(rec, "p_a") - _column(rec, "p_b")
            t_dark = rec[0]["t_dark_s"]
            for axis, y in (("time", 2.0 * dz / (CONTRAST * t_dark)), ("count", dz)):
                curve = read_csv(os.path.join(out, f"allan_{label}_{axis}", "adev.csv"))
                fails += checks.allan_vs_window_sums(curve, y, f"{label}/{axis}")
                curves[label, axis] = curve
        if self.size == FULL:
            sql = (np.sqrt(2.0 / N_ATOMS) * np.sqrt(CYCLE_TIME_S)
                   / (CONTRAST * T_DARK_MS * 1e-3))
            fails += checks.css_sql(curves["css", "time"], sql)
            fails += checks.clock_gain(curves["css", "time"], curves["sss", "time"], 2.30)
        return fails


FAMILIES = (EdFamily, EllipseFamily, AnalyticsFamily)
WORKLOAD_FAMILY = {"ed_scan": "ed", "ellipse": "ellipse", "analytics_clock": "analytics"}


def build(workload, seed, in_dir):
    """The three families of ``workload``, their inputs written to ``in_dir``."""
    rng = np.random.default_rng(seed)
    focus = WORKLOAD_FAMILY[workload]
    return [cls(FULL if cls.name == focus else SMOKE, rng, in_dir) for cls in FAMILIES]
