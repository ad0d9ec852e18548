"""Fast self-test of the benchmark; runs no full workload.

    python3 perfbench/selftest.py

Shows that every output check passes on a good output and fails on a
corrupted one (a shifted phase, a scaled variance ratio, a perturbed Allan
point, ...), using small real program outputs where they are cheap, and that
BENCHMARK.json names exactly the workloads and metrics the command prints.
"""

import copy
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import chain  # noqa: E402
import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def test_workloads_match_the_command(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        self.assertEqual(set(names), set(chain.WORKLOAD_FAMILY))

    def test_metrics_and_units_match_what_is_printed(self):
        for key, printed in (("end_to_end", workload.END_TO_END),
                             ("per_layer", tracing.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in self.spec[key]}, printed)

    def test_end_to_end_values_cover_every_metric(self):
        step = {"ed_scan_s": [1.0, 0.5], "ed_evolve_s": [2.0], "ellipse_fit_s": [3.0],
                "phase_estimation_s": [4.0], "weak_scan_s": [5.0], "clock_s": [6.0],
                "sample_ellipse_s": [0.5], "fit_potential_s": [0.5]}
        rounds = [{name: [k * t for t in times] for name, times in step.items()}
                  for k in (1.0, 2.0, 3.0)]
        rounds[1]["ed_scan_s"] = [0.75, 1.0]
        rounds[2]["ed_scan_s"] = [3.0, 0.6]
        values = workload.end_to_end_metrics(rounds, 0.7, 100.0)
        self.assertEqual(set(values), set(workload.END_TO_END))
        self.assertAlmostEqual(values["ed_scan_s"], 1.6)  # median round of each region
        self.assertAlmostEqual(values["wall_s"], 43.6)

    def test_host_speed_correction(self):
        host = workload.HostSpeed.__new__(workload.HostSpeed)
        full = workload.HostSpeed.FULL_SPEED_S
        slow = {"compute": 2.0 * full["compute"], "faults": 4.0 * full["faults"]}
        self.assertAlmostEqual(host.correct(2.0, 0.0, full, full), 2.0)
        self.assertAlmostEqual(host.correct(2.0, 0.0, slow, slow), 1.0)
        self.assertAlmostEqual(host.correct(2.0, 1.0, slow, slow), 0.5)
        self.assertAlmostEqual(host.correct(2.0, 0.25, slow, slow), 2.0 / 2.5)
        self.assertAlmostEqual(host.correct(2.0, 0.0, full, slow), 2.0 / 1.5)

    def test_layer_values_cover_every_metric(self):
        tracer = tracing.Tracer()
        tracer.spans = [["cli.main", 0.0, 3.0, -1],
                        ["exact_diag.run_sequence", 0.5, 2.5, 0],
                        ["exact_diag.quadrature_variance_ratio", 1.0, 2.0, 1],
                        ["exact_diag.qubit_bloch_vector", 1.2, 1.5, 2]]
        values = tracing.layer_metrics(tracer, rounds=1)
        self.assertAlmostEqual(values["cli.main.self_s"], 1.0)
        self.assertAlmostEqual(values["exact_diag.observables_s"], 1.0)
        probe_keys = {"exact_diag.n4.ramp_s", "exact_diag.n4.plateau_s",
                      "exact_diag.n6.ramp_s", "exact_diag.n6.plateau_s",
                      "exact_diag.n6.base_s", "ellipse.log_likelihood.per_shot_us",
                      "ellipse.pmf_marginal_s", "weak_dressing.wineland.n100_s"}
        self.assertEqual(set(values) | probe_keys | {"process.cpu_s", "trace.overhead_s"},
                         set(tracing.PER_LAYER))


class ChecksOnProgramOutputsTest(unittest.TestCase):
    """Small real outputs through the CLI, then the same outputs corrupted."""

    @classmethod
    def setUpClass(cls):
        cls.work_root = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(cls.work_root, exist_ok=True)
        cls.dir = tempfile.mkdtemp(prefix="selftest-", dir=cls.work_root)
        cls.ops = chain.Ops()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)
        if not os.listdir(cls.work_root):
            os.rmdir(cls.work_root)

    def cli(self, *argv):
        self.assertTrue(self.ops.cli(*argv), argv)

    def config(self, name, payload):
        return chain._write_json(os.path.join(self.dir, name), payload)

    def test_ed_evolve(self):
        cfg = self.config("evolve.json", {
            "geometry": {"rows": 1, "cols": 3, "spacing": 2},
            "dressing": chain.WEAK_DRESSING, "t_int_us": 100.0})
        out = os.path.join(self.dir, "evolve")
        self.cli("ed-evolve", "--config", cfg, "--out-dir", out)
        good = chain._read_json(os.path.join(out, "ed_evolve.json"))
        weak = chain.potentials.DressingParams.from_hz(**chain.WEAK_DRESSING)
        closed = chain.weak_dressing.wineland(chain.weak_dressing.phases_for_geometry(
            chain.geometry.build_subarrays(1, 3, 2, 2, 1),
            chain.potentials.weak_dressing_potential(weak), 100e-6)).xi_w_sq
        self.assertEqual(checks.ed_evolve(good, closed), [])

        scaled = copy.deepcopy(good)
        scaled["var_ratio_grid"] = [0.5 * r for r in good["var_ratio_grid"]]
        self.assertTrue(checks.ed_evolve(scaled, closed))
        bumped = copy.deepcopy(good)
        bumped["var_ratio_grid"][40] += 1e-6
        self.assertTrue(checks.ed_evolve(bumped, closed))
        self.assertTrue(checks.ed_evolve(good, 1.2 * closed))
        self.assertTrue(checks.ed_evolve({**good, "max_rydberg_population": 1.2}, closed))

    def test_ed_scan_and_zero_time(self):
        rows = [{"N": 4.0, "t_int_us": 1.6, "xi_db": -2.7, "contrast": 0.9,
                 "max_rydberg_pop": 0.1}]
        grid = [0.5, 1.6, 2.8]
        self.assertEqual(checks.ed_scan_rows(rows, grid, best_n=4), [])
        self.assertTrue(checks.ed_scan_rows([{**rows[0], "t_int_us": 2.8}], grid, 4))
        self.assertTrue(checks.ed_scan_rows([{**rows[0], "xi_db": 0.3}], grid, 4))
        self.assertTrue(checks.ed_scan_rows([{**rows[0], "contrast": 1.01}], grid))
        self.assertTrue(checks.ed_scan_rows(rows, grid, best_n=6))

        res = chain.exact_diag.run_sequence(
            chain.geometry.build_subarrays(1, 2, 2, 2, 1),
            chain.potentials.DressingParams.from_hz(**chain.PAPER_DRESSING),
            chain.exact_diag.PulseSequence.spin_echo(0.0))
        self.assertEqual(checks.ed_zero_time(res.xi_w_sq, res.contrast), [])
        self.assertTrue(checks.ed_zero_time(res.xi_w_sq * (1 + 1e-8), res.contrast))

    def test_log_likelihood(self):
        cfg = self.config("sample.json", {"seed": 3, "n_atoms": 70, "n_shots": 50,
                                          "contrast": 0.95, "phi_deg": 30.0})
        out = os.path.join(self.dir, "sample")
        self.cli("sample-ellipse", "--config", cfg, "--out-dir", out)
        path = os.path.join(out, "ellipse_css.csv")
        rec = chain.records.MeasurementRecord.from_csv(path, mode="ellipse")
        model = chain.ellipse.EllipseModel(phi=np.radians(30.0), contrast=0.95,
                                           y0=0.5, n_atoms=70)
        got = chain.ellipse.log_likelihood(rec, model, n_theta=360)
        want = oracles.binomial_loglik(rec.k_a, rec.k_b, 70, np.radians(30.0),
                                       0.95, 0.5, 360)
        self.assertEqual(checks.loglik(got, want), [])
        self.assertTrue(checks.loglik(got * (1 + 1e-8), want))
        self.assertTrue(checks.loglik(None, want))

    def test_weak_scan_rows(self):
        cfg = self.config("scan.json", {
            "engine": "weak", "sizes": [[2, 2]], "t_grid_us": [1.0, 2.0, 3.0],
            "potential": {"v0_hz": 46.4e3, "rb_lat": 4.9}})
        out = os.path.join(self.dir, "scan")
        self.cli("scan-squeezing", "--config", cfg, "--out-dir", out)
        row = chain.read_csv(os.path.join(out, "scan_squeezing.csv"))[0]
        sites = np.array([(0, 0), (2, 0), (0, 2), (2, 2)], float)
        r = np.hypot(*(sites[:, None, :] - sites[None, :, :]).transpose(2, 0, 1))
        phi = np.pi * row["t_int_us"] * 1e-6 * 46.4e3 / (1.0 + (r / 4.9) ** 6)
        np.fill_diagonal(phi, 0.0)
        ref = oracles.spin_echo_observables(phi, np.radians(row["alpha_opt_deg"]))
        self.assertEqual(checks.weak_row_vs_state_vector(row, *ref), [])
        scaled = {**row, "var_ratio_min": row["var_ratio_min"] * (1 + 1e-8)}
        self.assertTrue(checks.weak_row_vs_state_vector(scaled, *ref))

    def test_flat_scan(self):
        v0 = 46.4e3
        cfg = self.config("flat.json", {
            "engine": "weak", "sizes": [[2, 5]],
            "potential": {"v0_hz": v0, "rb_lat": 1e3 * np.hypot(4, 10)},
            "t_grid_us": chain._flat_t_grid_us(10, v0, 9).tolist()})
        out = os.path.join(self.dir, "flat")
        self.cli("scan-squeezing", "--config", cfg, "--out-dir", out)
        row = chain.read_csv(os.path.join(out, "scan_squeezing.csv"))[0]
        ref = oracles.one_axis_twisting_xi_sq(10)[0]
        self.assertEqual(checks.flat_vs_one_axis_twisting(row, ref), [])
        self.assertTrue(checks.flat_vs_one_axis_twisting(
            {**row, "xi_db": row["xi_db"] + 0.1}, ref))

    def test_allan(self):
        cfg = self.config("clock.json", {"seed": 5, "n_atoms": 70, "n_shots": 256,
                                         "t_dark_ms": 101.0, "contrast": 0.95})
        out = os.path.join(self.dir, "clock")
        self.cli("simulate-clock", "--config", cfg, "--out-dir", out)
        self.cli("allan", "--in", os.path.join(out, "record.csv"), "--axis", "count",
                 "--out-dir", os.path.join(out, "allan"))
        rec = chain.read_csv(os.path.join(out, "record.csv"))
        dz = chain._column(rec, "p_a") - chain._column(rec, "p_b")
        curve = chain.read_csv(os.path.join(out, "allan", "adev.csv"))
        self.assertEqual(checks.allan_vs_window_sums(curve, dz, "count"), [])
        bumped = copy.deepcopy(curve)
        bumped[2]["adev"] *= 1 + 1e-10
        self.assertTrue(checks.allan_vs_window_sums(bumped, dz, "count"))


class StatisticalChecksTest(unittest.TestCase):
    def test_ellipse_fits(self):
        good = {"css": {"phi_deg": 30.4, "combined_err_deg": 0.5}}
        self.assertEqual(checks.ellipse_fits(good, 30.0, statistical=True), [])
        shifted = {"css": {"phi_deg": 33.0, "combined_err_deg": 0.5}}
        self.assertTrue(checks.ellipse_fits(shifted, 30.0, statistical=True))
        self.assertEqual(checks.ellipse_fits(shifted, 30.0, statistical=False), [])
        nan = {"css": {"phi_deg": 30.0, "combined_err_deg": float("nan")}}
        self.assertTrue(checks.ellipse_fits(nan, 30.0, statistical=False))

    def test_ellipse_adev_ratio(self):
        self.assertEqual(checks.ellipse_adev_ratio([{"adev": 1.2}], [{"adev": 1.0}]), [])
        self.assertTrue(checks.ellipse_adev_ratio([{"adev": 1.0}], [{"adev": 1.1}]))
        self.assertTrue(checks.ellipse_adev_ratio([{"adev": 1.5}], [{"adev": 1.0}]))

    def test_phase_estimates(self):
        n, i30 = 10_000, 21.0
        phis = [np.radians(30.0) + 0.003, np.radians(30.0) - 0.004]
        self.assertEqual(checks.phase_estimates([0.5, i30], phis, n, 30.0), [])
        self.assertTrue(checks.phase_estimates([0.5, i30], [np.radians(31.0)], n, 30.0))
        self.assertTrue(checks.phase_estimates([25.0, i30], phis, n, 30.0))

    def test_soft_core_fit(self):
        self.assertEqual(checks.soft_core_fit(46.5e3, 4.95, 46.4e3, 4.9), [])
        self.assertTrue(checks.soft_core_fit(46.9e3, 4.9, 46.4e3, 4.9))
        self.assertTrue(checks.soft_core_fit(46.4e3, 5.2, 46.4e3, 4.9))

    def test_sql_and_clock_gain(self):
        tau = 1.4 * 2.0 ** np.arange(8)

        def curve(amp):
            return [{"tau_s": t, "adev": amp / np.sqrt(t), "err": 0.01 * amp / np.sqrt(t)}
                    for t in tau]

        self.assertEqual(checks.css_sql(curve(1.99), 2.0), [])
        self.assertTrue(checks.css_sql(curve(2.1), 2.0))
        sss = 10.0 ** (-2.30 / 20.0)
        self.assertEqual(checks.clock_gain(curve(1.0), curve(sss), 2.30), [])
        self.assertTrue(checks.clock_gain(curve(1.0), curve(0.9 * sss), 2.30))


class OraclesTest(unittest.TestCase):
    def test_no_interaction_is_coherent(self):
        c, r = oracles.spin_echo_observables(np.zeros((3, 3)), 0.3)
        self.assertAlmostEqual(c, 1.0, places=12)
        self.assertAlmostEqual(r, 1.0, places=12)

    def test_window_sums_on_a_known_series(self):
        y = np.array([0.0, 1.0] * 8)  # alternating: window sums differ by 1 at m = 1
        self.assertAlmostEqual(oracles.overlapping_avar(y, 1), 0.5)
        self.assertAlmostEqual(oracles.overlapping_avar(y, 2), 0.0)

    def test_zeta_gives_the_gain(self):
        z = oracles.zeta_for_gain_db(70, 2.0)
        ratio = oracles.tempered_binomial_variance(70, 0.5, z) / (0.25 * 70)
        self.assertAlmostEqual(-10 * np.log10(ratio), 2.0, places=9)


if __name__ == "__main__":
    unittest.main()
