import json

import numpy as np
import pytest

from rydclock import cli
from rydclock.potentials import FitError


def run(*argv):
    return cli.main(list(argv))


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _pairs_csv(tmp_path, rows=((1.0, 22585.0), (2.0, 21760.0), (3.0, 19095.0),
                               (4.0, 14396.0), (5.0, 9062.0))):
    path = tmp_path / "pairs.csv"
    lines = ["r_lat,freq_hz,err_hz"]
    lines += [f"{r},{f},100.0" for r, f in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_no_command_is_usage_error(capsys):
    assert run() == 2


def test_fit_potential_end_to_end(tmp_path):
    r = np.arange(1.0, 6.0)
    f = (46.4e3 / 2.0) / (1.0 + (r / 4.9) ** 6)
    csv_path = _pairs_csv(tmp_path, rows=list(zip(r, f)))
    out = tmp_path / "out"
    assert run("fit-potential", "--in", csv_path, "--out-dir", str(out)) == 0
    report = json.loads((out / "fit_potential.json").read_text())
    assert report["v0_hz"] == pytest.approx(46.4e3, rel=1e-6)
    assert report["rb_lat"] == pytest.approx(4.9, rel=1e-6)
    manifest = json.loads((out / "fit-potential.manifest.json").read_text())
    assert manifest["command"] == "fit-potential"
    assert len(manifest["config_sha256"]) == 64
    assert manifest["outputs"] == ["fit_potential.json"]
    assert "numpy" in manifest["versions"]


def test_fit_potential_bad_inputs(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run("fit-potential", "--out-dir", out) == 2  # missing input
    empty = tmp_path / "empty.csv"
    empty.write_text("r_lat,freq_hz,err_hz\n")
    assert run("fit-potential", "--in", str(empty), "--out-dir", out) == 2
    two = _pairs_csv(tmp_path, rows=((1.0, 100.0), (2.0, 50.0)))
    assert run("fit-potential", "--in", two, "--out-dir", out) == 2
    assert run("fit-potential", "--config", str(tmp_path / "nope.json"),
               "--out-dir", out) == 2


def test_scan_squeezing_weak(tmp_path):
    cfg = _write_config(tmp_path, "scan.json", {
        "potential": {"v0_hz": 46.4e3, "rb_lat": 4.9},
        "sizes": [[1, 2], [2, 2]],
        "t_grid_us": [1.0, 5.0, 10.0],
    })
    out = tmp_path / "out"
    assert run("scan-squeezing", "--config", cfg, "--out-dir", str(out)) == 0
    lines = (out / "scan_squeezing.csv").read_text().splitlines()
    assert lines[0].startswith("N,")
    assert len(lines) == 3


def test_scan_squeezing_ed_refuses_large_n(tmp_path):
    cfg = _write_config(tmp_path, "scan.json", {
        "dressing": {"omega_r_hz": 5.5e6, "delta_hz": 11e6, "c6_ghz_um6": 9.1},
        "sizes": [[4, 4]],
        "t_grid_us": [1.0],
    })
    assert run("scan-squeezing", "--config", cfg, "--engine", "ed",
               "--out-dir", str(tmp_path / "out")) == 2


def test_scan_squeezing_ed_checks_every_size_before_writing(tmp_path):
    cfg = _write_config(tmp_path, "scan.json", {
        "dressing": {"omega_r_hz": 5.5e6, "delta_hz": 11e6, "c6_ghz_um6": 9.1},
        "sizes": [[1, 2], [4, 4]],
        "t_grid_us": [1.0],
    })
    out = tmp_path / "out"
    assert run("scan-squeezing", "--config", cfg, "--engine", "ed",
               "--out-dir", str(out)) == 2
    assert not (out / "scan_squeezing_ed.csv").exists()


def test_ed_evolve_small_system(tmp_path):
    cfg = _write_config(tmp_path, "ed.json", {
        "geometry": {"rows": 1, "cols": 2},
        "dressing": {"omega_r_hz": 1.1e6, "delta_hz": 11e6, "c6_ghz_um6": 9.1},
        "t_int_us": 20.0,
    })
    out = tmp_path / "out"
    assert run("ed-evolve", "--config", cfg, "--out-dir", str(out)) == 0
    payload = json.loads((out / "ed_evolve.json").read_text())
    assert payload["n_atoms"] == 2
    assert 0.0 < payload["contrast"] <= 1.0
    assert len(payload["var_ratio_grid"]) == 181
    assert payload["xi_db"] == pytest.approx(
        10 * np.log10(payload["xi_w_sq"]))


def test_ed_evolve_refuses_large_n(tmp_path):
    cfg = _write_config(tmp_path, "ed.json", {
        "geometry": {"rows": 4, "cols": 4},
        "dressing": {"omega_r_hz": 5.5e6, "delta_hz": 11e6, "c6_ghz_um6": 9.1},
        "t_int_us": 1.0,
    })
    assert run("ed-evolve", "--config", cfg,
               "--out-dir", str(tmp_path / "out")) == 2


def _clock_config(tmp_path, **extra):
    payload = {"seed": 7, "n_atoms": 70, "n_shots": 64, "t_dark_ms": 101.0,
               "contrast": 0.95, **extra}
    return _write_config(tmp_path, "clock.json", payload)


def test_simulate_clock_outputs_and_replay(tmp_path):
    out = tmp_path / "out"
    cfg = _clock_config(tmp_path)
    assert run("simulate-clock", "--config", cfg, "--out-dir", str(out)) == 0
    record = (out / "record.csv").read_bytes()
    adev = (out / "adev.csv").read_bytes()
    manifest_path = out / "simulate-clock.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["seed"] == 7

    (out / "record.csv").unlink()
    (out / "adev.csv").unlink()
    assert run("--from-manifest", str(manifest_path)) == 0
    assert (out / "record.csv").read_bytes() == record
    assert (out / "adev.csv").read_bytes() == adev


def _replay_manifest(tmp_path, edit):
    """A simulate-clock manifest, edited by ``edit`` and written back."""
    out = tmp_path / "out"
    assert run("simulate-clock", "--config", _clock_config(tmp_path),
               "--out-dir", str(out)) == 0
    path = out / "simulate-clock.manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    (out / "record.csv").unlink()
    return str(path), out


def test_edited_manifest_params_are_refused(tmp_path):
    path, out = _replay_manifest(
        tmp_path, lambda m: m["params"].update(n_shots=65))
    assert run("--from-manifest", path) == 2
    assert not (out / "record.csv").exists()


def test_manifest_without_hash_is_refused(tmp_path):
    path, out = _replay_manifest(tmp_path, lambda m: m.pop("config_sha256"))
    assert run("--from-manifest", path) == 2
    assert not (out / "record.csv").exists()


def test_manifest_version_skew_warns_and_replays(tmp_path):
    path, out = _replay_manifest(
        tmp_path, lambda m: m["versions"].update(rydclock="0.0.0"))
    with pytest.warns(UserWarning, match="0.0.0"):
        assert run("--from-manifest", path) == 0
    assert (out / "record.csv").exists()


def test_simulate_clock_seed_changes_output(tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    cfg = _clock_config(tmp_path)
    assert run("simulate-clock", "--config", cfg, "--out-dir", str(out1)) == 0
    assert run("simulate-clock", "--config", cfg, "--out-dir", str(out2)) == 0
    assert run("simulate-clock", "--config", cfg, "--out-dir", str(out3),
               "--seed", "8") == 0
    assert (out1 / "record.csv").read_bytes() == (out2 / "record.csv").read_bytes()
    assert (out1 / "record.csv").read_bytes() != (out3 / "record.csv").read_bytes()


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    cfg = _clock_config(tmp_path)
    assert run("simulate-clock", "--config", cfg) == 0
    assert (tmp_path / "envout" / "record.csv").exists()


def test_allan_axes_and_short_input(tmp_path):
    out = tmp_path / "out"
    cfg = _clock_config(tmp_path)
    assert run("simulate-clock", "--config", cfg, "--out-dir", str(out)) == 0
    rec = str(out / "record.csv")
    assert run("allan", "--in", rec, "--axis", "count",
               "--out-dir", str(out / "count")) == 0
    lines = (out / "count" / "adev.csv").read_text().splitlines()
    assert lines[0] == "m,tau_s,adev,err"
    # constant record -> adev consistent with zero
    const = tmp_path / "const.csv"
    header = "shot_index,p_a,p_b,n_a,n_b,theta_mode,t_dark_s\n"
    const.write_text(header + "".join(
        f"{i},0.5,0.25,70,70,fixed,0.101\n" for i in range(32)))
    assert run("allan", "--in", str(const), "--axis", "count",
               "--out-dir", str(out / "const")) == 0
    adev = np.loadtxt(out / "const" / "adev.csv", delimiter=",", skiprows=1)
    assert np.all(adev[:, 2] == 0.0)
    # too few samples for an Allan curve
    short = tmp_path / "short.csv"
    short.write_text(header + "".join(
        f"{i},0.5,0.25,70,70,fixed,0.101\n" for i in range(7)))
    assert run("allan", "--in", str(short), "--axis", "count",
               "--out-dir", str(out / "short")) == 2


def test_sample_ellipse_both_ensembles(tmp_path):
    cfg = _write_config(tmp_path, "se.json", {
        "seed": 3, "n_atoms": 20, "n_shots": 50, "contrast": 0.9,
        "phi_deg": 60.0, "ensembles": ["css", "sss"], "zeta0": 0.8,
    })
    out = tmp_path / "out"
    assert run("sample-ellipse", "--config", cfg, "--out-dir", str(out)) == 0
    assert (out / "ellipse_css.csv").exists()
    assert (out / "ellipse_sss.csv").exists()


def test_ellipse_fit_end_to_end(tmp_path):
    cfg = _write_config(tmp_path, "se.json", {
        "seed": 3, "n_atoms": 20, "n_shots": 200, "contrast": 0.9,
        "phi_deg": 60.0,
    })
    data = tmp_path / "data"
    assert run("sample-ellipse", "--config", cfg, "--out-dir", str(data)) == 0
    cfg2 = _write_config(tmp_path, "se2.json", {
        "seed": 4, "n_atoms": 20, "n_shots": 200, "contrast": 0.9,
        "phi_deg": 60.0,
    })
    data2 = tmp_path / "data2"
    assert run("sample-ellipse", "--config", cfg2, "--out-dir", str(data2)) == 0
    fit_cfg = _write_config(tmp_path, "fit.json", {
        "seed": 0, "n_bootstrap": 3, "n_theta": 120, "phi_init_deg": 50.0,
    })
    out = tmp_path / "fit"
    assert run("ellipse-fit", "--config", fit_cfg,
               "--cal", str(data / "ellipse_css.csv"),
               "--meas", str(data2 / "ellipse_css.csv"),
               "--out-dir", str(out)) == 0
    report = json.loads((out / "ellipse_fit.json").read_text())
    assert report["phi_deg"] == pytest.approx(60.0, abs=8.0)
    assert report["combined_err_deg"] >= report["stat_err_deg"]
    assert report["bootstrap_flags"] == {}
    assert (out / "ellipse_adev.csv").exists()


def test_ellipse_fit_atom_number_mismatch_is_usage_error(tmp_path):
    paths = {}
    for label, n_atoms in (("cal", 20), ("meas", 70)):
        cfg = _write_config(tmp_path, f"{label}.json", {
            "seed": 3, "n_atoms": n_atoms, "n_shots": 40, "contrast": 0.9,
            "phi_deg": 60.0})
        assert run("sample-ellipse", "--config", cfg,
                   "--out-dir", str(tmp_path / label)) == 0
        paths[label] = str(tmp_path / label / "ellipse_css.csv")
    fit_cfg = _write_config(tmp_path, "fit.json", {
        "seed": 0, "n_bootstrap": 2, "n_theta": 24})
    assert run("ellipse-fit", "--config", fit_cfg, "--cal", paths["cal"],
               "--meas", paths["meas"], "--out-dir", str(tmp_path / "fit")) == 2


def test_fisher_command(tmp_path):
    cfg = _write_config(tmp_path, "fisher.json", {
        "n_atoms": 30, "contrast": 0.95, "phi_deg": [0.0, 30.0],
    })
    out = tmp_path / "out"
    assert run("fisher", "--config", cfg, "--out-dir", str(out)) == 0
    payload = json.loads((out / "fisher.json").read_text())
    infos = {r["phi_deg"]: r["fisher_information"] for r in payload["rows"]}
    assert infos[0.0] < infos[30.0]


def test_numerical_failures_map_to_exit_3(tmp_path, monkeypatch):
    def boom(params, out_dir):
        raise FitError("synthetic divergence")

    monkeypatch.setitem(cli._COMMANDS, "fit-potential", boom)
    assert run("fit-potential", "--out-dir", str(tmp_path)) == 3


def test_linalg_error_maps_to_exit_3(tmp_path, monkeypatch):
    def boom(params, out_dir):
        raise np.linalg.LinAlgError("synthetic singular matrix")

    monkeypatch.setitem(cli._COMMANDS, "fit-potential", boom)
    assert run("fit-potential", "--out-dir", str(tmp_path)) == 3


def test_missing_input_file_is_usage_error(tmp_path):
    assert run("allan", "--in", str(tmp_path / "missing.csv"),
               "--out-dir", str(tmp_path / "out")) == 2
    assert run("--from-manifest", str(tmp_path / "missing.json")) == 2


def test_unknown_manifest_command_is_usage_error(tmp_path):
    manifest = _write_config(tmp_path, "m.json", {
        "command": "nope", "params": {"out_dir": str(tmp_path / "out")}})
    assert run("--from-manifest", manifest) == 2


def test_non_object_manifest_is_usage_error(tmp_path, monkeypatch):
    def must_not_run(params, out_dir):
        raise AssertionError("a command ran from a malformed manifest")

    monkeypatch.setitem(cli._COMMANDS, "fisher", must_not_run)
    out = tmp_path / "out"
    params = [{"out_dir": str(out)}]
    manifests = [[1, 2], {"command": "fisher", "params": params,
                          "config_sha256": cli._params_sha256(params)}]
    for i, payload in enumerate(manifests):
        manifest = _write_config(tmp_path, f"m{i}.json", payload)
        assert run("--from-manifest", manifest) == 2
    assert not out.exists()


def test_scan_squeezing_unknown_engine_in_config_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, "scan.json", {
        "potential": {"v0_hz": 46.4e3, "rb_lat": 4.9},
        "sizes": [[1, 2]], "t_grid_us": [1.0], "engine": "foo"})
    out = tmp_path / "out"
    assert run("scan-squeezing", "--config", cfg, "--out-dir", str(out)) == 2
    for name in ("scan_squeezing.csv", "scan_squeezing_ed.csv",
                 "scan-squeezing.manifest.json"):
        assert not (out / name).exists()


def test_empty_clock_run_writes_no_record(tmp_path):
    out = tmp_path / "out"
    cfg = _clock_config(tmp_path, n_shots=0)
    assert run("simulate-clock", "--config", cfg, "--out-dir", str(out)) == 2
    assert not (out / "record.csv").exists()
