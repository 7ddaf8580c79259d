"""Tests for the command-line harness: config handling, artifacts,
reproducibility, and exit codes."""

import json

import numpy as np
import pytest

from chebspike import cli
from chebspike.measures import DiscreteMeasure, measure_to_dict
from chebspike.splines import (boundary_vector, integrate_from_spikes,
                               spline_from_dict, spline_to_dict)


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def demo_spline():
    mu = DiscreteMeasure([-0.5, 0.55], [6.0, -5.0])
    b = np.array([0.2, -0.1, 0.0, 0.0])
    return integrate_from_spikes(mu, b, 1)


class TestConfigErrors:
    def test_missing_config_file(self, capsys):
        code = cli.main(["recover-spikes", "--config", "/nonexistent.json"])
        assert code == cli.EXIT_CONFIG

    def test_no_mode(self):
        assert cli.main(["--seed", "1"]) == cli.EXIT_CONFIG

    def test_wrong_boundary_length(self, tmp_path):
        cfg = {
            "m": 8, "out_dir": str(tmp_path / "out"),
            "target": {"spline": spline_to_dict(demo_spline())},
            "boundary": [0.0, 0.0, 0.0],
        }
        code = cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG

    def test_missing_target(self, tmp_path):
        cfg = {"m": 8, "out_dir": str(tmp_path / "out")}
        code = cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("mode,cfg", [
        ("recover-spikes", {"m": 4, "target": {"random_measure": {"n_spikes": 1}}}),
        ("certificate", {"m": 4, "n_points": 2})])
    def test_no_room_for_a_separated_point(self, tmp_path, mode, cfg):
        # the arccos gap 1.1 * 5 pi / m exceeds pi at m = 4
        out = tmp_path / "out"
        code = cli.main([mode, "--config", write_cfg(
            tmp_path, "c.json", {**cfg, "out_dir": str(out)})])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_points_that_cannot_fit_raise_before_any_draw(self):
        # at m = 8 two points need an arccos gap of 1.1 * 5 pi / 8 = 2.16,
        # and the edge margins leave pi - 2.16 = 0.98 of room
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(cli.ConfigError, match="do not fit"):
            cli.random_separated_support(rng, 2, 8)
        assert rng.bit_generator.state == state
        # at m = 32 they fit
        assert cli.random_separated_support(rng, 2, 32).size == 2

    def test_no_random_spikes_need_no_room(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"m": 4, "out_dir": str(out),
               "target": {"random_measure": {"n_spikes": 0}}}
        assert cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        assert json.loads((out / "target.json").read_text())["support"] == []

    def test_sigma0_flag_on_recover_spikes(self, tmp_path):
        # recover-spikes reads 'sigma'; sigma0 would silently run noiseless
        x = DiscreteMeasure([0.2], [1.0])
        out = tmp_path / "out"
        cfg = {"m": 12, "seed": 0, "out_dir": str(out),
               "target": {"measure": measure_to_dict(x)}}
        code = cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "c.json", cfg), "--sigma0", "0.01"])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_sigma0_sweep_over_recover_spikes(self, tmp_path):
        x = DiscreteMeasure([0.2], [1.0])
        out = tmp_path / "out"
        base = {"mode": "recover-spikes", "m": 12,
                "target": {"measure": measure_to_dict(x)}}
        cfg = {"axis": "sigma0", "values": [0.001, 0.01], "base": base,
               "out_dir": str(out)}
        code = cli.main(["sweep", "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert not (out / "run_000").exists()

    @pytest.mark.parametrize("flag", ["--lambda", "--sigma0", "--eta"])
    def test_sweep_rejects_top_level_solver_flags(self, tmp_path, flag, capsys):
        # run_sweep reads only 'base'; a top-level value would be dropped
        out = tmp_path / "out"
        base = {"mode": "recover-spikes", "m": 12,
                "target": {"measure": measure_to_dict(DiscreteMeasure([0.2], [1.0]))}}
        cfg = {"axis": "m", "values": [12], "base": base, "out_dir": str(out)}
        code = cli.main(["sweep", "--config", write_cfg(tmp_path, "c.json", cfg),
                         flag, "0.5"])
        assert code == cli.EXIT_CONFIG
        assert "'base'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sweep_axis(self, tmp_path):
        cfg = {"axis": "nope", "values": [], "base": {},
               "out_dir": str(tmp_path / "out")}
        code = cli.main(["sweep", "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("points", [-3, 1, 2.5, True, "1024"])
    def test_bad_profile_points(self, tmp_path, points):
        out = tmp_path / "out"
        cfg = {"m": 8, "out_dir": str(out), "profile_points": points,
               "target": {"spline": spline_to_dict(demo_spline())}}
        code = cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["recover-spline", "recover-spikes"])
    @pytest.mark.parametrize("key, value", [("level_tol", 1e-3),
                                            ("sign_threshold", 0.5),
                                            ("interior_support", False)])
    def test_fixed_solver_fields(self, tmp_path, mode, key, value, capsys):
        # the thresholds are solver constants and the mode decides
        # interior_support: a recover-spline run with atoms at +-1 would
        # break the spline's boundary conditions
        out = tmp_path / "out"
        target = ({"spline": spline_to_dict(demo_spline())}
                  if mode == "recover-spline" else
                  {"measure": measure_to_dict(DiscreteMeasure([0.2], [1.0]))})
        cfg = {"m": 8, "out_dir": str(out), "target": target, key: value}
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, cfg", [
        ("rice-check", {"m": 16, "n_trials": 150.9}),
        ("rice-check", {"m": 16.5}),
        ("rice-check", {"m": 16, "d": True}),
        ("rice-check", {"m": 16, "grid_factor": 4.5}),
        ("rice-check", {"m": 8, "d": 8}),
        ("certificate", {"m": 12, "support": [0.1], "grid_size": 1.7}),
        ("certificate", {"m": 12, "support": [0.1], "grid_size": 119}),
        ("certificate", {"m": 12, "n_points": 2.5}),
        ("recover-spikes", {"m": 12.5, "target": {"measure": {
            "support": [0.2], "weights": [1.0]}}}),
        ("recover-spikes", {"m": 12, "prediction_trials": 1.5, "target": {
            "measure": {"support": [0.2], "weights": [1.0]}}}),
        ("recover-spikes", {"m": 12, "target": {
            "random_measure": {"n_spikes": 2.5}}}),
        ("recover-spikes", {"m": 8, "d": 8, "target": {"measure": {
            "support": [0.2], "weights": [1.0]}}}),
        ("recover-spline", {"m": 16, "d": 2, "target": {
            "random_spline": {"n_knots": 2.5}}}),
        ("recover-spline", {"m": 16, "d": 2.5, "target": {"random_spline": {}}}),
        ("recover-spline", {"m": 16, "d": -1, "target": {"random_spline": {}}}),
        ("recover-spline", {"m": 8.5, "target": {
            "spline": spline_to_dict(demo_spline())}}),
        ("recover-spline", {"m": "8", "target": {
            "spline": spline_to_dict(demo_spline())}}),
        ("recover-spline", {"m": None, "target": {
            "spline": spline_to_dict(demo_spline())}}),
    ])
    def test_bad_integer_fields(self, tmp_path, mode, cfg):
        # int() would truncate the fractional values, and the out-of-range
        # ones would fail deep inside the run; each must be a config error
        cfg = dict(cfg, out_dir=str(tmp_path / "out"))
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("mode", ["recover-spline", "recover-spikes"])
    @pytest.mark.parametrize("key, value", [
        ("sdp_tol", -1), ("sdp_tol", 0), ("sdp_tol", "1e-9"), ("sdp_tol", True),
        ("sdp_tol", None), ("sdp_max_iter", 2.5), ("sdp_max_iter", True),
        ("sdp_max_iter", 0), ("amplitude_floor", "x"), ("amplitude_floor", -1.0),
        ("amplitude_floor", False)])
    def test_bad_solver_fields(self, tmp_path, mode, key, value, capsys):
        # each used to end in a traceback (exit 1), or in a one-iteration
        # solve reported as a solver failure (sdp_max_iter true, exit 3)
        out = tmp_path / "out"
        target = ({"spline": spline_to_dict(demo_spline())}
                  if mode == "recover-spline" else
                  {"measure": measure_to_dict(DiscreteMeasure([0.2], [1.0]))})
        cfg = {"m": 8, "out_dir": str(out), "target": target, key: value}
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_fields_accepted(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"m": 8, "out_dir": str(out), "sdp_tol": 1e-8, "sdp_max_iter": 150.0,
               "amplitude_floor": None,
               "target": {"measure": measure_to_dict(DiscreteMeasure([0.2], [1.0]))}}
        code = cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_OK

    def test_one_point_rice_grid(self, tmp_path, capsys):
        # cheb_grid needs two points; the grid has grid_factor * m
        out = tmp_path / "out"
        cfg = {"m": 1, "grid_factor": 1, "n_trials": 100, "out_dir": str(out)}
        code = cli.main(["rice-check", "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert "grid_factor" in capsys.readouterr().err
        assert not out.exists()
        cfg["grid_factor"] = 2
        code = cli.main(["rice-check", "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("mode, key, value", [
        ("recover-spikes", "sigma", float("nan")), ("recover-spikes", "sigma", -1e-5),
        ("recover-spikes", "sigma", float("inf")), ("recover-spikes", "sigma", True),
        ("recover-spikes", "sigma", None), ("recover-spikes", "lambda", float("nan")),
        ("recover-spikes", "lambda", -1.0), ("recover-spikes", "lambda", 0.0),
        ("recover-spikes", "lambda", "0.5"), ("recover-spikes", "eta", float("inf")),
        ("recover-spikes", "eta", 0.0), ("recover-spline", "sigma0", float("nan")),
        ("recover-spline", "sigma0", -1e-3), ("recover-spline", "lambda", float("inf")),
        ("recover-spline", "alpha", -2.0), ("recover-spline", "alpha", float("nan")),
        ("recover-spline", "eta", -1.0), ("rice-check", "sigma", float("nan")),
        ("rice-check", "sigma", 0.0), ("rice-check", "eta", -1.0)])
    def test_bad_real_fields(self, tmp_path, mode, key, value, capsys):
        # NaN used to run quietly (a noiseless solve, or a rice-check that
        # passes at threshold NaN), and the other values ended in a
        # traceback or in a solver error
        out = tmp_path / "out"
        cfg = {"m": 8, "out_dir": str(out), key: value}
        if mode == "rice-check":
            cfg["n_trials"] = 100
        elif mode == "recover-spline":
            cfg["target"] = {"spline": spline_to_dict(demo_spline())}
        elif mode == "recover-spikes":
            cfg["target"] = {"measure": measure_to_dict(DiscreteMeasure([0.2], [1.0]))}
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, target, extra", [
        ("recover-spikes", {"measure": {"support": [0.2], "weights": [float("nan")]}}, {}),
        ("recover-spikes", {"measure": {"support": [1.5], "weights": [1.0]}}, {}),
        ("recover-spikes", {"random_measure": {"min_amplitude": float("nan")}}, {}),
        ("recover-spline", {"spline": {"degree": 0, "knots": [0.0],
                                       "pieces": [[0.0], [float("inf")]]}}, {}),
        ("recover-spline", {"random_spline": {"jump_scale": float("nan")}}, {"d": 1}),
        # m = 32, where two random knots fit, so the NaN boundary is what
        # is rejected
        ("recover-spline", {"random_spline": {}},
         {"m": 32, "d": 1, "boundary": [float("nan"), 0.0, 0.0, 0.0]})])
    def test_bad_target_data(self, tmp_path, mode, target, extra):
        # each used to end in a traceback (exit 1), or in a solver error
        # (exit 3) once NaN moments reached the conic solver
        out = tmp_path / "out"
        cfg = {"m": 8, "out_dir": str(out), "target": target, **extra}
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        {"m": 16, "support": [float("nan")]}, {"m": 16, "support": ["x"]},
        {"m": 16, "support": [[0.1]]}, {"m": 16, "support": [1.5]},
        {"m": 16, "support": []}, {"m": 16, "support": 0.1},
        {"m": 16, "support": [0.1, 0.11]}, {"m": 15, "support": [0.1]},
        {"m": 15}, {"m": 16, "support_file": [float("nan")]},
        {"m": 16, "support_file": {"support": [0.1]}}])
    def test_bad_certificate_support(self, tmp_path, cfg, capsys):
        # each used to end in a traceback (exit 1): NaN in the SVD, the
        # rest in the certificate build
        out = tmp_path / "out"
        if "support_file" in cfg:
            path = tmp_path / "support.json"
            path.write_text(json.dumps(cfg["support_file"]))
            cfg = dict(cfg, support_file=str(path))
        cfg = dict(cfg, out_dir=str(out))
        code = cli.main(["certificate", "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, cfg", [
        ("recover-spline", {"boundary": ["x", 0, 0, 0]}),
        ("recover-spline", {"target": {"spline": {"degree": None, "knots": [0.0],
                                                  "pieces": [[0.0], [1.0]]}}}),
        ("recover-spline", {"target": {"spline": {"degree": 0.5, "knots": [0.0],
                                                  "pieces": [[0.0], [1.0]]}}}),
        ("sweep", {"axis": "m", "values": ["x"]}),
        ("sweep", {"axis": "lambda", "values": [None]})])
    def test_bad_list_and_structure_fields(self, tmp_path, mode, cfg):
        # each used to end in a traceback (exit 1), or for degree 0.5 to run
        # a spline of degree 0
        out = tmp_path / "out"
        base = {"m": 8, "target": {"spline": spline_to_dict(demo_spline())}}
        cfg = dict(base, **cfg) if mode != "sweep" else dict(cfg, base=base)
        cfg["out_dir"] = str(out)
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("mode, key", [
        ("recover-spline", "sdp_tool"), ("recover-spikes", "sdp_tool"),
        ("recover-spikes", "profile_points"), ("recover-spline", "sigma"),
        ("rice-check", "n_trial"), ("certificate", "sigma"), ("sweep", "m"),
        ("sweep", "base.sdp_tool")])
    def test_unknown_keys(self, tmp_path, mode, key, capsys):
        # each mode used to ignore keys it does not read and run with its
        # defaults
        out = tmp_path / "out"
        spline = {"m": 8, "target": {"spline": spline_to_dict(demo_spline())}}
        cfg = {"recover-spline": spline,
               "recover-spikes": {"m": 8, "target": {"measure": measure_to_dict(
                   DiscreteMeasure([0.2], [1.0]))}},
               "rice-check": {"m": 8, "n_trials": 100},
               "certificate": {"m": 16, "support": [0.1]},
               "sweep": {"axis": "m", "values": [8], "base": dict(spline)}}[mode]
        if key.startswith("base."):
            cfg["base"][key[5:]] = 1e-3
        else:
            cfg[key] = 1e-3
        cfg["out_dir"] = str(out)
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert f"'{key.removeprefix('base.')}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", sorted(cli.MODES))
    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"), ("seed", 1.5), ("seed", -1), ("seed", True),
        ("seed", [1, 2]), ("seed", None), ("out_dir", 5), ("out_dir", ""),
        ("out_dir", None), ("out_dir", ["o"])])
    def test_bad_seed_and_out_dir(self, tmp_path, monkeypatch, mode, key,
                                  value, capsys):
        # seeds "abc", 1.5, -1 and out_dir 5 used to end in a traceback
        # (exit 1); seeds true and [1, 2] ran quietly, and a null seed ran
        # unseeded
        monkeypatch.chdir(tmp_path)
        spline = {"m": 8, "target": {"spline": spline_to_dict(demo_spline())}}
        cfg = {"recover-spline": spline,
               "recover-spikes": {"m": 8, "target": {"measure": measure_to_dict(
                   DiscreteMeasure([0.2], [1.0]))}},
               "rice-check": {"m": 8, "n_trials": 100},
               "certificate": {"m": 16, "support": [0.1]},
               "sweep": {"axis": "m", "values": [8], "base": spline}}[mode]
        cfg = dict(cfg, out_dir="out")
        cfg[key] = value
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["c.json"]

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = {"m": 8, "n_trials": 100, "out_dir": str(out)}
        code = cli.main(["rice-check", "--config",
                         write_cfg(tmp_path, "c.json", cfg), "--seed", "-1"])
        assert code == cli.EXIT_CONFIG
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_seed_is_the_integer(self, tmp_path):
        reports = []
        for seed in (3, 3.0):
            out = tmp_path / f"out{seed!r}"
            cfg = {"m": 8, "n_trials": 100, "seed": seed, "out_dir": str(out)}
            code = cli.main(["rice-check", "--config",
                             write_cfg(tmp_path, "c.json", cfg)])
            assert code == cli.EXIT_OK
            reports.append((out / "rice_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_sweep_base_seed_and_out_dir(self, tmp_path, monkeypatch, capsys):
        # each used to be overwritten quietly by the sweep's own per-run
        # value: no 'elsewhere' directory was made
        monkeypatch.chdir(tmp_path)
        base = {"mode": "recover-spikes", "m": 16, "sigma": 1e-3,
                "target": {"random_measure": {"n_spikes": 2}}}
        for key, value in (("seed", 5), ("out_dir", "elsewhere")):
            cfg = {"axis": "lambda", "values": [0.01], "seed": 1,
                   "out_dir": "out", "base": dict(base, **{key: value})}
            code = cli.main(["sweep", "--config",
                             write_cfg(tmp_path, "c.json", cfg)])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"'{key}'" in err and "sets each run's seed" in err
            assert [f.name for f in tmp_path.iterdir()] == ["c.json"]

    def test_json_files_unreadable_or_invalid(self, tmp_path, capsys):
        # a directory used to end in a traceback (exit 1) for every file,
        # and so did invalid JSON in a measure_file or spline_file
        (tmp_path / "adir").mkdir()
        (tmp_path / "bad.json").write_text('{"support": [0.1,')
        out = str(tmp_path / "out")
        for fault in ("missing.json", "adir", "bad.json"):
            path = str(tmp_path / fault)
            runs = [
                ["recover-spikes", "--config", path],
                ["recover-spikes", "--config", write_cfg(tmp_path, "m.json", {
                    "m": 8, "out_dir": out, "target": {"measure_file": path}})],
                ["recover-spline", "--config", write_cfg(tmp_path, "s.json", {
                    "m": 8, "out_dir": out, "target": {"spline_file": path}})],
                ["certificate", "--config", write_cfg(tmp_path, "c.json", {
                    "m": 16, "out_dir": out, "support_file": path})]]
            for argv in runs:
                assert cli.main(argv) == cli.EXIT_CONFIG, (fault, argv)
                assert fault in capsys.readouterr().err
        # a path that is not a string used to raise TypeError (exit 1)
        assert cli.main(["recover-spikes", "--config", write_cfg(tmp_path, "m.json", {
            "m": 8, "out_dir": out, "target": {"measure_file": 5}})]) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_benchmark_and_ci_configs_accepted(self):
        # the keys of the benchmark's recover-spline cases and of the CI
        # runs; the CLI adds 'mode' and the flags' 'out_dir'
        target = {"random_spline": {"n_knots": 3}}
        cli._check_keys({"m": 32, "sigma0": 5e-4, "seed": 1, "out_dir": "o",
                         "target": target}, "recover-spline")
        cli._check_keys({"mode": "recover-spline", "m": 32, "d": 2,
                         "sigma0": 5e-4, "seed": 1, "out_dir": "o",
                         "target": target}, "recover-spline")
        cli._check_keys({"mode": "recover-spikes", "m": 128, "sigma": 1e-5,
                         "seed": 1, "out_dir": "o", "target": target},
                        "recover-spikes")
        cli._check_keys({"mode": "certificate", "m": 64, "n_points": 3,
                         "seed": 1, "out_dir": "o"}, "certificate")
        cli._check_keys({"mode": "rice-check", "m": 32, "n_trials": 10_000,
                         "seed": 1, "out_dir": "o"}, "rice-check")
        cli._check_keys({"mode": "sweep", "axis": "lambda", "values": [0.01, 0.02],
                         "seed": 1, "out_dir": "o",
                         "base": {"mode": "recover-spikes", "m": 16,
                                  "sigma": 1e-3, "target": {"random_measure": {
                                      "n_spikes": 2, "min_amplitude": 0.8}}}},
                        "sweep")
        # the benchmark draws its seeds below 2^62
        cli._check_keys({"m": 32, "seed": 2 ** 62 - 1, "out_dir": "o",
                         "target": target}, "recover-spline")

    def test_real_fields_accepted(self, tmp_path):
        # integer values, a null lambda (calibrated) and sigma 0 (noiseless)
        cfg = {"m": 8, "out_dir": str(tmp_path / "a"), "sigma": 0, "eta": 2,
               "lambda": None,
               "target": {"measure": measure_to_dict(DiscreteMeasure([0.2], [1.0]))}}
        assert cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "a.json", cfg)]) == cli.EXIT_OK
        run = json.loads((tmp_path / "a" / "run.json").read_text())
        assert run["lam"] == 1e-6 and run["sigma"] == 0.0
        cfg = {"m": 8, "out_dir": str(tmp_path / "b"), "sigma0": 5e-4, "alpha": 1,
               "target": {"spline": spline_to_dict(demo_spline())}}
        assert cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "b.json", cfg)]) == cli.EXIT_OK

    def test_integral_float_is_accepted(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"m": 16.0, "n_trials": 150.0, "out_dir": str(out)}
        code = cli.main(["rice-check", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_OK
        rep = json.loads((out / "rice_report.json").read_text())
        assert rep["n_trials"] == 150 and rep["m"] == 16


class TestRiceCheck:
    def test_summary_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cfg = {"m": 16, "d": -1, "sigma": 1.0, "eta": 1.0,
               "n_trials": 500, "seed": 7}
        for out in (out1, out2):
            cfg["out_dir"] = str(out)
            code = cli.main(["rice-check", "--config",
                             write_cfg(tmp_path, "rc.json", cfg)])
            assert code == cli.EXIT_OK
        a = (out1 / "rice_report.json").read_bytes()
        b = (out2 / "rice_report.json").read_bytes()
        assert a == b
        rep = json.loads(a)
        assert rep["passes"] is True
        assert rep["n_trials"] == 500
        assert rep["bound"] == pytest.approx(1.0 / (5 * 16))

    def test_too_few_trials(self, tmp_path):
        cfg = {"m": 16, "n_trials": 10, "out_dir": str(tmp_path / "out")}
        code = cli.main(["rice-check", "--config",
                         write_cfg(tmp_path, "rc.json", cfg)])
        assert code == cli.EXIT_CONFIG

    def test_huge_eta_never_exceeds(self):
        result = cli.rice_exceedance(m=16, d=-1, sigma=1.0, eta=50.0,
                                     n_trials=200, seed=0)
        assert result["frequency"] == 0.0
        assert result["passes"]


class TestRecoverSpikes:
    def test_noiseless_run_artifacts(self, tmp_path):
        out = tmp_path / "out"
        x = DiscreteMeasure([-0.4, 0.3], [1.0, -2.0])
        cfg = {"m": 16, "d": -1, "sigma": 0.0, "seed": 0,
               "out_dir": str(out), "target": {"measure": measure_to_dict(x)}}
        code = cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_OK
        for name in ("target.json", "observation.json", "solution.json",
                     "report.json", "spikes.csv", "run.json"):
            assert (out / name).exists()
        header = (out / "spikes.csv").read_text().splitlines()[0]
        assert header == ",".join(cli.CSV_SCHEMAS["spikes"][1])
        rep = json.loads((out / "report.json").read_text())
        assert rep["passes"] is True

    def test_byte_identical_reruns(self, tmp_path):
        x = DiscreteMeasure([0.2], [1.0])
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            cfg = {"m": 12, "sigma": 0.01, "seed": 5, "out_dir": str(out),
                   "target": {"measure": measure_to_dict(x)}}
            assert cli.main(["recover-spikes", "--config",
                             write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
            blobs.append((out / "solution.json").read_bytes()
                         + (out / "spikes.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_prediction_probes_do_not_replay_the_noise(self, tmp_path,
                                                       monkeypatch):
        # the noise and the random test polynomials both derive from the
        # run's seed; the first probe must not be the noise over sigma
        from chebspike import diagnostics
        from chebspike.measures import moments
        seeds = []
        margin = diagnostics.prediction_margin

        def spy(*args):
            seeds.append(args[6])
            return margin(*args)

        monkeypatch.setattr(diagnostics, "prediction_margin", spy)
        out = tmp_path / "out"
        x = DiscreteMeasure([-0.4, 0.3], [1.0, -2.0])
        cfg = {"m": 16, "d": -1, "sigma": 1e-3, "seed": 7,
               "prediction_trials": 4, "out_dir": str(out),
               "target": {"measure": measure_to_dict(x)}}
        assert cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        y = json.loads((out / "observation.json").read_text())["y"]
        noise = (np.array(y) - moments(x, 16)) / 1e-3
        # prediction_margin's probes are the first draws of its generator
        probe = np.random.default_rng(seeds[0]).standard_normal((4, 17))[0]
        assert np.abs(probe - noise).max() > 0.1
        rep = json.loads((out / "report.json").read_text())
        assert rep["prediction_margin"] is not None


class TestRecoverSpline:
    def test_noiseless_recovers_knots(self, tmp_path):
        out = tmp_path / "out"
        f = demo_spline()
        cfg = {"m": 12, "sigma0": 0.0, "lambda": 1e-6, "seed": 0,
               "out_dir": str(out), "target": {"spline": spline_to_dict(f)}}
        code = cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_OK
        spikes = json.loads((out / "spikes_hat.json").read_text())
        got = np.asarray(spikes["support"])
        big = np.abs(np.asarray(spikes["weights"])) > 1.0
        knots = np.sort(np.arccos(f.knots))
        found = np.sort(np.arccos(got[big]))
        np.testing.assert_allclose(found, knots, atol=1e-4)
        summary = json.loads((out / "run.json").read_text())
        assert summary["boundary_residual"] <= 1e-8

    def test_exact_moments_hold_on_edge_clustered_support(self, tmp_path):
        # a noisy case with knot jumps near 1e4 and small atoms near both
        # ends: refinement must keep the exact moments at that scale
        f = {"degree": 2,
             "knots": [-0.9451169861207587, -0.4606490594808251,
                       0.6863298698136618],
             "pieces": [[1.6224527608306398, 0.573861120888778,
                         -0.19982121152492138],
                        [-5085.573625032169, -10764.646005836414,
                         -5695.378315010079],
                        [-5954.251298148223, -14536.183818570033,
                         -9789.099701290921],
                        [-3686.5757979933687, -21144.30507306396,
                         -4974.999699867387]]}
        out = tmp_path / "out"
        cfg = {"m": 32, "sigma0": 0.0005, "seed": 2254165027208214343,
               "out_dir": str(out), "target": {"spline": f}}
        assert cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        summary = json.loads((out / "run.json").read_text())
        b = boundary_vector(spline_from_dict(f))
        assert summary["boundary_residual"] <= 1e-8 * (1.0 + np.abs(b).max())

    def test_cap_clipping_merges_near_duplicate_atoms(self, tmp_path,
                                                      monkeypatch):
        # the dual on [-1, 1] had level-set roots at 0.99983 and 1.0, and
        # clipping the second to the interior cap put it 5e-5 from the
        # first.  The dual is now solved on [-cap, cap], and the located
        # support is the level set in u = t / cap scaled by cap.  Each
        # exchange round makes another call, so only the first call's
        # points, the located support, are checked
        from chebspike import blasso
        f = {"degree": 2,
             "knots": [-0.9608825852468489, -0.14251791243960354,
                       0.8018828577059752],
             "pieces": [[-0.14048818342881764, 0.31667274325519457,
                         -0.20805057352611533],
                        [-4594.477799829979, -9562.4277919538,
                         -4976.229372804277],
                        [-4694.443076098765, -10965.272873776763,
                         -9897.874160498814],
                        [-7413.450313342797, -4183.715664728642,
                         -14126.395286669776]]}
        handed = []
        real = blasso._refine_support

        def spy(support, *args):
            handed.append(support.copy())
            return real(support, *args)

        monkeypatch.setattr(blasso, "_refine_support", spy)
        cfg = {"m": 32, "sigma0": 0.0005, "seed": 4279199008695476619,
               "out_dir": str(tmp_path / "out"), "target": {"spline": f}}
        assert cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        assert handed
        theta = np.sort(np.arccos(handed[0]))
        assert np.diff(theta).min() > 0.5 / 32

    def test_solution_records_certificate_and_exchange(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"m": 10, "sigma0": 0.0005, "seed": 3, "out_dir": str(out),
               "target": {"spline": spline_to_dict(demo_spline())}}
        assert cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        sol = json.loads((out / "solution.json").read_text())
        run = json.loads((out / "run.json").read_text())
        assert type(sol["exchange_rounds"]) is int and sol["exchange_rounds"] >= 0
        assert 0.0 <= sol["certificate_gap_rel"] <= 1e-6
        assert run["duality_gap_rel"] == sol["duality_gap_rel"] <= sol["certificate_gap_rel"]
        # the dual is bounded on [-cap, cap], and so is the feasibility gap
        assert sol["kkt_residuals"]["feasibility_gap"] <= 1e-6 * sol["lam"]

    def test_profile_schema(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"m": 10, "sigma0": 0.0005, "seed": 3, "out_dir": str(out),
               "target": {"spline": spline_to_dict(demo_spline())}}
        assert cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.CSV_SCHEMAS["profile"][1])
        assert len(lines) == 1 + 1024

    def test_profile_columns_are_scalar_evaluations(self, tmp_path):
        out = tmp_path / "out"
        f = demo_spline()
        cfg = {"m": 10, "sigma0": 0.0005, "seed": 3, "out_dir": str(out),
               "profile_points": 301, "target": {"spline": spline_to_dict(f)}}
        assert cli.main(["recover-spline", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        f_hat = spline_from_dict(
            json.loads((out / "spline_hat.json").read_text()))
        rows = [[float(v) for v in line.split(",")] for line in
                (out / "profile.csv").read_text().splitlines()[1:]]
        t, f_true, f_hat_col, _ = map(list, zip(*rows))
        assert t == np.linspace(-1.0, 1.0, 301).tolist()
        assert f_true == [f(v) for v in t]
        assert f_hat_col == [f_hat(v) for v in t]


class TestCertificateMode:
    def test_explicit_support(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"m": 64, "support": [0.0], "grid_size": 640,
               "out_dir": str(out)}
        code = cli.main(["certificate", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_OK
        rep = json.loads((out / "certificate_report.json").read_text())
        assert rep["passes"] is True


class TestSweep:
    def test_empty_values_header_only(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"axis": "sigma0", "values": [], "base": {}, "out_dir": str(out)}
        assert cli.main(["sweep", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines == [",".join(cli.CSV_SCHEMAS["sweep"][1])]

    def test_sigma0_sweep_rows(self, tmp_path):
        out = tmp_path / "out"
        base = {"mode": "recover-spline", "m": 10,
                "target": {"spline": spline_to_dict(demo_spline())}}
        cfg = {"axis": "sigma0", "values": [0.0005, 0.002], "base": base,
               "seed": 1, "out_dir": str(out)}
        assert cli.main(["sweep", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_partial_failure_marks_row_and_assert_fails(self, tmp_path):
        out = tmp_path / "out"
        base = {"mode": "recover-spline", "m": 10,
                "target": {"spline": spline_to_dict(demo_spline())}}
        # m = 1 <= d makes the second row fail while the sweep continues
        cfg = {"axis": "m", "values": [10, 1], "base": base,
               "seed": 1, "out_dir": str(out)}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli.main(["sweep", "--config", path]) == cli.EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "True"
        assert lines[2].split(",")[3] == "False"
        assert cli.main(["sweep", "--config", path, "--assert"]) == cli.EXIT_ASSERT


    def test_assert_fails_on_a_failing_report(self, tmp_path):
        # row 0 completes but its report fails (lambda far below the
        # calibrated level): the sweep used to exit 0 under --assert
        out = tmp_path / "out"
        base = {"mode": "recover-spikes", "m": 16, "sigma": 1e-3,
                "target": {"random_measure": {"n_spikes": 2,
                                              "min_amplitude": 0.8}}}
        cfg = {"axis": "lambda", "values": [1e-6, 1e-5], "base": base,
               "seed": 1, "out_dir": str(out)}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli.main(["sweep", "--config", path]) == cli.EXIT_OK
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(r[3], r[8]) for r in rows] == [("True", "False"), ("True", "True")]
        result = json.loads((out / "sweep.json").read_text())
        assert (result["all_ok"], result["passes"]) == (True, False)
        assert cli.main(["sweep", "--config", path, "--assert"]) == cli.EXIT_ASSERT


class TestSolverFailureExit:
    def test_exit_code_three(self, tmp_path):
        x = DiscreteMeasure([0.2], [1.0])
        cfg = {"m": 12, "sigma": 0.0, "seed": 0, "sdp_max_iter": 1,
               "out_dir": str(tmp_path / "out"),
               "target": {"measure": measure_to_dict(x)}}
        code = cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_SOLVER


class TestLambdaSweepRegimeFlag:
    def test_rows_flagged_against_calibration(self, tmp_path):
        from chebspike.observation import lambda_rice
        out = tmp_path / "out"
        x = DiscreteMeasure([-0.4, 0.3], [1.5, -1.5])
        base = {"mode": "recover-spikes", "m": 16, "d": -1, "sigma": 0.01,
                "eta": 1.0, "target": {"measure": measure_to_dict(x)}}
        lam0 = lambda_rice(0.01, 16, -1, 1.0)
        cfg = {"axis": "lambda", "values": [0.1 * lam0, 2.0 * lam0],
               "base": base, "seed": 4, "out_dir": str(out)}
        assert cli.main(["sweep", "--config",
                         write_cfg(tmp_path, "c.json", cfg)]) == cli.EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags == ["False", "True"]


class TestFlagOverrides:
    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "flagged"
        x = DiscreteMeasure([0.0], [1.0])
        cfg = {"m": 12, "sigma": 0.0, "seed": 0,
               "out_dir": str(tmp_path / "ignored"),
               "target": {"measure": measure_to_dict(x)}}
        code = cli.main(["recover-spikes", "--config",
                         write_cfg(tmp_path, "c.json", cfg),
                         "--out-dir", str(out), "--lambda", "1e-5"])
        assert code == cli.EXIT_OK
        summary = json.loads((out / "run.json").read_text())
        assert summary["lam"] == 1e-5

    def test_flags_before_the_subcommand_apply(self, tmp_path):
        out = tmp_path / "flagged"
        x = DiscreteMeasure([0.0], [1.0])
        cfg = {"m": 12, "sigma": 0.0, "seed": 0,
               "out_dir": str(tmp_path / "ignored"),
               "target": {"measure": measure_to_dict(x)}}
        code = cli.main(["--config", write_cfg(tmp_path, "c.json", cfg),
                         "--out-dir", str(out), "--lambda", "1e-5", "recover-spikes"])
        assert code == cli.EXIT_OK
        assert json.loads((out / "run.json").read_text())["lam"] == 1e-5

    def test_parsed_flags_in_both_positions(self):
        parser = cli.build_parser()
        for argv in (["--seed", "3", "recover-spikes"], ["recover-spikes", "--seed", "3"]):
            args = parser.parse_args(argv)
            assert (args.seed, args.subcommand, args.check) == (3, "recover-spikes", False)
        # given twice, the subcommand's flag wins
        assert parser.parse_args(["--seed", "1", "recover-spikes", "--seed", "3"]).seed == 3
        for argv in (["--assert", "sweep"], ["sweep", "--assert"]):
            assert parser.parse_args(argv).check is True
        assert parser.parse_args(["sweep"]).seed is None

    def test_assert_before_the_subcommand(self, tmp_path):
        out = tmp_path / "out"
        base = {"mode": "recover-spline", "m": 10,
                "target": {"spline": spline_to_dict(demo_spline())}}
        cfg = {"axis": "m", "values": [10, 1], "base": base,
               "seed": 1, "out_dir": str(out)}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli.main(["--assert", "sweep", "--config", path]) == cli.EXIT_ASSERT
