"""Tests for the command-line harness: config handling, artifacts,
reproducibility, and exit codes."""

import json
from pathlib import Path

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
        cfg = {"m": 8, "out_dir": str(out), "n_trials": 100, key: value}
        if mode == "recover-spline":
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
        ("recover-spline", {"random_spline": {}},
         {"d": 1, "boundary": [float("nan"), 0.0, 0.0, 0.0]})])
    def test_bad_target_data(self, tmp_path, mode, target, extra):
        # each used to end in a traceback (exit 1), or in a solver error
        # (exit 3) once NaN moments reached the conic solver
        out = tmp_path / "out"
        cfg = {"m": 8, "out_dir": str(out), "target": target, **extra}
        code = cli.main([mode, "--config", write_cfg(tmp_path, "c.json", cfg)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

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
        # the located support has roots at 0.99983 and 1.0; clipping the
        # second to the interior cap put it 5e-5 from the first
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
        assert len(handed) == 1
        theta = np.sort(np.arccos(handed[0]))
        assert np.diff(theta).min() > 0.5 / 32

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
