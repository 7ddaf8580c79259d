"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line with the measured margins.  The optimality
and prediction criteria (6 and 8) consume the solver runs produced by the
recovery criteria (2 and 5) through a module-level store, so this file is
meant to run in order as a whole.
"""

import time

import numpy as np
import pytest

from conftest import random_separated_measure, random_spline

from chebspike import cli
from chebspike.blasso import solve_blasso
from chebspike.certificates import (QIC, SIGN_INTERPOLANT, build_certificate,
                                    verify_certificate)
from chebspike.diagnostics import (DEFAULT_CONSTANTS, global_control,
                                   local_control, localization_check,
                                   prediction_margin)
from chebspike.measures import (DiscreteMeasure, hausdorff_arccos, moments,
                                separation_ok)
from chebspike.observation import lambda_rice, simulate
from chebspike.splines import (boundary_vector, distributional_derivative,
                               integrate_from_spikes, moments_via_transfer,
                               projection_vector, spline_to_dict)

_RUNS = {}


def test_criterion_1_transfer_matrix_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(0, 4))
        s = int(rng.integers(1, 5))
        f = random_spline(rng, d, s)
        m = d + 1 + int(rng.integers(4, 12))
        via = moments_via_transfer(projection_vector(f, m),
                                   boundary_vector(f), m, d)
        direct = moments(distributional_derivative(f), m)
        worst = max(worst, float(np.abs(via - direct).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 5.0
    print(f"criterion 1: PASS - transfer identity on 100 splines, "
          f"worst deviation {worst:.2e} (limit 1e-8), {elapsed:.2f}s")


def test_criterion_2_noiseless_exact_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    m, lam = 64, 1e-6
    runs = []
    worst_h, worst_w = 0.0, 0.0
    for trial in range(20):
        x = random_separated_measure(rng, 2 + trial % 3, m)
        assert separation_ok(x.support, m)
        obs = simulate(x, m, -1, 0.0, seed=trial)
        sol = solve_blasso(obs, lam)
        h = hausdorff_arccos(sol.measure.support, x.support)
        worst_h = max(worst_h, h)
        assert h <= 1e-4
        assert len(sol.measure) == len(x)
        rel = np.abs(sol.measure.weights - x.weights) / np.abs(x.weights)
        worst_w = max(worst_w, float(rel.max()))
        assert rel.max() <= 1e-4
        runs.append((x, sol))
    elapsed = time.perf_counter() - start
    _RUNS["noiseless"] = runs
    assert elapsed < 120.0
    print(f"criterion 2: PASS - 20/20 exact recoveries at m={m}, worst "
          f"support error {worst_h:.2e}, worst weight error {worst_w:.2e} "
          f"(limits 1e-4), {elapsed:.1f}s")


def test_criterion_3_certificates_at_paper_constants():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    m, grid = 128, 10_000
    worst_margin = np.inf
    worst_interp = 0.0
    for _ in range(10):
        x = random_separated_measure(rng, int(rng.integers(2, 5)), m)
        T = x.support
        for j in range(T.size):
            cert = build_certificate(T, m, SIGN_INTERPOLANT, anchor=j)
            rep = verify_certificate(cert, T, m, grid)
            worst_margin = min(worst_margin, rep.worst_margin)
            worst_interp = max(worst_interp, rep.interpolation_residual)
        targets = rng.choice([-1.0, 1.0], T.size)
        cert = build_certificate(T, m, QIC, targets=targets)
        rep = verify_certificate(cert, T, m, grid)
        worst_margin = min(worst_margin, rep.worst_margin)
        worst_interp = max(worst_interp, rep.interpolation_residual)
    elapsed = time.perf_counter() - start
    assert worst_margin >= -1e-9
    assert worst_interp <= 1e-8
    assert elapsed < 60.0
    print(f"criterion 3: PASS - certificates on 10 supports at m={m}, worst "
          f"margin {worst_margin:.3e} (limit -1e-9), worst interpolation "
          f"residual {worst_interp:.2e} (limit 1e-8), {elapsed:.1f}s")


def test_criterion_4_rice_bound():
    start = time.perf_counter()
    # 4096-point evaluation grid at m = 32
    result = cli.rice_exceedance(m=32, d=-1, sigma=1.0, eta=1.0,
                                 n_trials=10_000, seed=404, grid_factor=128)
    elapsed = time.perf_counter() - start
    limit = result["bound"] + 3.0 * result["binomial_se"]
    assert result["bound"] == pytest.approx(1.0 / 160.0)
    assert result["frequency"] <= limit
    assert elapsed < 30.0
    print(f"criterion 4: PASS - exceedance frequency "
          f"{result['frequency']:.5f} <= {limit:.5f} "
          f"(bound 1/160 + 3 SE), {elapsed:.1f}s")


def test_criterion_5_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    m, d, sigma = 128, -1, 1e-5
    lam0 = lambda_rice(sigma, m, d, 1.0)
    lam = lam0
    c = DEFAULT_CONSTANTS
    ok_global = ok_local = ok_loc = 0
    runs = []
    n_trials = 50
    for trial in range(n_trials):
        support = cli.random_separated_support(rng, 3, m, margin=1.15)
        amps = rng.uniform(0.8, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        assert np.all(np.abs(amps) >= 3 * c.c2 * lam0)
        x = DiscreteMeasure(support, amps)
        obs = simulate(x, m, d, sigma, seed=10_000 + trial)
        sol = solve_blasso(obs, lam)
        runs.append((x, sol))
        if global_control(sol.measure, x.support, m) <= c.c1 * lam:
            ok_global += 1
        if local_control(sol.measure, x, m).max() <= c.c2 * lam:
            ok_local += 1
        rows = localization_check(sol.measure, x, lam, m)
        if rows and all(r["ok"] for r in rows):
            ok_loc += 1
    elapsed = time.perf_counter() - start
    _RUNS["noisy"] = runs
    assert ok_global >= 49
    assert ok_local >= 49
    assert ok_loc >= 49
    assert elapsed < 1200.0
    print(f"criterion 5: PASS - inequalities hold in {ok_global}/{n_trials} "
          f"(global), {ok_local}/{n_trials} (local), {ok_loc}/{n_trials} "
          f"(localization) trials at m={m}, {elapsed:.0f}s")


def test_criterion_6_optimality_on_all_runs():
    if "noiseless" not in _RUNS or "noisy" not in _RUNS:
        pytest.skip("criteria 2 and 5 must run first")
    worst_gap = 0.0
    worst_tv = 0.0
    worst_feas = 0.0
    n = 0
    for key in ("noiseless", "noisy"):
        for x, sol in _RUNS[key]:
            n += 1
            worst_gap = max(worst_gap, sol.duality_gap_rel)
            worst_tv = max(worst_tv,
                           sol.kkt_residuals["tv_identity_gap"] / sol.lam)
            worst_feas = max(worst_feas,
                             sol.kkt_residuals["feasibility_gap"] / sol.lam)
            assert sol.duality_gap_rel <= 1e-6
            assert sol.kkt_residuals["tv_identity_gap"] <= 1e-6 * sol.lam
            assert sol.kkt_residuals["feasibility_gap"] <= 1e-6 * sol.lam
    print(f"criterion 6: PASS - {n} solver runs, worst relative duality gap "
          f"{worst_gap:.2e} (limit 1e-6), worst first-order residuals "
          f"{worst_tv:.2e} / {worst_feas:.2e} of lambda (limit 1e-6)")


def test_criterion_7_figure_style_spline_panels(tmp_path):
    k = np.sqrt(2.0) / 2.0
    mu = DiscreteMeasure([-k, k], [8000.0, -9000.0])
    b_left = np.array([0.5, -0.3, 0.4, 0.0, 0.0, 0.0])
    f = integrate_from_spikes(mu, b_left, 2)
    c = DEFAULT_CONSTANTS
    results = []
    for idx, sigma0 in enumerate((0.0005, 0.002, 0.01)):
        start = time.perf_counter()
        out = tmp_path / f"panel_{idx}"
        summary = cli.run_recover_spline({
            "m": 10, "sigma0": sigma0, "seed": 700 + idx,
            "out_dir": str(out), "target": {"spline": spline_to_dict(f)}})
        elapsed = time.perf_counter() - start
        assert (out / "profile.csv").exists()
        assert (out / "spikes.csv").exists()
        b = boundary_vector(f)
        assert summary["boundary_residual"] <= 1e-8 * (1.0 + np.abs(b).max())
        assert summary["passes"] is True
        assert elapsed < 120.0
        results.append((sigma0, summary, elapsed))
    # at the lowest noise level both jumps exceed the guarantee threshold
    # and must be localized within the radius
    import json as _json
    rep = _json.loads((tmp_path / "panel_0" / "report.json").read_text())
    lam = results[0][1]["lam"]
    assert all(abs(w) > c.c2 * lam for w in mu.weights)
    assert len(rep["localization"]) == 2
    assert all(row["ok"] for row in rep["localization"])
    dists = [row["achieved_distance"] for row in rep["localization"]]
    print(f"criterion 7: PASS - panels sigma0={[r[0] for r in results]} ran "
          f"end to end, boundary residual <= "
          f"{max(r[1]['boundary_residual'] for r in results):.2e}, jumps "
          f"localized to {max(dists):.2e} at sigma0=0.0005, "
          f"{sum(r[2] for r in results):.1f}s total")


def test_criterion_8_prediction_inequality():
    if "noiseless" not in _RUNS:
        pytest.skip("criterion 2 must run first")
    worst = -np.inf
    for idx, (x, sol) in enumerate(_RUNS["noiseless"]):
        margin = prediction_margin(sol.measure, x, sol.lam, 0.0, 64,
                                   trials=100, seed=800 + idx)
        worst = max(worst, margin)
        assert margin <= 0.0
    print(f"criterion 8: PASS - prediction margin <= 0 on all 20 noiseless "
          f"runs x 100 test polynomials, worst {worst:.3e}")
