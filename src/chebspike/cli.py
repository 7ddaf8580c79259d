"""Command-line driver: spike recovery, end-to-end spline recovery from a
polynomial approximation, certificate verification, the noise-calibration
Monte Carlo check, and parameter sweeps.

Every run is reproducible from (config, seed): artifacts are written with
deterministic formatting and all randomness flows through seeded generators.
Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 a
requested assertion on the run's report failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .blasso import BlassoError, BlassoOptions, solve_blasso, solution_to_dict
from .certificates import (QIC, SIGN_INTERPOLANT, build_certificate,
                           verify_certificate)
from .chebyshev import cheb_grid
from .diagnostics import recovery_report, spline_jump_report
from .measures import (DiscreteMeasure, measure_from_dict, measure_to_dict,
                       phi_matrix, separation_ok)
from .observation import (assemble_y_from_projection, lambda_algorithm,
                          lambda_rice, observation_to_dict,
                          polynomial_from_theta, rice_tail_bound,
                          scaled_sigma, simulate)
from .sdp import SdpError
from .splines import (NonUniformSpline, boundary_residual, boundary_vector,
                      distributional_derivative, integrate_from_spikes,
                      projection_vector, spline_from_dict, spline_to_dict)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ASSERT = 4

CSV_SCHEMAS = {
    "profile": ("profile/1", ["t", "f_true", "f_hat", "p_approx"]),
    "spikes": ("spikes/1", ["source", "location", "weight"]),
    "sweep": ("sweep/1", ["index", "axis", "value", "ok", "lam", "n_atoms",
                          "global_control", "max_local_control", "passes",
                          "boundary_residual", "duality_gap_rel",
                          "in_guarantee_regime"]),
}


class ConfigError(Exception):
    pass


# the config keys each mode reads besides 'mode', 'seed' and 'out_dir'; any
# other key is a config error (`_check_keys`)
SOLVER_KEYS = ("sdp_tol", "sdp_max_iter", "amplitude_floor")
MODE_KEYS = {
    "recover-spikes": ("m", "d", "sigma", "eta", "lambda", "prediction_trials",
                       "target") + SOLVER_KEYS,
    "recover-spline": ("m", "d", "sigma0", "eta", "alpha", "lambda",
                       "profile_points", "boundary", "target") + SOLVER_KEYS,
    "certificate": ("m", "grid_size", "n_points", "support", "support_file"),
    "rice-check": ("m", "d", "n_trials", "grid_factor", "sigma", "eta"),
    "sweep": ("axis", "values", "base"),
}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, schema: str, rows) -> None:
    version, columns = CSV_SCHEMAS[schema]
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} does not match "
                             f"schema {version} ({len(columns)} columns)")
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing config field '{key}'")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config field '{key}' has wrong type")
    return val


def _int_field(cfg: dict, key: str, default: int | None = None,
               minimum: int | None = None) -> int:
    """Config field `key` as an exact integer of at least `minimum`:
    integral floats are accepted, bools and fractional values are not.  A
    missing field is an error when `default` is None."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config field '{key}'")
        return default
    val = cfg[key]
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    # exactly int: a JSON true would pass isinstance(val, int)
    if type(val) is not int or (minimum is not None and val < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"config field '{key}' must be an integer{bound}, "
                          f"got {cfg[key]!r}")
    return val


def _real_field(cfg: dict, key: str, positive: bool,
                default: float | None = None) -> float:
    """Config field `key` as a finite number, > 0 if `positive` else >= 0;
    bools and strings are not numbers.  A missing field is an error when
    `default` is None."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config field '{key}'")
        return default
    val = cfg[key]
    if not (type(val) in (int, float) and np.isfinite(val)
            and (val > 0 if positive else val >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"config field '{key}' must be a finite number "
                          f"{bound}, got {val!r}")
    return float(val)


def _real_list(val, what: str, bound: float = np.inf) -> np.ndarray:
    """`val` as a nonempty list of finite numbers of magnitude at most
    `bound`; bools and strings are not numbers."""
    if not (isinstance(val, list) and val
            and all(type(v) in (int, float) and np.isfinite(v) and abs(v) <= bound
                    for v in val)):
        span = "" if bound == np.inf else f" in [-{bound:g}, {bound:g}]"
        raise ConfigError(f"{what} must be a nonempty list of finite numbers"
                          f"{span}, got {val!r}")
    return np.array(val, dtype=float)


def _read_json(path, what: str):
    """The JSON value in the file at `path`; a path that is not a string, a
    missing or unreadable file, or invalid JSON is a config error."""
    if not isinstance(path, str):
        raise ConfigError(f"{what} must be a path string, got {path!r}")
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"{what} {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc}") from exc


def _check_keys(cfg: dict, mode: str) -> None:
    """Reject every key of `cfg` that `mode` does not read (MODE_KEYS), a
    'seed' that is not an integer >= 0 and an 'out_dir' that is not a
    nonempty string.  An integral float seed is stored back as an int."""
    if "seed" in cfg:
        cfg["seed"] = _int_field(cfg, "seed", minimum=0)
    out_dir = cfg.get("out_dir", "out")
    if not (isinstance(out_dir, str) and out_dir):
        raise ConfigError(f"config field 'out_dir' must be a nonempty "
                          f"string, got {out_dir!r}")
    for key in cfg:
        if key in ("mode", "seed", "out_dir") + MODE_KEYS[mode]:
            continue
        if key in ("level_tol", "interior_support"):
            raise ConfigError(f"'{key}' is not a config field: it is fixed "
                              f"by the solver or by the mode")
        if mode == "recover-spikes" and key == "sigma0":
            raise ConfigError("recover-spikes takes the moment noise level "
                              "'sigma'; 'sigma0' applies to recover-spline only")
        if mode == "sweep" and (key in MODE_KEYS["recover-spline"]
                                or key in MODE_KEYS["recover-spikes"]):
            raise ConfigError(f"sweep does not read a top-level {key!r} "
                              f"(flag or config key); set it in 'base'")
        raise ConfigError(f"{mode} does not read config field '{key}'")


def _lambda_field(cfg: dict, calibrated: float) -> float:
    """'lambda' from the config; null or missing gives `calibrated`, or
    1e-6 when that is 0 (a noiseless run)."""
    if cfg.get("lambda") is None:
        return calibrated or 1e-6
    return _real_field(cfg, "lambda", positive=True)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def random_separated_support(rng, n_points: int, m: int,
                             margin: float = 1.1, max_tries: int = 20000):
    """Rejection-sample a support satisfying the separation condition with
    the given slack factor.  A config error, before any draw, when the
    points cannot fit: n points a gap apart need (n - 1) gaps of arccos
    room between the edge margins."""
    gap = margin * 5.0 * np.pi / m
    lo, hi = gap / 2.0, np.pi - gap / 2.0
    if n_points and (n_points - 1) * gap > hi - lo:
        raise ConfigError(f"{n_points} points with arccos gap {gap:.4g} do "
                          f"not fit in [{lo:.4g}, {hi:.4g}] at m={m}")
    if lo > hi:
        return np.empty(0)
    for _ in range(max_tries):
        theta = np.sort(rng.uniform(lo, hi, n_points))
        pts = np.cos(theta)[::-1]
        if n_points == 1 or separation_ok(pts, m / margin):
            return np.sort(pts)
    raise ConfigError(f"could not sample {n_points} separated points at m={m}")


def _parse_target(parse, obj):
    """parse(obj), with a malformed target reported as a config error."""
    try:
        return parse(obj)
    except ValueError as exc:
        raise ConfigError(f"bad target: {exc}") from exc


def _measure_from_target(cfg: dict, m: int, rng) -> DiscreteMeasure:
    target = _require(cfg, "target", dict)
    if "measure" in target:
        return _parse_target(measure_from_dict, target["measure"])
    if "measure_file" in target:
        return _parse_target(measure_from_dict,
                             _read_json(target["measure_file"], "measure file"))
    if "random_measure" in target:
        spec_ = target["random_measure"]
        n = _int_field(spec_, "n_spikes", 3, minimum=0)
        amin = _real_field(spec_, "min_amplitude", positive=False, default=0.5)
        amax = _real_field(spec_, "max_amplitude", positive=False, default=2.0)
        support = random_separated_support(rng, n, m)
        amps = rng.uniform(amin, amax, n) * rng.choice([-1.0, 1.0], n)
        return DiscreteMeasure(support, amps)
    raise ConfigError("target needs 'measure', 'measure_file', or 'random_measure'")


def _spline_from_target(cfg: dict, rng) -> NonUniformSpline:
    target = _require(cfg, "target", dict)
    if "spline" in target:
        return _parse_target(spline_from_dict, target["spline"])
    if "spline_file" in target:
        return _parse_target(spline_from_dict,
                             _read_json(target["spline_file"], "spline file"))
    if "random_spline" in target:
        spec_ = target["random_spline"]
        d = _int_field(cfg, "d", minimum=0)
        m = _int_field(cfg, "m", minimum=1)
        n_knots = _int_field(spec_, "n_knots", 2, minimum=0)
        jump_scale = _real_field(spec_, "jump_scale", positive=False, default=1.0)
        knots = random_separated_support(rng, n_knots, m)
        jumps = jump_scale * rng.uniform(0.8, 1.25, n_knots) \
            * rng.choice([-1.0, 1.0], n_knots)
        base = rng.uniform(-1.0, 1.0, d + 1)
        mu = DiscreteMeasure(knots, jumps)
        b = np.concatenate([base, np.zeros(d + 1)])
        f = integrate_from_spikes(mu, b, d)
        return f
    raise ConfigError("target needs 'spline', 'spline_file', or 'random_spline'")


def run_recover_spikes(cfg: dict) -> dict:
    _check_keys(cfg, "recover-spikes")
    opts = _blasso_opts(cfg)
    d = _int_field(cfg, "d", -1, minimum=-1)
    m = _int_field(cfg, "m", minimum=max(1, d + 1))
    trials = _int_field(cfg, "prediction_trials", 0, minimum=0)
    sigma = _real_field(cfg, "sigma", positive=False, default=0.0)
    eta = _real_field(cfg, "eta", positive=True, default=1.0)
    lam0 = lambda_rice(sigma, m, d, eta) if sigma > 0 else 0.0
    lam = _lambda_field(cfg, lam0)
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    x = _measure_from_target(cfg, m, rng)
    # the noise and the prediction probes each draw from their own stream:
    # default_rng(seed) gave the target
    obs = simulate(x, m, d, sigma, [seed, 2])
    out = _out_dir(cfg)
    sol = solve_blasso(obs, lam, opts)
    report = recovery_report(sol.measure, x, lam, m, lam0=lam0,
                             prediction_trials=trials, seed=[seed, 1])
    write_json(out / "target.json", measure_to_dict(x))
    write_json(out / "observation.json", observation_to_dict(obs))
    write_json(out / "solution.json", solution_to_dict(sol))
    write_json(out / "report.json", report.to_dict())
    rows = [("true", float(t), float(w)) for t, w in zip(x.support, x.weights)]
    rows += [("recovered", float(t), float(w))
             for t, w in zip(sol.measure.support, sol.measure.weights)]
    write_csv(out / "spikes.csv", "spikes", rows)
    summary = {
        "mode": "recover-spikes", "m": m, "d": d, "sigma": sigma, "lam": lam,
        "n_atoms": len(sol.measure), "passes": report.passes(),
        "in_guarantee_regime": bool(m >= 128 and separation_ok(x.support, m)),
        "duality_gap_rel": sol.duality_gap_rel,
        "csv_schemas": {"spikes.csv": CSV_SCHEMAS["spikes"][0]},
    }
    write_json(out / "run.json", summary)
    return summary


def _blasso_opts(cfg: dict, interior_support: bool = False) -> BlassoOptions:
    """Solver options from the config; the mode decides `interior_support`,
    and the level-set thresholds are fixed."""
    kw = {}
    if "sdp_tol" in cfg:
        kw["sdp_tol"] = _real_field(cfg, "sdp_tol", positive=True)
    if "sdp_max_iter" in cfg:
        kw["sdp_max_iter"] = _int_field(cfg, "sdp_max_iter", minimum=1)
    # null keeps the default floor
    if cfg.get("amplitude_floor") is not None:
        kw["amplitude_floor"] = _real_field(cfg, "amplitude_floor", positive=False)
    return BlassoOptions(interior_support=interior_support, **kw)


def run_recover_spline(cfg: dict) -> dict:
    _check_keys(cfg, "recover-spline")
    profile_points = _int_field(cfg, "profile_points", 1024, minimum=2)
    opts = _blasso_opts(cfg, interior_support=True)
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    f = _spline_from_target(cfg, rng)
    d = f.degree
    if _int_field(cfg, "d", d) != d:
        raise ConfigError(f"config d={cfg['d']} does not match spline degree {d}")
    m = _int_field(cfg, "m", minimum=1)
    if m <= d:
        raise ConfigError(f"need m > d, got m={m}, d={d}")
    b = boundary_vector(f)
    if "boundary" in cfg:
        b = _real_list(cfg["boundary"], "boundary")
        if b.size != 2 * (d + 1):
            raise ConfigError(
                f"boundary must have length 2(d+1) = {2 * (d + 1)}, "
                f"got {b.size}")
    sigma0 = _real_field(cfg, "sigma0", positive=False, default=0.0)
    sigma = scaled_sigma(sigma0, m, d) if sigma0 > 0 else 0.0
    eta = _real_field(cfg, "eta", positive=True, default=1.0)
    alpha = _real_field(cfg, "alpha", positive=True, default=eta)
    lam = _lambda_field(cfg, lambda_algorithm(sigma, m, d, alpha) if sigma > 0 else 0.0)
    theta = projection_vector(f, m)
    if sigma > 0:
        theta = theta + rng.normal(0.0, sigma, m - d)
    obs = assemble_y_from_projection(theta, b, m, d, sigma=sigma)
    out = _out_dir(cfg)
    sol = solve_blasso(obs, lam, opts)
    f_hat = integrate_from_spikes(sol.measure, b, d)
    resid = boundary_residual(f_hat, b)
    report = spline_jump_report(f_hat, f, lam, m)

    grid = np.linspace(-1.0, 1.0, profile_points)
    p_approx = polynomial_from_theta(theta, m, d)
    prof = zip(grid.tolist(), f(grid).tolist(), f_hat(grid).tolist(),
               p_approx(grid).tolist())
    write_csv(out / "profile.csv", "profile", prof)
    x_true = distributional_derivative(f)
    rows = [("true", float(t), float(w))
            for t, w in zip(x_true.support, x_true.weights)]
    rows += [("recovered", float(t), float(w))
             for t, w in zip(sol.measure.support, sol.measure.weights)]
    write_csv(out / "spikes.csv", "spikes", rows)
    write_json(out / "spline_true.json", spline_to_dict(f))
    write_json(out / "spline_hat.json", spline_to_dict(f_hat))
    write_json(out / "spikes_hat.json", measure_to_dict(sol.measure))
    write_json(out / "report.json", report.to_dict())
    write_json(out / "solution.json", solution_to_dict(sol))
    summary = {
        "mode": "recover-spline", "m": m, "d": d, "sigma0": sigma0,
        "sigma": sigma, "lam": lam, "n_atoms": len(sol.measure),
        "boundary_residual": resid, "passes": report.passes(),
        "duality_gap_rel": sol.duality_gap_rel,
        "csv_schemas": {"profile.csv": CSV_SCHEMAS["profile"][0],
                        "spikes.csv": CSV_SCHEMAS["spikes"][0]},
    }
    write_json(out / "run.json", summary)
    return summary


def run_certificate(cfg: dict) -> dict:
    _check_keys(cfg, "certificate")
    m = _int_field(cfg, "m", minimum=1)
    if m % 2:
        raise ConfigError(f"the certificates need even m, got m={m}")
    # verify_certificate needs at least 10 grid points per order
    grid_size = _int_field(cfg, "grid_size", 10_000, minimum=10 * m)
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    if "support" in cfg:
        support = _real_list(cfg["support"], "support", bound=1.0)
    elif "support_file" in cfg:
        support = _real_list(_read_json(cfg["support_file"], "support file"),
                             "support file", bound=1.0)
    else:
        support = random_separated_support(
            rng, _int_field(cfg, "n_points", 3, minimum=1), m)
    if not separation_ok(support, m):
        raise ConfigError(f"support does not satisfy the separation "
                          f"condition at m={m}")
    out = _out_dir(cfg)
    anchors, reports = [], []
    for j in range(support.size):
        cert = build_certificate(support, m, SIGN_INTERPOLANT, anchor=j)
        rep = verify_certificate(cert, support, m, grid_size)
        anchors.append({"anchor": j, "worst_margin": rep.worst_margin,
                        "interpolation_residual": rep.interpolation_residual,
                        "margins": rep.margins,
                        "condition_number": cert.condition_number})
        reports.append(rep)
    signs = rng.choice([-1.0, 1.0], support.size)
    qic_cert = build_certificate(support, m, QIC, targets=signs)
    qic_rep = verify_certificate(qic_cert, support, m, grid_size)
    reports.append(qic_rep)
    result = {
        "mode": "certificate", "m": m, "support": support.tolist(),
        "grid_size": grid_size, "sign_interpolants": anchors,
        "qic": {"targets": signs.tolist(), "worst_margin": qic_rep.worst_margin,
                "interpolation_residual": qic_rep.interpolation_residual,
                "margins": qic_rep.margins},
        "worst_margin": min(rep.worst_margin for rep in reports),
        "max_interpolation_residual": max(rep.interpolation_residual
                                          for rep in reports),
        "passes": all(rep.passes() for rep in reports),
    }
    write_json(out / "certificate_report.json", result)
    return result


def rice_exceedance(m: int, d: int, sigma: float, eta: float, n_trials: int,
                    seed, grid_factor: int = 4, chunk: int = 1000):
    """Empirical frequency of the noise polynomial's grid sup norm exceeding
    the calibration threshold, against the analytic tail bound."""
    lam0 = lambda_rice(sigma, m, d, eta)
    grid = cheb_grid(grid_factor * m)
    Phi = phi_matrix(grid, m)[d + 1:]
    rng = np.random.default_rng(seed)
    exceed = 0
    done = 0
    while done < n_trials:
        k = min(chunk, n_trials - done)
        eps = rng.normal(0.0, sigma, (k, m - d))
        sups = np.abs(eps @ Phi).max(axis=1)
        exceed += int((sups > lam0).sum())
        done += k
    freq = exceed / n_trials
    bound = rice_tail_bound(lam0, sigma, m, d)
    se = float(np.sqrt(bound * (1.0 - bound) / n_trials))
    return {"m": m, "d": d, "sigma": sigma, "eta": eta, "n_trials": n_trials,
            "threshold": lam0, "exceedances": exceed, "frequency": freq,
            "bound": bound, "binomial_se": se,
            "passes": bool(freq <= bound + 3.0 * se)}


def run_rice_check(cfg: dict) -> dict:
    _check_keys(cfg, "rice-check")
    n_trials = _int_field(cfg, "n_trials", 10_000, minimum=100)
    d = _int_field(cfg, "d", -1, minimum=-1)
    m = _int_field(cfg, "m", minimum=max(1, d + 1))
    grid_factor = _int_field(cfg, "grid_factor", 4, minimum=1)
    if grid_factor * m < 2:
        raise ConfigError(f"the grid has grid_factor*m = {grid_factor * m} "
                          f"point(s) and needs at least 2")
    sigma = _real_field(cfg, "sigma", positive=True, default=1.0)
    eta = _real_field(cfg, "eta", positive=True, default=1.0)
    out = _out_dir(cfg)
    result = rice_exceedance(m=m, d=d, sigma=sigma, eta=eta, n_trials=n_trials,
                             seed=cfg.get("seed", 0), grid_factor=grid_factor)
    result["mode"] = "rice-check"
    write_json(out / "rice_report.json", result)
    return result


def run_sweep(cfg: dict) -> dict:
    _check_keys(cfg, "sweep")
    axis = _require(cfg, "axis", str)
    if axis not in ("sigma0", "m", "lambda"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    values = _require(cfg, "values", list)
    if values:
        _real_list(values, "values")
    base = dict(_require(cfg, "base", dict))
    mode = base.get("mode", "recover-spline")
    if mode not in ("recover-spline", "recover-spikes"):
        raise ConfigError(f"sweep base mode {mode!r} not supported")
    if mode == "recover-spikes" and (axis == "sigma0" or "sigma0" in base):
        raise ConfigError("a recover-spikes sweep cannot set 'sigma0'; "
                          "it applies to recover-spline only")
    for key in ("seed", "out_dir"):
        if key in base:
            raise ConfigError(f"sweep 'base' cannot set {key!r}: the sweep "
                              f"sets each run's seed (top-level seed + "
                              f"index) and out_dir (run_<index> under its "
                              f"own out_dir)")
    _check_keys(base, mode)
    out = _out_dir(cfg)
    seed = cfg.get("seed", 0)
    rows = []
    for idx, value in enumerate(values):
        sub = dict(base)
        sub[axis] = value
        sub["seed"] = seed + idx
        sub["out_dir"] = str(out / f"run_{idx:03d}")
        ok = True
        summary = {}
        try:
            summary = (run_recover_spline(sub) if mode == "recover-spline"
                       else run_recover_spikes(sub))
        except (ConfigError, BlassoError, SdpError, ValueError) as exc:
            ok = False
            summary = {"error": str(exc)}
        in_regime = bool(summary.get("in_guarantee_regime", False))
        if axis == "lambda" and ok:
            sigma = summary.get("sigma", base.get("sigma", 0.0)) or 0.0
            if sigma > 0:
                m_run = summary.get("m")
                d_run = summary.get("d", -1)
                lam0 = lambda_rice(sigma, m_run, d_run, float(base.get("eta", 1.0)))
                in_regime = bool(value >= lam0)
        rows.append((idx, axis, float(value), ok,
                     summary.get("lam", float("nan")),
                     summary.get("n_atoms", -1),
                     _report_field(sub, "global_control") if ok else float("nan"),
                     _report_field(sub, "max_local") if ok else float("nan"),
                     summary.get("passes", False),
                     summary.get("boundary_residual", float("nan")),
                     summary.get("duality_gap_rel", float("nan")),
                     in_regime))
    write_csv(out / "sweep.csv", "sweep", rows)
    # a row passes when its run completed and its report passed
    result = {"mode": "sweep", "axis": axis, "values": values,
              "rows": len(rows), "all_ok": all(r[3] for r in rows),
              "passes": all(r[3] and r[8] for r in rows),
              "csv_schemas": {"sweep.csv": CSV_SCHEMAS["sweep"][0]}}
    write_json(out / "sweep.json", result)
    return result


def _report_field(cfg: dict, field: str):
    path = Path(cfg["out_dir"]) / "report.json"
    if not path.exists():
        return float("nan")
    rep = json.loads(path.read_text())
    if field == "global_control":
        return float(rep.get("global_control", float("nan")))
    if field == "max_local":
        vals = rep.get("local_controls", [])
        return float(max(vals)) if vals else 0.0
    return float("nan")


MODES = {
    "recover-spikes": run_recover_spikes,
    "recover-spline": run_recover_spline,
    "certificate": run_certificate,
    "rice-check": run_rice_check,
    "sweep": run_sweep,
}


def _shared_flags(argument_default=None) -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False,
                                     argument_default=argument_default)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--out-dir")
    shared.add_argument("--sigma0", type=float)
    shared.add_argument("--lambda", dest="lam", type=float)
    shared.add_argument("--eta", type=float)
    shared.add_argument("--assert", dest="check", action="store_true",
                        help="exit 4 when the run's report does not pass")
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebspike", parents=[_shared_flags()],
        description="Spike and non-uniform spline recovery from Chebyshev moments")
    parser.add_argument("--mode", choices=sorted(MODES),
                        help="run mode (alternative to the subcommand form)")
    sub = parser.add_subparsers(dest="subcommand")
    # the subcommands' flags carry no defaults, so a flag given before the
    # subcommand is not overwritten by the subcommand's unset copy of it
    after = _shared_flags(argument_default=argparse.SUPPRESS)
    for name in sorted(MODES):
        sub.add_parser(name, parents=[after])
    return parser


def _merge_config(args) -> dict:
    cfg = {}
    if args.config:
        cfg = _read_json(args.config, "config file")
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    mode = args.subcommand or args.mode or cfg.get("mode")
    if mode not in MODES:
        raise ConfigError(f"no valid mode given (got {mode!r})")
    cfg["mode"] = mode
    for key, field in (("seed", "seed"), ("out_dir", "out_dir"),
                       ("sigma0", "sigma0"), ("lambda", "lam"), ("eta", "eta")):
        val = getattr(args, field, None)
        if val is not None:
            cfg[key] = val
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        summary = MODES[cfg["mode"]](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlassoError, SdpError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(json.dumps(summary, sort_keys=True))
    if getattr(args, "check", False) and not summary["passes"]:
        return EXIT_ASSERT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
