"""Pass/fail margins for recovery runs: the global weighted-distance control,
per-spike local weight control, large-spike localization radius, and the
prediction inequality over random test polynomials."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .chebyshev import cheb_grid
from .measures import DiscreteMeasure, moments, phi_matrix


@dataclass(frozen=True)
class RecoveryConstants:
    c0: float = 1.0361
    c1: float = 235.85
    c2: float = 220.72


DEFAULT_CONSTANTS = RecoveryConstants()


def global_control(x_hat: DiscreteMeasure, true_support, m: int) -> float:
    """sum over recovered atoms of |weight| * min(m^2 d(.,support)^2, c0^2);
    bounded by c1 * lam on successful runs."""
    if x_hat.is_empty:
        return 0.0
    ts = np.atleast_1d(np.asarray(true_support, dtype=float))
    d = np.abs(np.arccos(x_hat.support)[:, None] - np.arccos(ts)[None, :]).min(axis=1)
    caps = np.minimum(m ** 2 * d ** 2, DEFAULT_CONSTANTS.c0 ** 2)
    return float(np.abs(x_hat.weights) @ caps)


def local_control(x_hat: DiscreteMeasure, x: DiscreteMeasure, m: int) -> np.ndarray:
    """Per true spike: |true weight - sum of recovered weights within arccos
    radius c0/m| (ties on the closed ball count as inside)."""
    out = np.empty(len(x))
    radius = DEFAULT_CONSTANTS.c0 / m
    for i, (ti, ai) in enumerate(zip(x.support, x.weights)):
        if x_hat.is_empty:
            out[i] = abs(ai)
            continue
        d = np.abs(np.arccos(x_hat.support) - np.arccos(ti))
        out[i] = abs(ai - x_hat.weights[d <= radius].sum())
    return out


def localization_radius(amplitude: float, lam: float, m: int) -> float:
    """Guaranteed detection radius sqrt(c1 lam / (|a| - c2 lam)) / m for a
    spike of the given amplitude; +inf when the amplitude is too small for
    any guarantee."""
    c = DEFAULT_CONSTANTS
    if abs(amplitude) <= c.c2 * lam:
        return np.inf
    return float(np.sqrt(c.c1 * lam / (abs(amplitude) - c.c2 * lam)) / m)


def localization_check(x_hat: DiscreteMeasure, x: DiscreteMeasure, lam: float,
                       m: int):
    """For each true spike above the guarantee threshold, the required
    radius, the achieved distance to the nearest recovered atom, and whether
    the radius was met."""
    rows = []
    for ti, ai in zip(x.support, x.weights):
        req = localization_radius(ai, lam, m)
        if not np.isfinite(req):
            continue
        if x_hat.is_empty:
            rows.append({"location": float(ti), "required_radius": req,
                         "achieved_distance": np.inf, "ok": False})
            continue
        d = float(np.abs(np.arccos(x_hat.support) - np.arccos(ti)).min())
        rows.append({"location": float(ti), "required_radius": req,
                     "achieved_distance": d, "ok": bool(d <= req)})
    return rows


def prediction_margin(x_hat: DiscreteMeasure, x: DiscreteMeasure, lam: float,
                      lam0: float, m: int, trials: int, seed=0) -> float:
    """Worst margin of |integral of P d(x_hat - x)| - (lam + lam0) over
    random degree-m test polynomials normalized to unit sup norm on a dense
    grid; nonpositive when the noise calibration dominates."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    diff = moments(x_hat, m) - moments(x, m)
    grid = cheb_grid(4 * max(m, 1))
    Phi = phi_matrix(grid, m)
    coeffs = rng.standard_normal((trials, m + 1))
    sup = np.abs(coeffs @ Phi).max(axis=1)
    coeffs /= sup[:, None]
    vals = np.abs(coeffs @ diff)
    return float(vals.max() - (lam + lam0))


@dataclass(frozen=True)
class RecoveryReport:
    global_control: float
    local_controls: list
    localization: list
    prediction_margin: float | None
    lam: float
    m: int

    def global_ok(self) -> bool:
        return self.global_control <= DEFAULT_CONSTANTS.c1 * self.lam

    def local_ok(self) -> bool:
        return all(v <= DEFAULT_CONSTANTS.c2 * self.lam for v in self.local_controls)

    def localization_ok(self) -> bool:
        return all(row["ok"] for row in self.localization)

    def passes(self) -> bool:
        ok = self.global_ok() and self.local_ok() and self.localization_ok()
        if self.prediction_margin is not None:
            ok = ok and self.prediction_margin <= 0.0
        return ok

    def to_dict(self) -> dict:
        return {
            "global_control": self.global_control,
            "local_controls": list(self.local_controls),
            "localization": self.localization,
            "prediction_margin": self.prediction_margin,
            "lam": self.lam, "m": self.m,
            "constants": asdict(DEFAULT_CONSTANTS),
            "global_ok": self.global_ok(), "local_ok": self.local_ok(),
            "localization_ok": self.localization_ok(), "passes": self.passes(),
        }


def recovery_report(x_hat: DiscreteMeasure, x: DiscreteMeasure, lam: float,
                    m: int, lam0: float | None = None,
                    prediction_trials: int = 0, seed=0) -> RecoveryReport:
    margin = None
    if prediction_trials:
        margin = prediction_margin(x_hat, x, lam, lam0 if lam0 is not None else 0.0,
                                   m, prediction_trials, seed)
    return RecoveryReport(
        global_control=global_control(x_hat, x.support, m),
        local_controls=local_control(x_hat, x, m).tolist(),
        localization=localization_check(x_hat, x, lam, m),
        prediction_margin=margin, lam=lam, m=m)


def spline_jump_report(f_hat, f, lam: float, m: int) -> RecoveryReport:
    """Recovery report for splines: the derivative-jump measures play the
    role of the spike amplitudes."""
    from .splines import distributional_derivative
    if f_hat.degree != f.degree:
        raise ValueError("spline degrees differ")
    return recovery_report(distributional_derivative(f_hat),
                           distributional_derivative(f), lam, m)
