"""Seeded benchmark workloads: case generators and per-case correctness gates.

A workload turns a random generator into one case: the inputs of a single
call into chebspike, a `run` that makes that call, and a `check` that holds
its output to the acceptance suite's per-run bounds.  chebspike only ever
receives the generated inputs, never a workload name.  The gates are the
acceptance suite's own and must not be loosened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from chebspike import blasso, cli
from chebspike.diagnostics import (DEFAULT_CONSTANTS, global_control,
                                   local_control, localization_check)
from chebspike.measures import DiscreteMeasure
from chebspike.observation import Observation, lambda_rice, simulate
from chebspike.splines import (boundary_vector, integrate_from_spikes,
                               spline_to_dict)


@dataclass(frozen=True)
class Case:
    run: Callable[[], object]
    # None when the output passes its gate, else the reason it failed
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    make_case: Callable[[np.random.Generator, str], Case]
    # span the benchmark opens around `Case.run` in the traced run
    root_span: str
    # spans every traced run of this workload must record; a missing one
    # means a boundary is no longer called through its public name
    expected_spans: tuple
    # cases per second at the parent commit (one BLAS thread, 2-core x86
    # host); a run draws seconds * nominal_rate distinct cases from its seed
    nominal_rate: float


SOLVE_SPANS = ("sdp.solve", "blasso.assemble_dual_sdp",
               "chebyshev.unit_level_roots", "blasso.verify_first_order")
CLI_SPANS = ("blasso.solve_blasso", "blasso.fit_weights",
             "splines.projection_vector", "observation.polynomial_from_theta",
             "splines.integrate_from_spikes",
             "diagnostics.spline_jump_report", "cli.write_csv",
             "cli.write_json")


def _separated_support(rng, n_points: int, m: int, margin: float):
    """Points whose arccos gaps are at least margin * 5*pi/m and whose edge
    distance is at least half that: the separation condition with slack."""
    gap = margin * 5.0 * np.pi / m
    for _ in range(20_000):
        theta = np.sort(rng.uniform(gap / 2.0, np.pi - gap / 2.0, n_points))
        if n_points == 1 or np.diff(theta).min() >= gap:
            return np.sort(np.cos(theta))
    raise ValueError(f"cannot place {n_points} separated points at m={m}")


def spikes(m: int, n_spikes: int, sigma: float = 1e-5) -> Workload:
    """Noisy spike recovery in criterion 5's guarantee regime: d = -1,
    lam = lambda_rice(eta=1), support margin 1.15, amplitudes in [0.8, 2]."""
    lam = lambda_rice(sigma, m, -1, 1.0)
    c = DEFAULT_CONSTANTS
    if 0.8 < 3.0 * c.c2 * lam:
        raise ValueError("amplitudes fall below criterion 5's regime")

    def make_case(rng, workdir) -> Case:
        support = _separated_support(rng, n_spikes, m, 1.15)
        amps = rng.uniform(0.8, 2.0, n_spikes) * rng.choice([-1.0, 1.0], n_spikes)
        x = DiscreteMeasure(support, amps)
        obs = simulate(x, m, -1, sigma, seed=int(rng.integers(2 ** 62)))

        def check(sol) -> str | None:
            kkt = sol.kkt_residuals
            if not sol.duality_gap_rel <= 1e-6:
                return f"relative duality gap {sol.duality_gap_rel:.3e} > 1e-6"
            if not kkt["tv_identity_gap"] <= 1e-6 * lam:
                return f"TV-identity gap {kkt['tv_identity_gap']:.3e} > 1e-6*lam"
            if not kkt["feasibility_gap"] <= 1e-6 * lam:
                return f"feasibility gap {kkt['feasibility_gap']:.3e} > 1e-6*lam"
            if not global_control(sol.measure, x.support, m) <= c.c1 * lam:
                return "global control above c1*lam"
            if not local_control(sol.measure, x, m).max() <= c.c2 * lam:
                return "local control above c2*lam"
            rows = localization_check(sol.measure, x, lam, m)
            if not (rows and all(r["ok"] for r in rows)):
                return "localization check failed"
            return None

        return Case(run=lambda: blasso.solve_blasso(obs, lam), check=check)

    return Workload(
        name=f"spikes-m{m}", size=f"m={m}, {n_spikes} spikes, sigma={sigma:g}",
        make_case=make_case, root_span="blasso.solve_blasso",
        expected_spans=SOLVE_SPANS + ("blasso.fit_weights",), nominal_rate=0.5)


def spline_cli(m: int, degree: int = 2, n_knots: int = 3, sigma0: float = 5e-4,
               jump_scale: float = 1e4) -> Workload:
    """In-process `recover-spline` runs on random splines with inline
    targets.  Jumps of order 1e4, as in criterion 7's panels, sit above the
    calibrated lam (about 1.5e3 at m = 32, sigma0 = 5e-4), so the knots are
    recoverable."""

    def make_case(rng, workdir) -> Case:
        knots = _separated_support(rng, n_knots, m, 1.1)
        jumps = jump_scale * rng.uniform(0.8, 1.25, n_knots) \
            * rng.choice([-1.0, 1.0], n_knots)
        left = np.concatenate([rng.uniform(-1.0, 1.0, degree + 1),
                               np.zeros(degree + 1)])
        f = integrate_from_spikes(DiscreteMeasure(knots, jumps), left, degree)
        b = boundary_vector(f)
        cfg = {"m": m, "sigma0": sigma0, "seed": int(rng.integers(2 ** 62)),
               "out_dir": workdir, "target": {"spline": spline_to_dict(f)}}

        def check(summary) -> str | None:
            if summary["passes"] is not True:
                return "report does not pass"
            limit = 1e-8 * (1.0 + np.abs(b).max())
            if not summary["boundary_residual"] <= limit:
                return (f"boundary residual {summary['boundary_residual']:.3e}"
                        f" > {limit:.3e}")
            if not summary["duality_gap_rel"] <= 1e-6:
                return (f"relative duality gap "
                        f"{summary['duality_gap_rel']:.3e} > 1e-6")
            return None

        return Case(run=lambda: cli.run_recover_spline(cfg), check=check)

    return Workload(
        name="spline-cli",
        size=f"m={m}, degree {degree}, {n_knots} knots, sigma0={sigma0:g}",
        make_case=make_case, root_span="cli.run_recover_spline",
        expected_spans=SOLVE_SPANS + CLI_SPANS, nominal_rate=3.0)


def degenerate(m: int) -> Workload:
    """Constant-dual observations y = c*e0 with lam < c: the dual polynomial
    is the constant -lam, so `solve_blasso` takes its grid fallback."""

    def make_case(rng, workdir) -> Case:
        c = rng.uniform(0.5, 2.0)
        lam = c * rng.uniform(0.2, 0.8)
        y = np.zeros(m + 1)
        y[0] = c
        obs = Observation(y, -1, m, 0.0)

        def check(sol) -> str | None:
            w = sol.measure.weights
            if not sol.degenerate:
                return "solution not flagged degenerate"
            if not abs(w.sum() - (c - lam)) <= 1e-3:
                return f"mass {w.sum():.6f} is not c - lam = {c - lam:.6f}"
            if not np.all(w > 0.0):
                return "nonpositive weight"
            if not len(sol.measure) <= m + 2:
                return f"{len(sol.measure)} atoms > m + 2"
            return None

        return Case(run=lambda: blasso.solve_blasso(obs, lam), check=check)

    return Workload(
        name="degenerate", size=f"m={m}, y = c*e0, lam/c in [0.2, 0.8]",
        make_case=make_case, root_span="blasso.solve_blasso",
        expected_spans=SOLVE_SPANS, nominal_rate=2.5)


def workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads by name; `tiny` shrinks them for the smoke
    test of the harness."""
    if tiny:
        items = (spikes(16, 2), spline_cli(16, n_knots=2), degenerate(8))
        names = ("spikes-m128", "spline-cli", "degenerate")
        return dict(zip(names, items))
    return {w.name: w for w in (spikes(128, 3), spline_cli(32), degenerate(32))}
