"""Spans around chebspike's public module-level functions, recorded from
outside the program.

Callers inside chebspike look these names up in a module's namespace at
call time (`sdp.solve(...)` in blasso, `solve_blasso(...)` in cli), so
rebinding the name to a wrapper in the traced process puts a span around
every call made through it.  Only public names are wrapped; a boundary that
no longer exists stops the traced run instead of reporting zeros.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


class TraceError(Exception):
    """A trace boundary is missing or the span tree does not add up."""


@dataclass
class Span:
    id: int
    parent: int | None
    case: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Boundary:
    module: str        # namespace the caller looks the name up in
    attr: str
    span: str          # layer.function of the code behind the name
    # (span, args, result) -> None, records counts at the boundary
    observe: Callable | None = None


def _iterations(span, args, out):
    span.attrs["iterations"] = int(out.iterations)


def _points(span, args, out):
    span.attrs["points"] = int(len(out))


def _solution(span, args, out):
    span.attrs["atoms"] = len(out.measure)
    span.attrs["degenerate"] = bool(out.degenerate)


def _bytes(span, args, out):
    span.attrs["bytes"] = Path(args[0]).stat().st_size


BOUNDARIES = (
    Boundary("chebspike.sdp", "solve", "sdp.solve", _iterations),
    Boundary("chebspike.blasso", "assemble_dual_sdp", "blasso.assemble_dual_sdp"),
    Boundary("chebspike.blasso", "unit_level_roots",
             "chebyshev.unit_level_roots", _points),
    Boundary("chebspike.blasso", "fit_weights", "blasso.fit_weights"),
    Boundary("chebspike.blasso", "verify_first_order",
             "blasso.verify_first_order"),
    Boundary("chebspike.cli", "solve_blasso", "blasso.solve_blasso", _solution),
    Boundary("chebspike.cli", "projection_vector", "splines.projection_vector"),
    Boundary("chebspike.cli", "polynomial_from_theta",
             "observation.polynomial_from_theta"),
    Boundary("chebspike.cli", "integrate_from_spikes",
             "splines.integrate_from_spikes"),
    Boundary("chebspike.cli", "spline_jump_report",
             "diagnostics.spline_jump_report"),
    Boundary("chebspike.cli", "write_csv", "cli.write_csv", _bytes),
    Boundary("chebspike.cli", "write_json", "cli.write_json", _bytes),
)


class Tracer:
    """Records spans in memory while installed (use as a context manager)."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[Span] = []
        self.case = -1
        self._stack: list[int] = []
        self._saved: list = []
        for b in boundaries:
            fn = getattr(importlib.import_module(b.module), b.attr, None)
            if not callable(fn):
                raise TraceError(f"trace boundary {b.module}.{b.attr} does "
                                 f"not exist; update perfbench/tracing.py")

    def __enter__(self):
        for b in self.boundaries:
            mod = importlib.import_module(b.module)
            fn = getattr(mod, b.attr)
            self._saved.append((mod, b.attr, fn))
            setattr(mod, b.attr, self._wrap(fn, b))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    self.case, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, boundary: Boundary):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(boundary.span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if boundary.observe is not None:
                boundary.observe(span, args, out)
            return out
        return traced

    def run_root(self, name: str, call):
        """Run `call` inside a root span the benchmark opens itself, with
        the observer of the boundary that records spans of that name."""
        span = self._open(name)
        try:
            out = call()
        finally:
            self._close(span)
        for b in self.boundaries:
            if b.span == name and b.observe is not None:
                b.observe(span, (), out)
        return out


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its child spans.  Spans
    nest strictly (one thread, one stack), so children never overlap."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


# per-layer time metric -> the spans whose durations it sums
LAYER_TIMES = {
    "sdp.solve_s": "sdp.solve",
    "blasso.assemble_s": "blasso.assemble_dual_sdp",
    "blasso.fit_s": "blasso.fit_weights",
    "blasso.verify_s": "blasso.verify_first_order",
    "chebyshev.level_roots_s": "chebyshev.unit_level_roots",
    "observation.poly_from_theta_s": "observation.polynomial_from_theta",
    "splines.projection_s": "splines.projection_vector",
    "splines.integrate_s": "splines.integrate_from_spikes",
    "diagnostics.report_s": "diagnostics.spline_jump_report",
    "cli.write_s": ("cli.write_csv", "cli.write_json"),
}
# per-layer time metric -> the span whose self time it sums
SELF_TIMES = {"blasso.self_s": "blasso.solve_blasso",
              "cli.self_s": "cli.run_recover_spline"}


UNITS = {**{k: "s" for k in (*LAYER_TIMES, *SELF_TIMES)},
         "sdp.iterations": "count", "sdp.iter_ms": "ms",
         "sdp.solve_calls": "count", "sdp.retry_frac": "frac",
         "blasso.fit_calls": "count", "blasso.degenerate_frac": "frac",
         "blasso.atoms_kept_frac": "frac", "cli.bytes_written": "bytes",
         "trace.overhead_frac": "frac"}


def closure(layers: dict, case_wall_s: float) -> float:
    """Relative difference between the per-case layer times, which split
    each case's root span into disjoint parts, and the case wall time the
    benchmark measured around the call."""
    total = sum(layers[k] for k in (*LAYER_TIMES, *SELF_TIMES))
    return total / case_wall_s - 1.0


def layer_metrics(spans, n_cases: int) -> dict:
    """Per-case layer metrics over `n_cases` traced cases.  Values are None
    where a ratio has no base (no level-set points were found)."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        count[s.name] = count.get(s.name, 0) + 1
    out = {}
    for metric, names in LAYER_TIMES.items():
        names = (names,) if isinstance(names, str) else names
        out[metric] = sum(total.get(n, 0.0) for n in names) / n_cases
    for metric, name in SELF_TIMES.items():
        out[metric] = own.get(name, 0.0) / n_cases

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    iterations = attr_sum("sdp.solve", "iterations")
    solves_per_case: dict[int, int] = {}
    for s in spans:
        if s.name == "sdp.solve":
            solves_per_case[s.case] = solves_per_case.get(s.case, 0) + 1
    blasso_runs = [s for s in spans if s.name == "blasso.solve_blasso"]
    points = attr_sum("chebyshev.unit_level_roots", "points")
    # a solve that raised carries no attributes
    atoms = sum(s.attrs.get("atoms", 0) for s in blasso_runs
                if not s.attrs.get("degenerate"))
    out.update({
        "sdp.iterations": iterations / n_cases,
        "sdp.iter_ms": 1e3 * total.get("sdp.solve", 0.0) / iterations
        if iterations else None,
        "sdp.solve_calls": count.get("sdp.solve", 0) / n_cases,
        "sdp.retry_frac": sum(k > 1 for k in solves_per_case.values()) / n_cases,
        "blasso.fit_calls": count.get("blasso.fit_weights", 0) / n_cases,
        "blasso.degenerate_frac":
            sum(s.attrs.get("degenerate", False) for s in blasso_runs)
            / n_cases,
        "blasso.atoms_kept_frac": atoms / points if points else None,
        "cli.bytes_written": (attr_sum("cli.write_csv", "bytes")
                              + attr_sum("cli.write_json", "bytes")) / n_cases,
    })
    return out

