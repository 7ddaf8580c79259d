"""One workload process of the benchmark (started by run.py).

Pins BLAS to one thread before numpy is imported, imports chebspike from
the checkout's `src`, times set-up (imports plus one warm-up case), then
runs the workload's seeded cases as a closed loop: one case at a time, the
next starting when the previous returns.  Prints one JSON object on its
last stdout line for run.py to report.

Modes: --setup-only stops after set-up; --trace 1 runs a fixed batch of
cases in whole passes, each case once untraced and once traced, and reports
per-layer metrics instead of end-to-end ones.
"""

import os
import sys
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def environment(args) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
    }


def case_rng(seed: int, index: int):
    import numpy as np
    # case `index` of a seed is the same whatever ran before it
    return np.random.default_rng([seed, index + 1])


# the warm-up case is the same for every seed, so that set-up time does not
# vary with the case drawn
WARMUP = (0, -1)


def run_case(case):
    """(seconds, failure reason or None, whether the call raised)."""
    start = time.perf_counter()
    try:
        out = case.run()
    except Exception as exc:   # a failing case is counted, not fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", True
    elapsed = time.perf_counter() - start
    return elapsed, case.check(out), False


def tail(times):
    """Value at the highest percentile with at least ten cases beyond it,
    never below the median; returns (value, percentile)."""
    n = len(times)
    if n <= 20:
        return statistics.median(times), 50.0
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def make_batch(wl, args, size, workdir):
    """The first `size` cases of the seed, generated before timing starts."""
    return [wl.make_case(case_rng(args.seed, i), workdir)
            for i in range(max(1, size))]


def whole_passes(seconds, one_pass):
    """Call one_pass(k) for k = 0, 1, ... and stop when the next pass is
    not expected to end within `seconds`.  Whole passes keep counts and
    failure shares identical between runs of one seed.  Returns the number
    of passes and their wall time."""
    start = time.perf_counter()
    k = 0
    while True:
        one_pass(k)
        k += 1
        wall = time.perf_counter() - start
        if wall * (k + 1) / k > seconds:
            return k, wall


def failure_fields(failures, raised) -> dict:
    """`failed` counts cases that raised or missed their gate; `correct`
    is false when some case raised, so its output could not be checked."""
    return {"attempted": len(failures),
            "failed": sum(f is not None for f in failures),
            "correct": not any(raised),
            "failures": sorted({f for f in failures if f is not None})}


def measure(wl, args, workdir) -> dict:
    batch = make_batch(wl, args, round(args.seconds * wl.nominal_rate),
                       workdir)
    times, failures, raised = [], [], []

    def one_pass(k):
        for case in batch:
            elapsed, failure, crashed = run_case(case)
            times.append(elapsed)
            failures.append(failure)
            raised.append(crashed)

    passes, wall = whole_passes(args.seconds, one_pass)
    result = failure_fields(failures, raised)
    n, failed = result["attempted"], result["failed"]
    tail_s, tail_pct = tail(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["metrics"] = {
        # wall time of the loop, correctness checks included
        "cases_per_s": [n / wall, "1/s"],
        "case_s.p50": [statistics.median(times), "s"],
        "case_s.tail": [tail_s, "s"],
        "pass_frac": [(n - failed) / n, "frac"],
        "fail_frac": [failed / n, "frac"],
        "peak_rss_mb": [peak_kb / 1024.0, "MB"],
    }
    result["notes"] = {"case_s.tail": f"p{tail_pct:.1f} of {n} cases",
                       "batch": len(batch), "passes": passes}
    return result


def measure_traced(wl, args, workdir) -> dict:
    """Each case runs once untraced and once traced, in alternating order;
    the traced runs give the per-layer metrics, the pair their overhead."""
    import tracing
    from workloads import Case
    tracer = tracing.Tracer()
    batch = make_batch(wl, args, round(args.seconds * wl.nominal_rate / 2),
                       workdir)
    plain, traced, failures, raised = [], [], [], []

    def traced_run(case):
        tracer.case = len(traced)
        root = Case(run=lambda: tracer.run_root(wl.root_span, case.run),
                    check=case.check)
        with tracer:
            elapsed, failure, crashed = run_case(root)
        traced.append(elapsed)
        failures.append(failure)
        raised.append(crashed)

    def one_pass(k):
        for case in batch:
            if k % 2:
                traced_run(case)
            plain.append(run_case(case)[0])
            if not k % 2:
                traced_run(case)

    passes, _ = whole_passes(args.seconds, one_pass)
    n = len(traced)
    missing = set(wl.expected_spans) | {wl.root_span}
    missing -= {s.name for s in tracer.spans}
    if missing:
        raise tracing.TraceError(f"spans never recorded: {sorted(missing)}")
    layers = tracing.layer_metrics(tracer.spans, n)
    closure = tracing.closure(layers, sum(traced) / n)
    if abs(closure) > 0.01:
        raise tracing.TraceError(
            f"layer times sum to {1 + closure:.4f} of the case wall time")
    layers["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with spans_path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")
    result = failure_fields(failures, raised)
    result["metrics"] = {k: [v, tracing.UNITS[k]] for k, v in layers.items()}
    result["notes"] = {"batch": len(batch), "passes": passes,
                       "closure": closure,
                       "spans": str(spans_path.relative_to(ROOT)),
                       "case_s.p50.traced": statistics.median(traced),
                       "case_s.p50.untraced": statistics.median(plain),
                       "overhead.paired_median": statistics.median(
                           t / p for t, p in zip(traced, plain)) - 1.0}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chebspike
    if Path(chebspike.__file__).resolve().parent != (src / "chebspike").resolve():
        print(f"perfbench: imported chebspike from {chebspike.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads
    table = workloads.workloads(tiny=args.tiny)
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        _, warm_failure, warm_raised = run_case(
            wl.make_case(case_rng(*WARMUP), workdir))
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = (measure_traced if args.trace else measure)(wl, args,
                                                                 workdir)
            result["setup_s"] = setup_s
            result["correct"] = result["correct"] and not warm_raised
            result["env"] = environment(args)
            result["size"] = wl.size
    result["warmup_failure"] = warm_failure
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
