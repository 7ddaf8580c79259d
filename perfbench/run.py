"""chebspike benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and perfbench/README.md) in a worker
process with BLAS pinned to one thread, as a closed loop of seeded cases
for S seconds, checks every case against the acceptance suite's per-run
bounds, and prints each metric by name with its unit.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}, holding
the end-to-end metrics with --trace 0 and the per-layer metrics of the
traced run with --trace 1.  Set-up time is the median over several fresh
worker processes.

--tiny shrinks every workload for the harness smoke test.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# every run must end within 180 s; leave room to report
DEADLINE_S = 170.0
SETUP_SAMPLES = 5


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def spawn(worker_args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    declared = declared_metrics(args.trace)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--tiny"] * args.tiny
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(common + ["--seconds", "0", "--setup-only"],
                                deadline)["setup_s"])
    res = spawn(common + ["--seconds", repr(args.seconds),
                          "--trace", str(args.trace)], deadline)
    setups.append(res["setup_s"])
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = [statistics.median(setups), "s"]
        res["notes"]["setup_s.samples"] = setups

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{res['size']}; closed loop, 1 client")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>12s} {unit}")
    print("notes " + json.dumps(res["notes"], sort_keys=True))
    for reason in res["failures"]:
        print(f"FAILED: {reason}", file=sys.stderr)
    if res["warmup_failure"]:
        print(f"FAILED (warm-up case, not counted): {res['warmup_failure']}",
              file=sys.stderr)

    out = {}
    for name, unit in declared.items():
        if name not in metrics or metrics[name][0] is None:
            raise BenchError(f"metric {name} was not measured")
        if metrics[name][1] != unit:
            raise BenchError(f"metric {name} measured in {metrics[name][1]},"
                             f" declared in {unit}")
        out[name] = {"value": metrics[name][0], "unit": unit}
    return {"correct": res["correct"],
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": out}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chebspike" / "__init__.py").is_file():
        print(f"perfbench: no chebspike sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
