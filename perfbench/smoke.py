"""Seconds-long smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload, declared or not, at tiny sizes (--tiny, m = 8 to 16)
with and without tracing.  Checks that the result line has the keys and
metrics BENCHMARK.json declares, that no declared time reads 0 on a
declared workload, and that every metric the benchmark defines is printed
by name with its unit.  Then checks that the benchmark refuses to run,
without printing a result, in a directory that holds only BENCHMARK.json
and perfbench/.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the declared workloads plus `degenerate`, which runs by hand only
WORKLOADS = ("spikes-m128", "spline-cli", "degenerate")
END_TO_END = {"cases_per_s": "1/s", "case_s.p50": "s", "case_s.tail": "s",
              "pass_frac": "frac", "fail_frac": "frac", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "sdp.solve_s": "s", "sdp.iterations": "count", "sdp.iter_ms": "ms",
    "sdp.solve_calls": "count", "sdp.retry_frac": "frac",
    "blasso.assemble_s": "s", "blasso.fit_s": "s", "blasso.fit_calls": "count",
    "blasso.verify_s": "s", "blasso.self_s": "s",
    "blasso.degenerate_frac": "frac", "blasso.atoms_kept_frac": "frac",
    "chebyshev.level_roots_s": "s", "observation.poly_from_theta_s": "s",
    "splines.projection_s": "s", "splines.integrate_s": "s",
    "diagnostics.report_s": "s", "cli.write_s": "s",
    "cli.bytes_written": "bytes", "cli.self_s": "s",
    "trace.overhead_frac": "frac"}


def bench(cwd: Path, workload: str, trace: int, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace, "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError(f"{where}: bad attempted/failed in {result}")
    declared = spec["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{where}: metrics {got} != declared {want}")
    # a declared time of a layer the workload skips would read 0 every run
    zero = [k for k, v in result["metrics"].items()
            if v["unit"] in ("s", "ms") and v["value"] == 0]
    if zero and workload in {w["name"] for w in spec["workloads"]}:
        raise AssertionError(f"{where}: declared times read 0: {zero}")
    printed = "\n".join(lines[:-1])
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        pattern = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$"
        if not re.search(pattern, printed, re.MULTILINE):
            raise AssertionError(f"{where}: {name} [{unit}] not printed")
    print(f"ok  {where}: {result['attempted']} cases, "
          f"{result['failed']} failed")


def check_bare_directory() -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(bare, "spikes-m128", 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        raise AssertionError("benchmark ran without the chebspike sources")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    if not declared <= set(WORKLOADS):
        raise AssertionError(f"unknown workloads in BENCHMARK.json: {declared}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
