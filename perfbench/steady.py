"""Steadiness check: run a workload many times and report each metric's spread.

    python3 perfbench/steady.py --workload hot-get --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --first-seed 101

Runs run.py one after another, each with the next seed, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and that spread as a share of the metric's bound in
BENCHMARK.json.  A bound is safe when every spread seen is below a third of
it.  Also prints the failed share of every run and each run's wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import TRACED_E2E

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(TRACED_E2E):
            result["traced_e2e"] = json.loads(line[len(TRACED_E2E):])
    return result, wall


def report(workload: str, runs: list[dict], walls: list[float], bounds: dict) -> None:
    print(f"\n== {workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s "
          f"(mean {statistics.mean(walls):.1f} s)")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}")
    table(runs, lambda r: {k: v["value"] for k, v in r["metrics"].items()}, bounds)
    if "traced_e2e" in runs[0]:
        print("end-to-end figures of the same traced runs (traced minus untraced "
              "is the tracing overhead):")
        table(runs, lambda r: r["traced_e2e"], {})


def table(runs: list[dict], values, bounds: dict) -> None:
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}"
          f"{'/bound':>8}")
    for name in values(runs[0]):
        xs = [values(r)[name] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = f"{(q3 - q1) / med:9.3f}" if med else f"{'-':>9}"
        bound = bounds.get(name)
        ratio = f"{(q3 - q1) / med / bound:8.2f}" if bound and med else f"{'':>8}"
        print(f"{name:<34}{med:12.4f}{q1:12.4f}{q3:12.4f}{spread}"
              f"{bound if bound is not None else '':>7}{ratio}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    for workload in workloads:
        runs, walls = [], []
        for i in range(args.runs):
            result, wall = run_once(workload, args.first_seed + i, seconds, args.trace)
            runs.append(result)
            walls.append(wall)
            print(f"{workload} seed {args.first_seed + i}: {wall:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        report(workload, runs, walls, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
