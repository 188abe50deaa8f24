"""Run one benchmark workload against real logstore node processes.

    python3 perfbench/run.py --workload hot-get --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports logstore from ./src and starts
the node(s) as separate processes.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.
The line before it holds the tail percentiles with their sample counts.  The
exit code is non-zero when an end-of-run check fails or nothing could run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # a run must end within 180 s; past this it is abandoned
TRACED_E2E = "e2e under tracing: "


class Abandoned(Exception):
    pass


def _abandon(signum, _frame):
    raise Abandoned(f"signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few hundred keys, one set-up, one restart (smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "logstore" / "__init__.py").is_file():
        print(f"no logstore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import E2E_UNITS, LAYER_UNITS, Run
    from workloads import WORKLOADS, tiny

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = tiny(spec)

    signal.signal(signal.SIGTERM, _abandon)
    signal.signal(signal.SIGALRM, _abandon)
    signal.alarm(DEADLINE_S)
    run = Run(spec, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except Exception as exc:
        print(f"run abandoned: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        run.close()

    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    tails = {k: round(v, 3) if isinstance(v, float) else v
             for k, v in result["tails"].items()}
    if args.trace:
        # the same end-to-end figures, slowed by the spans: traced minus
        # untraced is the tracing overhead
        print(TRACED_E2E + json.dumps(result["e2e"]))
        units, values = LAYER_UNITS, result["layers"]
    else:
        units, values = E2E_UNITS, result["e2e"]
    print("tails: " + json.dumps(tails))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
