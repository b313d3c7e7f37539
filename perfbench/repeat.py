"""Run the benchmark N times per workload and summarise each metric.

Usage, from the repository root::

    python3 perfbench/repeat.py --runs 10 --seconds 30 \\
        [--workload NAME ...] [--first-seed 1]

Runs are untraced and sequential (one service at a time) with seeds
``first-seed``, ``first-seed + 1``, ...  For every workload and
end-to-end metric it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``),
the quartile spread as a share of the median, and the range, plus the
share of failed operations, which must be the same in every run.  Bounds
in ``BENCHMARK.json`` are chosen from these spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (values[0], med, values[0])
    )
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "min": min(values), "max": max(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    for workload in args.workload or list(WORKLOADS):
        results = []
        for i in range(args.runs):
            t0 = time.monotonic()
            result = run_once(workload, args.first_seed + i, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} run {i} was not correct")
            results.append(result)
            print(f"{workload} seed {args.first_seed + i}: "
                  f"{time.monotonic() - t0:.1f}s", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, failed share "
              f"{', '.join(f'{s:.6f}' for s in shares)}")
        print(f"  {'metric':34} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'min':>12} {'max':>12}")
        for name, first in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            print(f"  {name:34} {first['unit']:6} {stats['median']:12.5g} "
                  f"{stats['q1']:12.5g} {stats['q3']:12.5g} "
                  f"{stats['spread']:7.3f} {stats['min']:12.5g} "
                  f"{stats['max']:12.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
