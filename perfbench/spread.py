#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--trace 0|1]

For every metric: the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json and a third of it, the target for a steady benchmark. Run
from the root of a checkout; each run goes through perfbench/run.py with
BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(benchmark["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {done.returncode})")
            print("\n".join(lines[-15:]))
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: ok", flush=True)

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'bound/3':>7}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "" if spread < bound / 3 else (
                "  above bound/3" if spread <= bound else "  ABOVE BOUND")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6} "
              f"{bound / 3 if bound is not None else '':>7.4}{flag}")


if __name__ == "__main__":
    main()
