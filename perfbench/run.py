#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark and the varpred library
sources beside it (src/) are built with CMake into the directory named by
CARGO_TARGET_DIR (default .bench_build), then the perfbench binary runs the
workload. Its standard output is passed through; the last line is the
result object. The latency limit that max_qps is measured against is read
from the serve_mix entry of BENCHMARK.json ("p99 limit N ms").
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def p99_limit_ms(benchmark):
    for w in benchmark.get("workloads", []):
        if w.get("name") == "serve_mix":
            m = re.search(r"p99 limit ([0-9]+(?:\.[0-9]+)?) ms", w.get("why", ""))
            if m:
                return m.group(1)
    fail("BENCHMARK.json names no 'p99 limit N ms' for serve_mix")


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False, env=env)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w.get("name") for w in benchmark.get("workloads", [])]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {names}")
    limit = p99_limit_ms(benchmark)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    # Compilers' temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=work_dir)
    binary = build(build_dir, env)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--p99-limit-ms", limit, "--work-dir", work_dir]
    # A terminated run.py stops the workload too (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    returncode = child.returncode
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(stdout, end="", flush=True)
        fail(f"workload printed no result (exit {returncode})")
    print("\n".join(lines[:-1]), flush=True)
    # The reported metrics must be exactly the ones BENCHMARK.json declares.
    declared = {m["name"]: m["unit"] for m in
                benchmark["per_layer" if args.trace else "end_to_end"]}
    reported = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if result.get("correct") and reported != declared:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(reported.items()) ^ set(declared.items()))}",
              file=sys.stderr)
        result = {"correct": False, "attempted": result.get("attempted", 1),
                  "failed": result.get("failed", 0), "metrics": {}}
        returncode = returncode or 1
    print(json.dumps(result), flush=True)
    sys.exit(returncode)


if __name__ == "__main__":
    main()
