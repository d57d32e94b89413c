#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness (perfbench/CMakeLists.txt) is configured and built into
.bench_build/perfbench under the checkout root on first use; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
standard output is the harness's JSON result. The exit code is the harness's
(0 when every check passed), 2 for bad flags or a checkout without the
library sources, and 1 when the build fails or the run exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.h")):
        fail(2, f"no library sources under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail(1, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail(1, "build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(proc.returncode or 1, f"harness exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        fail(1, "harness metrics do not match BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ set(want))}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
