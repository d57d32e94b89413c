#!/usr/bin/env python3
"""Records a set of benchmark runs for compare.py.

    python3 perfbench/record.py OUT.jsonl [--workloads a,b,...] [--seeds 1,2,...]
                                          [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per workload and seed, one after another, and
appends one {"workload", "seed", "trace", "result"} line per run to OUT.jsonl.
A new file starts with a {"meta": ...} line recording the CPU count, the CPU
model and the commit measured. Workloads default to every one in
BENCHMARK.json. To compare two commits, record each from its own checkout,
alternating which one runs first, then run compare.py on the two files.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]

    status = 0
    with open(args.out, "a") as out:
        if out.tell() == 0:
            meta = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "commit": commit(), "seconds": seconds}
            out.write(json.dumps({"meta": meta}) + "\n")
        for workload in workloads:
            for seed in seeds:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.splitlines()
                if not lines or not lines[-1].startswith("{"):
                    print(f"record: {workload} seed {seed} printed no result "
                          f"(exit {proc.returncode})", file=sys.stderr)
                    status = 1
                    continue
                status |= proc.returncode != 0
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "result": json.loads(lines[-1])}) + "\n")
                out.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
