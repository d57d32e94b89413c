#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload and metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
    python3 perfbench/compare.py --selftest

Each input holds one JSON record per line, as perfbench/record.py writes them:
{"workload": NAME, "seed": N, "trace": 0, "result": <the harness's JSON line>}.
Lines with a "meta" key and traced runs are skipped. For every workload and
every end-to-end metric of BENCHMARK.json the report gives each side's median
and quartiles, the change against the parent, the metric's bound, the share
of pairs the change won (run i of one side against run i of the other) and a
verdict:

  regression  the change's median is worse than the parent's by more than the bound
  gain        the change won at least 9/10 of the pairs and the medians differ
              by more than the parent's interquartile range
  unresolved  the parent's interquartile range is wider than the bound, so
              "no change" cannot be told apart from noise
  same        none of the above

failed_frac (failed over attempted operations) is reported per workload; any
rise in it, or a run whose checks failed, is a regression. The exit code is 1
when anything regressed or a workload is missing from the change, else 0.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

GAIN_SHARE = 0.9


def load_runs(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "meta" in rec or rec.get("trace", 0):
                continue
            runs[rec["workload"]].append(rec["result"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(parent, change, better, bound):
    """Returns the report row for one metric; values are lists of floats."""
    sign = 1.0 if better == "lower" else -1.0  # positive deltas are worse
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    worse_by = sign * (cmed - pmed) / pmed if pmed else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    parent_iqr = p3 - p1
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if worse_by > bound:
        verdict = "regression"
    elif share >= GAIN_SHARE and sign * (pmed - cmed) > parent_iqr:
        verdict = "gain"
    elif pmed and parent_iqr / abs(pmed) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"parent": (p1, pmed, p3), "change": (c1, cmed, c3),
            "worse_by": worse_by, "bound": bound, "wins": share,
            "verdict": verdict}


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 1.0


def compare(parent_runs, change_runs, metrics):
    """Returns (report rows, regressed) for two {workload: [result]} maps."""
    rows = []
    regressed = False
    for workload in sorted(parent_runs):
        parent = parent_runs[workload]
        change = change_runs.get(workload, [])
        if not change:
            rows.append({"workload": workload, "metric": "*",
                         "verdict": "missing"})
            regressed = True
            continue
        for m in metrics:
            row = compare_metric(
                [r["metrics"][m["name"]]["value"] for r in parent],
                [r["metrics"][m["name"]]["value"] for r in change],
                m["better"], m["bound"])
            row.update(workload=workload, metric=m["name"], unit=m["unit"])
            regressed |= row["verdict"] == "regression"
            rows.append(row)
        pf, cf = failed_frac(parent), failed_frac(change)
        incorrect = sum(1 for r in change if not r["correct"])
        bad = cf > pf or incorrect > 0
        rows.append({"workload": workload, "metric": "failed_frac",
                     "parent_frac": pf, "change_frac": cf,
                     "incorrect_runs": incorrect,
                     "verdict": "regression" if bad else "same"})
        regressed |= bad
    return rows, regressed


def print_report(rows):
    print(f"{'workload':22} {'metric':14} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'worse_by':>9} {'bound':>6} "
          f"{'wins':>5}  verdict")
    for r in rows:
        if r["metric"] == "*":
            print(f"{r['workload']:22} {'*':14} {'':34} {'':34} {'':>9} "
                  f"{'':>6} {'':>5}  missing")
        elif r["metric"] == "failed_frac":
            print(f"{r['workload']:22} {'failed_frac':14} "
                  f"{r['parent_frac']:<34.3g} {r['change_frac']:<34.3g} "
                  f"{'':>9} {0:>6} {'':>5}  {r['verdict']}"
                  + (f" ({r['incorrect_runs']} incorrect runs)"
                     if r["incorrect_runs"] else ""))
        else:
            p1, pm, p3 = r["parent"]
            c1, cm, c3 = r["change"]
            print(f"{r['workload']:22} {r['metric']:14} "
                  f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':34} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':34} "
                  f"{r['worse_by'] * 100:8.2f}% {r['bound'] * 100:5.1f}% "
                  f"{r['wins']:5.2f}  {r['verdict']}")


def selftest():
    metrics = [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.05},
    ]

    def runs(ops, p50, failed=0):
        return {"w": [{"correct": failed == 0, "attempted": 1000,
                       "failed": failed,
                       "metrics": {"ops_per_s": {"value": o, "unit": "1/s"},
                                   "op_p50_us": {"value": l, "unit": "us"}}}
                      for o, l in zip(ops, p50)]}

    def verdicts(parent, change):
        rows, regressed = compare(parent, change, metrics)
        return {r["metric"]: r["verdict"] for r in rows}, regressed

    base = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [10] * 10)
    checks = [
        ("identical sets", base, base,
         {"ops_per_s": "same", "op_p50_us": "same", "failed_frac": "same"},
         False),
        ("20% slower", base,
         runs([80, 81, 79, 80, 82, 78, 80, 81, 79, 80], [10] * 10),
         {"ops_per_s": "regression"}, True),
        ("15% faster in every pair", base,
         runs([115, 116, 114, 115, 117, 113, 115, 116, 114, 115],
              [9] * 10),
         {"ops_per_s": "gain", "op_p50_us": "gain"}, False),
        ("noisy parent", runs([70, 130, 80, 120, 100, 90, 110, 75, 125, 100],
                              [10] * 10),
         runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [10] * 10),
         {"ops_per_s": "unresolved"}, False),
        ("failures appear", base,
         runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [10] * 10,
              failed=1),
         {"failed_frac": "regression"}, True),
        ("workload missing", base, {}, {"*": "missing"}, True),
    ]
    ok = True
    for name, parent, change, want, want_regressed in checks:
        got, regressed = verdicts(parent, change)
        for metric, verdict in want.items():
            if got.get(metric) != verdict:
                print(f"FAIL {name}: {metric} is {got.get(metric)}, "
                      f"want {verdict}")
                ok = False
        if regressed != want_regressed:
            print(f"FAIL {name}: regressed={regressed}, want {want_regressed}")
            ok = False
    print("compare.py selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        parser.error("PARENT and CHANGE are required")
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    rows, regressed = compare(load_runs(args.parent), load_runs(args.change),
                              metrics)
    print_report(rows)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
