#!/usr/bin/env python3
"""Runs the serving benchmark N times per set and summarizes the results.

Run from the root of the checkout:

    python3 servebench/summarize.py --workload naru-distinct --runs 10 \
        [--sets 2] [--first-seed 1] [--seconds 10] [--trace] [--smoke] \
        [--out results.jsonl]

Each run gets its own seed (set k uses first_seed + k*runs onward). For every
metric it prints the median, the quartiles (statistics.quantiles, n=4), min,
max and the quartile spread as a share of the median. For end-to-end metrics
it checks each set's spread against the bound in BENCHMARK.json (setup_s
excepted), and with two or more sets whether each later set's median is no
worse than the first's by more than the bound and whether the share of
failed operations is the same. Exit code 0 when every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def run_once(workload, seed, seconds, trace, smoke):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"] + (["--smoke"] if smoke else [])
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                      out.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        values[0],) * 3
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, min(values), max(values), spread


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds
    ok = True
    out = open(args.out, "a") if args.out else None
    for workload in args.workload:
        sets = []
        for k in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                result = run_once(workload, seed, seconds, args.trace,
                                  args.smoke)
                if out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "trace": args.trace,
                                          "result": result}) + "\n")
                    out.flush()
                if not result["correct"]:
                    ok = False
                    print("%s seed %d: outputs incorrect" % (workload, seed))
                results.append(result)
            sets.append(results)
        for k, results in enumerate(sets):
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print("\n%s, set %d: %d runs, failed %d of %d" % (
                workload, k + 1, len(results), failed, attempted))
            print("  %-28s %14s %14s %14s %14s %14s %8s" % (
                "metric", "median", "q1", "q3", "min", "max", "spread"))
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, lo, hi, spread = summary(values)
                verdict = ""
                bound = bounds.get(name)
                if bound and name != "setup_s" and len(values) > 1:
                    within = spread <= bound["bound"]
                    ok = ok and within
                    verdict = "ok" if within else "SPREAD > %.3g" % bound["bound"]
                print("  %-28s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %s" % (
                    name, median, q1, q3, lo, hi, spread, verdict))
        for k in range(1, len(sets)):
            first, later = sets[0], sets[k]
            share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                     for s in (first, later)]
            agree = share[0] == share[1]
            for name, bound in bounds.items():
                if name not in first[0]["metrics"]:
                    continue
                a = statistics.median(r["metrics"][name]["value"] for r in first)
                b = statistics.median(r["metrics"][name]["value"] for r in later)
                worse = (b - a) / a if bound["better"] == "lower" else (a - b) / a
                if worse > bound["bound"]:
                    agree = False
                    print("  %s: set %d median %.6g vs %.6g, worse by %.3f > %.3g"
                          % (name, k + 1, b, a, worse, bound["bound"]))
            ok = ok and agree
            print("%s: set %d %s set 1 within the bounds" % (
                workload, k + 1, "agrees with" if agree else "DISAGREES with"))
    if out:
        out.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
