#!/usr/bin/env python3
"""Run each benchmark workload repeatedly and print every metric's spread.

    python3 e2ebench/steadiness.py [--runs 10] [--first-seed 1]
                                   [--workloads a,b] [--trace 0|1]

Run from the repository root. Uses BENCHMARK.json's command, run_seconds
and bounds. For each workload it runs the benchmark --runs times, seed
first-seed, first-seed+1, ..., and prints for each metric the median, the
quartiles (statistics.quantiles(values, n=4)), the interquartile range as
a share of the median, and that spread against the metric's bound. A
bound is comfortable when the spread is below a third of it; setup_s is
reported but judged only on its median. Use it when setting the bounds.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("output check failed: " + " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    worst = 0.0
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(spec, workload, args.first_seed + i,
                                 args.trace))
            print("  %s seed %d done" % (workload, args.first_seed + i),
                  file=sys.stderr, flush=True)
        print("%s: %d runs, seeds %d..%d" % (workload, args.runs,
              args.first_seed, args.first_seed + args.runs - 1))
        print("  %-32s %14s %14s %14s %9s %7s" %
              ("metric", "median", "q1", "q3", "iqr/med", "bound"))
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "setup" if m["name"] == "setup_s" else (
                    "ok" if spread < bound / 3 else "WIDE")
                if m["name"] != "setup_s":
                    worst = max(worst, spread / bound)
            print("  %-32s %14.6g %14.6g %14.6g %9.4f %7s %s" %
                  (m["name"], med, q1, q3, spread,
                   "" if bound is None else bound, verdict))
    if not args.trace:
        print("largest spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
