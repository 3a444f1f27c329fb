#!/usr/bin/env python3
"""Steadiness report: runs each workload several times, one seed per run,
and prints every end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median), next to the
metric's bound from BENCHMARK.json.

Usage, from the repository root:

  python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
      [--workloads serve_small,batch_large] [--seconds S]

A spread above a third of its bound is flagged; setup_s is reported but
its spread is not held to the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {result.returncode}")
    report = json.loads(lines[-1])
    if not report["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    return {name: m["value"] for name, m in report["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        print(f"{workload}: {args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, args.seconds))
            print("    " + "  ".join(f"{name} {value:.6g}"
                                    for name, value in runs[-1].items()),
                  flush=True)
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:12s} median {median:14.4f}  q1 {q1:14.4f}  "
                  f"q3 {q3:14.4f}  spread {spread:7.4f}  bound {bound}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
