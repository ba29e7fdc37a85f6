#!/usr/bin/env python3
"""Rerun the benchmark N times per workload and print each metric's spread.

    python3 perfbench/noise_study.py [--runs 10]

Every workload in BENCHMARK.json runs untraced for its run_seconds, at
seeds 1..N.  For every metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), and the interquartile
range as a share of the median, next to the metric's bound from
BENCHMARK.json; the spread should stay below a third of the bound.  It
also prints the share of failed operations per workload.  Use it to
check the bounds again on another machine.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs, all correct: {correct}, "
              f"failed shares: {sorted(shares)}")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bounds[name]:>6}")


if __name__ == "__main__":
    main()
