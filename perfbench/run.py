#!/usr/bin/env python3
"""Build the HeLM-Sim benchmark in Release and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The simulator library is built from the checkout's src/ together with
the benchmark (perfbench/CMakeLists.txt) under .bench_build/perfbench.
The last line of stdout is the run's JSON result; build output and the
benchmark's own notes go to stderr.  --self-test builds and runs the
tests of the benchmark's output checks instead.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("gateway_steady", "offline_plan", "serve_edf_preempt",
             "cluster_shared_port")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        if args.self_test:
            binary = build("perfbench_checks_test")
            return subprocess.run([str(binary)]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        binary = build("helm_perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(OUT)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
