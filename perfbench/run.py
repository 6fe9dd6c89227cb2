#!/usr/bin/env python3
"""Builds and runs the served end-to-end benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload sparse-personal --seed 1 \
        --seconds 5 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(CMake, Release) and run files to .bench_build/work; the last stdout
line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("sparse-personal", "durable-churn")
# The whole command must end within 180 s once built.
BENCH_TIMEOUT_S = 165


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "tcdp_cli",
         "perfbench"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(BUILD_DIR, "tcdp", "tcdp"),
        "--work-dir", WORK_DIR,
    ]
    try:
        result = subprocess.run(command, timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out after %d s" % BENCH_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
