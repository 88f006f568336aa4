#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

The C++ runner (perfbench/src) does the measuring and prints the result
JSON as the last line of standard output; this script only compiles it
(and tsctool) into .bench_build/perfbench and passes its exit code on.
Build logs go to standard error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("build", "serve_point", "serve_analytic")
RUN_TIMEOUT_S = 175


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "cli", "tsctool_main.cc")):
        print("perfbench: no repository sources next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = repo_root()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        return 2
    work_dir = os.path.join(root, ".bench_build", "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tsctool", os.path.join(build_dir, "tsctool"),
        "--workdir", work_dir,
    ]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
