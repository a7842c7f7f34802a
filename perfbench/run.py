#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve|churn_repair \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; a traced run also writes its
merged spans there. The last line of standard output is the result JSON
printed by the benchmark binary; build output goes to standard error.
Exit status: 0 on success, 1 on a failed check or build, 2 on bad
arguments.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("serve", "churn_repair")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")
    return args


def build(source_dir, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(source_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    return build_dir / "perfbench"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    args = parse_args()
    source_dir = pathlib.Path(__file__).resolve().parent
    target_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    build_dir = (target_root / "perfbench").resolve()
    try:
        binary = build(source_dir, build_dir)
    except subprocess.TimeoutExpired:
        binary = None
    if binary is None or not binary.exists():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace == 1:
        command += ["--spans-out",
                    str(build_dir / ("spans-%s.tsv" % args.workload))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        print("perfbench: no result (exit %d)" % done.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
