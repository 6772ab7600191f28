#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload train_gemm|train_dist|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and its output to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
sources are missing or do not build, and non-zero with the result when an
output check failed.
"""

import argparse
import os
import subprocess
import sys


def build(source_dir, build_dir, targets):
    if not os.path.isfile(os.path.join(source_dir, "..", "src", "CMakeLists.txt")):
        print("perfbench: no library sources next to %s" % source_dir, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if args.self_test:
        if not build(source_dir, build_dir, ["perfbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode
    if not build(source_dir, build_dir, ["perfbench"]):
        return 1
    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--workdir", os.path.relpath(workdir)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
