#!/usr/bin/env python3
"""Build the a3 library and the benchmark in Release, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_contexts --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Build output goes to standard error; the benchmark's last line of
standard output is its JSON result. The exit code is the benchmark's:
non-zero when a build step fails or an output check fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_run"
RUN_TIMEOUT_S = 170


def step(cmd):
    """Run one build command with its output on standard error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        print(f"perfbench: build step failed: {' '.join(cmd)}",
              file=sys.stderr)
        sys.exit(1)


def build(root):
    lib_build = os.path.join(BUILD_DIR, "a3")
    bench_build = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.isfile(os.path.join(lib_build, "CMakeCache.txt")):
        step(["cmake", "-S", ".", "-B", lib_build,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", lib_build, "--target", "a3",
          "tool_shard_worker", "-j", "2"])
    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        step(["cmake", "-S", "perfbench", "-B", bench_build,
              "-DCMAKE_BUILD_TYPE=Release",
              f"-DA3_SOURCE_DIR={root}",
              f"-DA3_LIBRARY={os.path.join(root, lib_build, 'liba3.a')}"])
    step(["cmake", "--build", bench_build, "-j", "2"])
    return (os.path.join(bench_build, "perfbench"),
            os.path.join(lib_build, "tools", "shard_worker"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    root = os.getcwd()
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join("tools", "shard_worker.cpp"))):
        print("perfbench: run from the root of a checkout of the "
              "repository (its CMakeLists.txt, src/ and tools/ are "
              "missing here)", file=sys.stderr)
        return 2

    binary, worker = build(root)
    cmd = [binary, "--worker-bin", worker, "--work-dir", WORK_DIR]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
