#!/usr/bin/env python3
"""Builds and runs the end-to-end MDQL serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which compiles the mddc
library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. The benchmark's human
readable report goes to standard output; its last line is one JSON object
with the keys correct, attempted, failed and metrics. Build output goes to
standard error. The exit code is the benchmark's own.

The second form builds and runs the benchmark's unit tests.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read-steady", "ingest-fanout", "clinical-mix")
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target,
                    "-j", str(BUILD_JOBS)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the mddc sources (src/) are not next to perfbench/;"
              " run from the root of a full checkout", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            out = build("perfbench_test")
            return subprocess.run([os.path.join(out, "perfbench_test")]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds < 1:
            parser.error("--seed must be >= 0 and --seconds >= 1")
        out = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", out]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
