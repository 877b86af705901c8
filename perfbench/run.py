#!/usr/bin/env python3
"""Builds the benchmark driver from the checkout and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_churn --seed 1 \\
        --seconds 40 --trace 0

The driver (perfbench/src) is compiled together with the library sources in
src/ into .bench_build/perfbench, which later runs reuse. Its last stdout
line, passed through unchanged, is the result:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Build output goes to stderr. The exit code is non-zero, with no result line,
when the sources are missing, the build fails or the driver does not finish.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("dense_churn", "serve_open_loop")
# A run must end within 180 s; leave room for the build check and start-up.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR,
                    "--target", "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()  # the driver checks the ranges

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    start = time.monotonic()
    try:
        proc = subprocess.run(
            [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: driver did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: driver exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)
    print(f"perfbench: {args.workload} ran {time.monotonic() - start:.1f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
