#!/usr/bin/env python3
"""Builds and runs the AGNN wall-clock benchmark.

Run from the root of a checkout:

  python3 agnnbench/run.py --workload serve_int8 --seed 1 --seconds 20 --trace 0
  python3 agnnbench/run.py --selftest

The first call configures and builds the library and the benchmark from
source into $CARGO_TARGET_DIR (default .bench_build) under the checkout;
later calls only rebuild what changed. The workloads and their fixed
parameters are defined in main.cc. The benchmark's last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is non-zero when a build step or an output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    """Configures (once) and builds `target`; build logs go to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr).returncode == 0


def git_sha():
    # Stop git at the checkout: an exported tree has no .git of its own.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if args.selftest:
        if not build(build_dir, "stats_test"):
            return 1
        return subprocess.run([os.path.join(build_dir, "stats_test")]).returncode

    if not args.workload:
        print("--workload is required", file=sys.stderr)
        return 2
    if not build(build_dir, "agnnbench"):
        print("agnnbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "agnnbench"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace,
               "--work_dir=" + work_dir,
               "--git_sha=" + git_sha()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("agnnbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
