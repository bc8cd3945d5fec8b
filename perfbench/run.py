#!/usr/bin/env python3
"""Serving benchmark of rav_serve (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload cached_mix --seed 1 --seconds 10 --trace 0

Builds rav_serve and the load generator from the sources in this checkout
(into $CARGO_TARGET_DIR, default .bench_build), runs the benchmark's own
unit tests, then runs one measurement. The last line of standard output
is the JSON result; the exit code is non-zero when the build, the tests,
or any correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what, timeout):
    """Runs `cmd`; on failure prints its output to stderr and exits 1."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(what + " timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:])
        fail(what + " failed")


def build(build_dir):
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/rav_serve.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no repository sources here (missing %s)" % needed)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, "cmake configure", 300)
    run_quiet(["cmake", "--build", build_dir, "-j", "4", "--target",
               "rav_serve", "rav_load", "perfbench_test"], "build", 840)
    run_quiet([os.path.join(build_dir, "perfbench_test"), "--gtest_brief=1"],
              "perfbench_test", 120)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "rav_load"),
           "--config", os.path.join(HERE, "config.json"),
           "--serve", os.path.join(build_dir, "rav_serve"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--trace-dir", trace_dir]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rav_load did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
