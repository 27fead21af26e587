#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 qrbench/run.py --workload debug-replay --seed 1 --seconds 20 --trace 0
    python3 qrbench/run.py --selftest

Run from the repository root. The first call configures and builds the
quickrec library and the benchmark from source (CMake, RelWithDebInfo)
under $CARGO_TARGET_DIR/qrbench (default .bench_build/qrbench); later
calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. --selftest builds
and runs the tests that prove each correctness check can fire.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("qrbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; exit on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("quickrec sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", target,
               "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "qrbench")

    if args.selftest:
        build(build_dir, "qrbench_tests")
        return subprocess.run([os.path.join(build_dir, "qrbench_tests")],
                              cwd=build_dir,
                              timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        fail("--workload is required")

    build(build_dir, "qrbench")
    cmd = [os.path.join(build_dir, "qrbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", os.path.join(target_dir, "qrbench-work")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
