#!/usr/bin/env python3
"""Builds the CS2P program with pinned flags and runs one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_mux --seed 1 --seconds 30 --trace 0

The program's libraries are compiled from ../src together with the harness
(perfbench/CMakeLists.txt) into .bench_build/ (or $CARGO_TARGET_DIR when it
is set), always as a Release build with CS2P_NATIVE_ARCH off, so two commits
are compared under the same flags. Build output goes to standard error; the
last line of standard output is the harness's JSON result. Extra arguments
(--world-seed N) are passed through.
"""
import fcntl
import os
import subprocess
import sys

BUILD_TYPE = "Release"
NATIVE_ARCH = "OFF"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", source, "-B", build_dir,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                     f"-DCS2P_NATIVE_ARCH={NATIVE_ARCH}"]
        make = ["cmake", "--build", build_dir, "--target", "cs2p_perfbench",
                "-j", str(os.cpu_count() or 1)]
        for step in (configure, make):
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "cs2p_perfbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    binary = build(root, build_dir)
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    print(f"# flags: CMAKE_BUILD_TYPE={BUILD_TYPE} CS2P_NATIVE_ARCH={NATIVE_ARCH}",
          flush=True)
    try:
        done = subprocess.run([binary, *args, "--spans-dir", spans_dir], cwd=root,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
