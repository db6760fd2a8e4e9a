#!/usr/bin/env python3
"""Builds the fixed-work benchmark from this checkout's sources and runs it.

    python3 fixedbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <x>]

Run from the checkout root.  The build goes to $CARGO_TARGET_DIR/fixedbench
(default .bench_build/fixedbench); sockets and span traces go under that
build directory's run/ folder.  Build output goes to stderr, so the last
line of stdout is the benchmark's result object.  See fixedbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark binary's own budget; it exits well inside this.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("fixedbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fixedbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step), 1)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "solve.hpp")):
        fail("no library sources next to the benchmark (expected "
             "src/core/solve.hpp at the checkout root)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "fixedbench")
    build(build_dir)
    binary = os.path.join(build_dir, "fixedbench")
    scratch = os.path.relpath(os.path.join(build_dir, "run"), os.getcwd())
    command = [binary] + sys.argv[1:] + ["--scratch-dir", scratch]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
