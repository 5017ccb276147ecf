#!/usr/bin/env python3
"""Builds and runs the cfnet end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload collect|analyze|serve_fresh \
        --seed N --seconds S --trace 0|1

The first run configures and builds the cfnet libraries and the benchmark
program (Release) into .bench_build/e2ebench; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
program's JSON result. Exits non-zero without printing a result when the
build fails (for example when ../src is missing).
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
JOBS = "4"


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return code
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", JOBS])


def main():
    code = build()
    if code != 0:
        print("e2ebench: build failed (exit %d)" % code, file=sys.stderr)
        return code
    child = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
