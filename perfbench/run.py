#!/usr/bin/env python3
"""Builds and runs the simulator-cost benchmark; see perfbench/METHODOLOGY.md.

Run from the root of a checkout:

  python3 perfbench/run.py --workload restore-sweep --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test

The harness is compiled from source into .bench_build/ (an optimized build of
the simulator library plus perfbench/harness.cc) and then run once. Its last
stdout line is the result object; build output goes to stderr. Under --trace 1
the wall-clock spans are written to .bench_build/trace-<workload>.json.

The arguments go to the harness unchanged; it is the one place that checks
them. Exit codes: 0 on success, 2 on a bad argument (from the harness), 1 when
the build or the run fails (no result line is printed then).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "faasnap_perfbench")


def build():
    """Configures and builds the harness (a no-op when up to date); build
    chatter goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "faasnap_perfbench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(HARNESS)


def trace_out(argv):
    """Where the harness writes its spans, or None for an untraced run."""
    if "--self-test" in argv:
        return os.path.join(BUILD_DIR, "selftest.trace.json")
    flags = dict(zip(argv, argv[1:]))
    if flags.get("--trace") == "1":
        return os.path.join(BUILD_DIR, f"trace-{flags.get('--workload')}.json")
    return None


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [HARNESS] + argv
    path = trace_out(argv)
    if path is not None:
        command += ["--trace-out", path]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
