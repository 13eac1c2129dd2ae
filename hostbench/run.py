#!/usr/bin/env python3
"""Build the hostbench harness from source and run it.

Run from the repository root:

    python3 hostbench/run.py --workload table96 --seed 7 --seconds 10 --trace 0
    python3 hostbench/run.py --list

The harness (a C++ binary, see main.cpp) is configured and built into
.bench_build/ on first use; later runs only re-check the build. Every flag is
passed through to the harness, which parses them strictly (exit 2 on any
unknown flag or malformed value). Build output goes to stderr so the
harness's JSON result stays the last line of stdout. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build")
BINARY = os.path.join(BUILD_DIR, "hostbench")


def build():
    """Configures (once) and builds the harness; returns the exit status."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.call(cmd, stdout=sys.stderr)
        except OSError as e:
            print(f"hostbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if rc != 0:
            print(f"hostbench: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return 1
    return 0


def main():
    rc = build()
    if rc != 0:
        return rc
    return subprocess.call([BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
