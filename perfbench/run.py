#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <paper-sweep|scale-out|tooling> \
        --seed <n> --seconds <s> --trace <0|1>

gps_perfbench and the gps library are built (Release) into .bench_build/
under the current directory; later runs only rebuild what changed. Build
output goes to stderr, so the last stdout line is gps_perfbench's JSON
result. Traced runs write their spans to
.bench_build/perfbench-trace-<workload>.json. Extra arguments
(--perturb-digest, --record-digests) pass through to gps_perfbench.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")


def build():
    """Configure (once) and build gps_perfbench; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gps_perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    program = os.path.join(BUILD, "gps_perfbench")
    return subprocess.run([program] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
