#!/usr/bin/env python3
"""Builds the planorder benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-mediate|hot-mix|large-order \\
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the library is compiled
from ../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only re-check the build. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. With --trace 1 the spans are
written to <build dir>/traces/<workload>-seed<N>.tsv.

Exit status: the benchmark's own (0 = every check passed, 1 = a correctness
check failed, 2 = bad arguments), or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-mediate", "hot-mix", "large-order")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, "planbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", work]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
