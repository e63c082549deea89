#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Builds the benchmark (as run.py does) and runs each workload once with one
recorded output deliberately corrupted before the checks:

  drop-answer    cold-mediate: one answer removed from a plan-mode session
  swap-emission  large-order:  first and last emission of an iDrips drain
                               swapped
  ranked-order   hot-mix:      two ranked answers of different weight swapped

Each corrupted run must report "correct": false and exit with status 1.
Then each workload runs once uncorrupted and must pass. Usage, from the
repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

CASES = [("cold-mediate", "drop-answer"), ("large-order", "swap-emission"),
         ("hot-mix", "ranked-order")]


def execute(binary, workload, inject):
    work = os.path.join(run.build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", "0", "--work-dir", work]
    if inject:
        command += ["--inject", inject]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result.get("correct"), proc.stderr.strip()


def main():
    binary = run.build()
    failures = 0
    for workload, inject in CASES:
        code, correct, err = execute(binary, workload, inject)
        caught = code == 1 and correct is False
        print("%-13s %-14s %s" % (workload, inject,
                                  "caught" if caught else "NOT CAUGHT"))
        if caught:
            print("    " + err.splitlines()[0])
        failures += not caught
    for workload, _ in CASES:
        code, correct, err = execute(binary, workload, "")
        ok = code == 0 and correct is True
        print("%-13s %-14s %s" % (workload, "(none)", "passes" if ok else "FAILS"))
        if not ok:
            print("    " + err)
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
