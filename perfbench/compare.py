#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

Each set is a directory (searched recursively) of files, one per run,
holding the standard output of `python3 perfbench/run.py ...` (host line,
counts line, result line); other files are skipped.

    python3 perfbench/compare.py runs/before runs/after [--bench BENCHMARK.json]

For every (workload, metric) it prints each set's median and quartiles
(statistics.quantiles, n=4) and the change of the
second median against the first; with --bench it marks a change worse than
the metric's bound. It then flags every deterministic count (per-round counts
from the counts line, and the share of failed operations) that differs
between runs of the same workload and seed, within or across the sets.
Exit status 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import sys


def run_files(directory):
    for parent, _, names in sorted(os.walk(directory)):
        for name in sorted(names):
            yield os.path.join(parent, name)


def load(directory):
    runs = []
    for path in run_files(directory):
        host = counts = result = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if "host" in obj:
                    host = obj["host"]
                elif "counts" in obj:
                    counts = obj["counts"]
                elif "metrics" in obj:
                    result = obj
        if host is None or result is None:
            continue
        runs.append({"file": path, "host": host, "counts": counts or {},
                     "result": result})
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--bench", help="BENCHMARK.json, to apply its bounds")
    args = parser.parse_args()

    sets = [load(args.first), load(args.second)]
    bounds, better = {}, {}
    if args.bench:
        with open(args.bench) as f:
            bench = json.load(f)
        for m in bench["end_to_end"]:
            bounds[m["name"]] = m["bound"]
            better[m["name"]] = m["better"]
        for m in bench["per_layer"]:
            better[m["name"]] = m["better"]

    flagged = 0
    hosts = {json.dumps({k: r["host"].get(k) for k in
                         ("nproc", "compiler", "build_type", "trace")},
                        sort_keys=True)
             for s in sets for r in s}
    print("hosts: " + "; ".join(sorted(hosts)))

    series = {}  # (workload, trace, metric) -> [values of set 0, set 1]
    for i, runs in enumerate(sets):
        for r in runs:
            key = (r["host"]["workload"], r["host"].get("trace", 0))
            for name, m in r["result"]["metrics"].items():
                series.setdefault(key + (name,), ([], []))[i].append(m["value"])
    print("%-12s %-38s %28s %28s %8s" % ("workload", "metric",
                                          "first: median [q1, q3]",
                                          "second: median [q1, q3]", "change"))
    for (workload, trace, name), (a, b) in sorted(series.items()):
        cells = []
        for values in (a, b):
            if values:
                med, q1, q3 = summary(values)
                cells.append("%.4g [%.4g, %.4g] n=%d" % (med, q1, q3, len(values)))
            else:
                cells.append("-")
        change, mark = "", ""
        if a and b and statistics.median(a) != 0:
            rel = statistics.median(b) / statistics.median(a) - 1
            change = "%+.1f%%" % (100 * rel)
            worse = rel if better.get(name) == "lower" else -rel
            if name in bounds and worse > bounds[name]:
                mark = "  WORSE than bound %.2f" % bounds[name]
                flagged += 1
        print("%-12s %-38s %28s %28s %8s%s" % (workload, name, cells[0],
                                               cells[1], change, mark))

    # Deterministic counts: identical for a given workload and seed.
    seen = {}
    for runs in sets:
        for r in runs:
            h = r["host"]
            key = (h["workload"], h["seed"])
            counts = dict(r["counts"])
            res = r["result"]
            counts["failed_share"] = res["failed"] / max(1, res["attempted"])
            if key in seen and seen[key][1] != counts:
                diff = sorted(k for k in set(counts) | set(seen[key][1])
                              if counts.get(k) != seen[key][1].get(k))
                print("COUNTS DIFFER for %s seed %s: %s (%s vs %s)" % (
                    key[0], key[1], ", ".join(diff), seen[key][0], r["file"]))
                flagged += 1
            seen.setdefault(key, (r["file"], counts))
    failed_shares = {}
    for i, runs in enumerate(sets):
        for r in runs:
            res = r["result"]
            failed_shares.setdefault(r["host"]["workload"], set()).add(
                (res["failed"], res["attempted"]) if res["failed"] else (0, 1))
    for workload, shares in sorted(failed_shares.items()):
        ratios = {f / a for f, a in shares}
        if len(ratios) > 1:
            print("FAILED SHARE DIFFERS for %s: %s" % (workload, sorted(ratios)))
            flagged += 1
    print("flagged: %d" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
