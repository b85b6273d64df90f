#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric and workload by workload.

usage: compare.py BENCHMARK.json PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named <workload>-<n>.json, whose last
line is the benchmark's result line; runs with the same <n> form a pair (run
them alternately, parent first on even n and change first on odd n). For
every workload and end-to-end metric the verdict is:

  gain        at least 10 pairs, the change better in at least nine tenths
              of them (a tie is no win), and the medians apart by more than
              the parent's interquartile range
  regression  the change's median worse than the parent's by more than the
              metric's bound (a share of the parent's median)
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every change run is better than every parent run
  same        none of the above

Exits 1 when any metric regresses or a run reports failures, 0 otherwise.
"""

import json
import os
import statistics
import sys


def load(directory):
    """{workload: {n: result}} from the result files in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, _, n = name[: -len(".json")].rpartition("-")
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        runs.setdefault(workload, {})[n] = json.loads(lines[-1])
    return runs


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if sign * (med_c - med_p) < -bound * med_p:
        return "regression"
    # A tie is not a win, so it counts against the nine tenths.
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    iqr_p = spread(parent) * med_p
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and sign * (med_c - med_p) > iqr_p:
        return "gain"
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (spread(parent) > bound or spread(change) > bound) and not all_better:
        return "unresolved"
    return "same"


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[2]), load(sys.argv[3])
    bad = False
    print(f"{'workload':14} {'metric':16} {'parent p50':>12} {'change p50':>12} {'delta':>8}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        keys = sorted(set(p_runs) & set(c_runs), key=lambda k: (len(k), k))
        if not keys:
            print(f"{workload:14} no paired runs")
            bad = True
            continue
        for runs in (p_runs, c_runs):
            if any(r["failed"] or not r["correct"] for r in runs.values()):
                print(f"{workload:14} has runs with failures")
                bad = True
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [p_runs[k]["metrics"][name]["value"] for k in keys]
            c = [c_runs[k]["metrics"][name]["value"] for k in keys]
            v = verdict(p, c, m["better"], m["bound"])
            bad |= v == "regression"
            med_p, med_c = statistics.median(p), statistics.median(c)
            delta = (med_c - med_p) / med_p if med_p else float("nan")
            print(f"{workload:14} {name:16} {med_p:12.5g} {med_c:12.5g} {delta:+8.1%}  {v} ({len(keys)} pairs)")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
