#!/usr/bin/env python3
"""Compares the benchmark results of two commits.

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result sets: files of JSON lines written by
`perfbench/run.py --out FILE`, or directories of such files (*.jsonl).
Only untraced runs (--trace 0) are compared. For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the change of the median, and a verdict:

  better              the change wins at least 9 in 10 of the run pairs
                      (paired by seed; a tie is a win for neither side) and
                      the medians differ by more than the parent's
                      interquartile range;
  unresolved          the parent's spread (IQR / median) is wider than the
                      metric's bound, and not every change run beats every
                      parent run;
  worse-beyond-bound  the change's median is worse than the parent's by
                      more than the bound;
  within-bound        otherwise.

It also warns when the two sides ran on different hosts or builds, and
when a workload's verdict digest differs for the same seed (the outputs
changed). Exits with status 1 when any metric is worse-beyond-bound.
"""

import argparse
import glob
import json
import os
import statistics
import sys

FINGERPRINT = ("cpu_model", "nproc", "compiler", "build_type",
               "lexer_scan_path", "scale", "seconds")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) \
        if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name) as handle:
            for line in handle:
                if line.strip():
                    run = json.loads(line)
                    if run["record"].get("trace", "0") == "0":
                        runs.append(run)
    if not runs:
        sys.exit(f"compare: no untraced runs in {path}")
    return runs


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(metric, parent, change):
    """parent / change: lists of (seed, value)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_values = [value for _, value in parent]
    c_values = [value for _, value in change]
    p_median, p_q1, p_q3 = spread(p_values)
    c_median = statistics.median(c_values)

    def better(a, b):
        return a < b if lower else a > b

    by_seed = dict(parent)
    pairs = [(by_seed[seed], value) for seed, value in change
             if seed in by_seed]
    if not pairs:
        pairs = list(zip(p_values, c_values))
    # A tie is a win for neither side but still counts as a pair run.
    wins = sum(1 for p, c in pairs if better(c, p))
    if (better(c_median, p_median) and abs(c_median - p_median) > p_q3 - p_q1
            and wins >= 0.9 * len(pairs)):
        return "better"
    all_better = all(better(c, p) for c in c_values for p in p_values)
    if (p_median != 0 and (p_q3 - p_q1) / abs(p_median) > bound
            and not all_better):
        return "unresolved"
    worse_by = (c_median - p_median) if lower else (p_median - c_median)
    if p_median != 0 and worse_by / abs(p_median) > bound:
        return "worse-beyond-bound"
    return "within-bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    sides = {"parent": load(args.parent), "change": load(args.change)}

    for key in FINGERPRINT:
        seen = {name: sorted({run["record"].get(key, "?") for run in runs})
                for name, runs in sides.items()}
        if seen["parent"] != seen["change"]:
            print(f"warning: {key} differs: parent {seen['parent']}, "
                  f"change {seen['change']}")

    digests = {}
    for name, runs in sides.items():
        for run in runs:
            record = run["record"]
            if "verdict_digest" in record:
                digests.setdefault((record["workload"], record["seed"]),
                                   {})[name] = record["verdict_digest"]
    for (workload, seed), by_side in sorted(digests.items()):
        if len(set(by_side.values())) > 1:
            print(f"warning: {workload} seed {seed}: verdict digest "
                  f"{by_side.get('parent')} -> {by_side.get('change')} "
                  "(outputs changed)")

    header = (f"{'workload':<16} {'metric':<18} "
              f"{'parent median [q1, q3]':>38} "
              f"{'change median [q1, q3]':>38} {'delta':>8}  verdict")
    print(header)
    print("-" * len(header))
    worse = False
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for metric in benchmark["end_to_end"]:
            values = {}
            for side, runs in sides.items():
                values[side] = [
                    (run["record"]["seed"],
                     run["result"]["metrics"][metric["name"]]["value"])
                    for run in runs
                    if run["record"]["workload"] == name
                    and metric["name"] in run["result"]["metrics"]]
            if not values["parent"] or not values["change"]:
                print(f"{name:<16} {metric['name']:<18} "
                      f"{'(no runs on one side)':>38}")
                continue
            cells = []
            for side in ("parent", "change"):
                median, q1, q3 = spread([v for _, v in values[side]])
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] "
                             f"n={len(values[side])}")
            p_median = spread([v for _, v in values["parent"]])[0]
            c_median = spread([v for _, v in values["change"]])[0]
            delta = (c_median - p_median) / p_median if p_median else 0.0
            result = verdict(metric, values["parent"], values["change"])
            worse = worse or result == "worse-beyond-bound"
            print(f"{name:<16} {metric['name']:<18} {cells[0]:>38} "
                  f"{cells[1]:>38} {delta:>+8.1%}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
