#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny scale, untraced and traced, through
perfbench/run.py and checks the contract: the last stdout line has exactly
correct / attempted / failed / metrics, correct is true, the metrics are
exactly BENCHMARK.json's end-to-end (or per-layer) names with their units,
and the traced run leaves a loadable trace_event file. It also checks that
a seed reproduces its verdict digest, that the benchmark refuses to run in
a directory holding only BENCHMARK.json and perfbench/, and that
compare.py gives the expected verdicts on two synthetic result sets.
Everything it writes goes under .bench_build/. Exits 1 on the first
failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_DIR = os.path.join(ROOT, ".bench_build", "smoke")
SCALE = "0.05"
SECONDS = "1"


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def run_bench(workload, seed, trace, out=None, cwd=ROOT):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    if out:
        command += ["--out", out]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def check_run(benchmark, workload, trace, expected):
    run = run_bench(workload, 7, trace)
    check(run.returncode == 0,
          f"{workload} --trace {trace} exits 0 ({run.stderr[-300:]!r})")
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{workload} --trace {trace}: result keys")
    check(result["correct"] is True and result["attempted"] >= 1,
          f"{workload} --trace {trace}: correct with attempted >= 1")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if expected is not None:
        check(units == expected,
              f"{workload} --trace {trace}: metrics are BENCHMARK.json's")
    if trace == 1:
        with open(os.path.join(ROOT, record["trace_file"])) as handle:
            events = json.load(handle)["traceEvents"]
        check(events and all(event["ph"] == "X" for event in events),
              f"{workload}: trace file loads as trace_event JSON")
    return record


def check_compare(benchmark):
    """Synthetic parent/change sets with known answers per metric."""
    workload = benchmark["workloads"][0]["name"]
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    parent_path = os.path.join(SMOKE_DIR, "parent.jsonl")
    change_path = os.path.join(SMOKE_DIR, "change.jsonl")
    # scripts_per_s: +30% on every seed -> better.
    # latency_p50_ms: +50% on every seed -> worse-beyond-bound.
    # peak_rss_mb: +1% -> within-bound.
    # latency_p99_ms: parent spread far wider than any bound -> unresolved.
    for path, side in ((parent_path, 0), (change_path, 1)):
        with open(path, "w") as handle:
            for seed in range(10):
                wobble = 1.0 + 0.01 * (seed % 3)
                values = {
                    "scripts_per_s": 1000.0 * wobble * (1.3 if side else 1.0),
                    "latency_p50_ms": 1.0 * wobble * (1.5 if side else 1.0),
                    "peak_rss_mb": 500.0 * wobble * (1.01 if side else 1.0),
                    "latency_p99_ms": 1.0 + (seed % 2) * 3.0,
                }
                result = {"correct": True, "attempted": 1, "failed": 0,
                          "metrics": {name: {"value": values.get(name, 1.0),
                                             "unit": metrics[name]["unit"]}
                                      for name in metrics}}
                record = {"workload": workload, "seed": str(seed),
                          "trace": "0"}
                handle.write(json.dumps({"record": record,
                                         "result": result}) + "\n")
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), parent_path,
         change_path], stdout=subprocess.PIPE, text=True)
    verdicts = {}
    for line in run.stdout.splitlines():
        fields = line.split()
        if len(fields) > 2 and fields[0] == workload:
            verdicts[fields[1]] = fields[-1]
    check(run.returncode == 1, "compare exits 1 on a worse-beyond-bound metric")
    for name, expected in (("scripts_per_s", "better"),
                           ("latency_p50_ms", "worse-beyond-bound"),
                           ("peak_rss_mb", "within-bound"),
                           ("latency_p99_ms", "unresolved")):
        check(verdicts.get(name) == expected,
              f"compare: {name} is {expected} (got {verdicts.get(name)})")


def check_bare_directory():
    bare = os.path.join(SMOKE_DIR, "bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = run_bench("wild_batch", 1, 0, cwd=bare)
    check(run.returncode != 0 and not run.stdout.strip(),
          "refuses to run without the library sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    os.makedirs(os.path.join(SMOKE_DIR, "bare"))
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}

    for workload in benchmark["workloads"]:
        check_run(benchmark, workload["name"], 0, end_to_end)
        check_run(benchmark, workload["name"], 1, per_layer)
    # Runs through the same command, outside the gated set.
    check_run(benchmark, "daemon_open_loop", 0, None)

    digests = set()
    for _ in range(2):
        lines = run_bench("wild_batch", 5, 0).stdout.strip().splitlines()
        digests.add(json.loads(lines[-2])["record"]["verdict_digest"])
    check(len(digests) == 1, "wild_batch: a seed reproduces its verdict digest")

    check_bare_directory()
    check_compare(benchmark)
    print("all smoke tests passed")


if __name__ == "__main__":
    main()
