#!/usr/bin/env python3
"""Repository benchmark: builds the jstbench program and runs one workload.

    python3 perfbench/run.py --workload wild_batch --seed 1 --seconds 10 --trace 0

Run from the repository root. jstbench is built from source with CMake
into .bench_build/ (configured on first use, rebuilt incrementally after);
build output goes to stderr. The run prints a record line (fingerprint and
failed checks) and, as the last line of stdout, the result object
{"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes a Chrome
trace_event file under .bench_build/traces/.

Extra options: --scale X shrinks or grows every corpus (the smoke tests use
it); --out FILE appends {"record": ..., "result": ...} to FILE as one JSON
line, the input of perfbench/compare.py. The exit status is jstbench's:
0 when every output check passed, 3 when one failed, anything else when
the run could not complete.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "jstbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "jstbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_digest():
    """SHA-256 over src/ and perfbench/, which a checkout without git
    still identifies."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_rev():
    """HEAD of the checkout's own .git, read without running git, so the
    lookup never leaves the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out")
    args = parser.parse_args()

    build()
    work_dir = os.path.join(".bench_build", f"work-{os.getpid()}")
    trace_dir = os.path.join(".bench_build", "traces")
    os.makedirs(os.path.join(ROOT, trace_dir), exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scale", repr(args.scale), "--work-dir", work_dir,
               "--trace-out", trace_out]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"jstbench did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2 or run.returncode not in (0, 3):
        fail(f"jstbench exited with status {run.returncode}")

    record = json.loads(lines[-2])["record"]
    record["git_rev"] = git_rev()
    record["source_digest"] = source_digest()
    if args.trace == "1":
        record["trace_file"] = trace_out
    result = json.loads(lines[-1])
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"record": record, "result": result}) + "\n")
    print(json.dumps({"record": record}))
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
