#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload on one CPU.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The first run configures and
builds a Release tree in .bench_build/ (later runs only re-check it); build
output goes to stderr.  The benchmark binary pins itself to the
highest-numbered CPU this process may use.  Its report goes to stdout, and
the last line is one JSON object with the run's verdict and metrics.
Per-run records land in .bench_build/results/, and the Chrome trace of a
traced run in .bench_build/trace/<workload>.json.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("sweep3d_blocking_p62", "nas_is_p64", "strobe_tree_n2048")
# A run must end within 180 s; the binary measures for about --seconds.
BINARY_LIMIT_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simulator sources in {ROOT}/src; nothing to build")
        return False
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs]
    for attempt in range(2):
        ok = True
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(compile_, stdout=sys.stderr).returncode == 0
        if ok:
            return True
        if attempt == 0:
            # A tree configured from another checkout path cannot be reused.
            log("build failed; retrying from a clean build tree")
            shutil.rmtree(BUILD, ignore_errors=True)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", BUILD]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {BINARY_LIMIT_S} s and was stopped")
        return 1
    lines = proc.stdout.splitlines()
    print("\n".join(lines), flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"benchmark failed (exit code {proc.returncode}) or printed no "
            "result")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
