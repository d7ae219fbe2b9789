#!/usr/bin/env python3
"""Build and run the servet repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dunnington-suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced,
                                        # plus the decorator transparency check

The first call configures and builds perfbench/ (the servet libraries and
the benchmark program) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr so the last line of stdout stays the
JSON result of the run. See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["dunnington-suite", "ft1024-comm", "fleet-serve"]


def build():
    """Configure (once) and build the benchmark; False when either fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed JSON result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--ref-dir", os.path.join(BENCH_DIR, "ref"), "--work-dir", WORK_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def run_all(seed, seconds):
    """Every workload untraced and traced, then the transparency check."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            code, result = run_one(workload, seed, seconds, trace)
            ok = ok and code == 0 and result is not None and result["correct"]
    print("== decorator transparency", flush=True)
    check = subprocess.run([BINARY, "--check-transparency"])
    return ok and check.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload is None:
        return 0 if run_all(args.seed, args.seconds) else 1
    code, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
