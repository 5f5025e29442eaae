#!/usr/bin/env python3
"""Builds and runs the end-to-end EM-BSP benchmark.

    python3 e2ebench/run.py --workload sort_file --seed 42 --seconds 20 --trace 0

Run from the root of a source checkout.  The first call configures and
builds the benchmark (Release) under .bench_build/; later calls rebuild
only what changed.  Drive files go to a fresh directory under
.bench_scratch/ that is removed when the run ends, whatever the outcome.
The last line of standard output is the JSON result; build output and
per-repetition lines go to standard error.  The result's metric names and
units are checked against BENCHMARK.json before it is passed on.  See
e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_scratch")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "e2ebench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to e2ebench/: run from a full source checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    build()

    scratch = os.path.join(SCRATCH_DIR, f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, f"{args.workload}.trace.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        proc.kill()
        proc.wait()
        # The benchmark removes its drive directory itself; this covers a
        # crash or a kill that skipped that.
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_DIR)
        except OSError:
            pass

    lines = out.strip().splitlines()
    if not lines:
        fail(f"no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(lines[-1])
        sys.exit(proc.returncode or 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics do not match BENCHMARK.json: {sorted(got.items())}")
    print(lines[-1])


if __name__ == "__main__":
    main()
