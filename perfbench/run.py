#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the repository root.  It builds perfbench/ (and the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload in its own process.  The last
line of stdout is the result object: correct, attempted, failed, metrics.

`--workload all` runs every workload one after another with --trace 1 and
prints each one's full report: every end-to-end and per-layer metric by
name and unit, the engine that ran, and the refusal strings.  Its last line
is one JSON object keyed by workload, holding each workload's report.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "analysis", "experiment.h")):
        fail(f"library sources not found under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = [["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_one(binary, workload, seed, seconds, trace, spans):
    """Runs one workload; returns (report lines, result object)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result keys {sorted(result)}")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (have {', '.join(workloads)})")

    binary = build()
    spans_dir = os.path.dirname(binary)
    if args.workload != "all":
        spans = os.path.join(spans_dir, f"spans-{args.workload}.json")
        lines, result = run_one(binary, args.workload, args.seed, args.seconds,
                                args.trace, spans)
        print("\n".join(lines + [json.dumps(result)]))
        return

    reports = {}
    for workload in workloads:
        spans = os.path.join(spans_dir, f"spans-{workload}.json")
        lines, result = run_one(binary, workload, args.seed, args.seconds, 1, spans)
        print("\n".join(lines), flush=True)
        with open(spans) as f:
            report = json.load(f)
        report.update(correct=result["correct"], attempted=result["attempted"],
                      failed=result["failed"])
        reports[workload] = report
    print(json.dumps(reports))
    if not all(r["correct"] for r in reports.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
