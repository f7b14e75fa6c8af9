#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py [--binary PATH] [--work-dir DIR]

Runs every workload of BENCHMARK.json at tiny size (perfbench --smoke), once
untraced and once traced.  Fails when any run fails (fail_frac > 0), when a
metric BENCHMARK.json names is missing, extra or in another unit, or when a
traced span does not nest inside its parent.  Without --binary it builds the
benchmark the way run.py does.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

# Top spans of the traced run; every other span must sit under one of them.
ROOTS = {"wall", "replay"}
# Spans every traced run records, with the parent each must nest under.
REQUIRED = {"wall": None, "analysis.Experiment": "wall",
            "analysis.run": "wall", "analysis.engine": "analysis.run",
            "replay": None, "net.build_topology": "replay",
            "analysis.skew_series": "replay",
            "analysis.check_validity": "replay"}


def run_smoke(binary, workload, trace, spans):
    cmd = [binary, "--smoke", "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", str(trace), "--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result, expected, label):
    errors = []
    if result["attempted"] < 1:
        errors.append(f"{label}: attempted {result['attempted']}")
    if result["failed"] != 0 or not result["correct"]:
        errors.append(f"{label}: fail_frac = {result['failed']}/{result['attempted']}")
    names = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    for name, unit in names.items():
        if name not in got:
            errors.append(f"{label}: metric {name} missing")
        elif got[name]["unit"] != unit:
            errors.append(f"{label}: metric {name} in {got[name]['unit']}, want {unit}")
        elif not isinstance(got[name]["value"], (int, float)):
            errors.append(f"{label}: metric {name} is not a number")
    for name in sorted(set(got) - set(names)):
        errors.append(f"{label}: metric {name} not in BENCHMARK.json")
    return errors


def check_spans(spans, label):
    errors = []
    by_id = {s["id"]: s for s in spans}
    names = {s["name"]: s for s in spans}
    for name, parent in REQUIRED.items():
        span = names.get(name)
        if span is None:
            errors.append(f"{label}: span {name} missing")
        elif parent is not None and by_id.get(span["parent"], {}).get("name") != parent:
            errors.append(f"{label}: span {name} is not a child of {parent}")
    for span in spans:
        if span["end_s"] < span["start_s"] or span["self_s"] < 0:
            errors.append(f"{label}: span {span['name']} has negative length")
        if span["parent"] < 0:
            if span["name"] not in ROOTS:
                errors.append(f"{label}: span {span['name']} has no parent")
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            errors.append(f"{label}: span {span['name']} has unknown parent")
        elif not parent["start_s"] <= span["start_s"] <= span["end_s"] <= parent["end_s"]:
            errors.append(f"{label}: span {span['name']} does not nest inside "
                          f"{parent['name']}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary")
    parser.add_argument("--work-dir", help="scratch space (default: beside the binary)")
    args = parser.parse_args()
    binary = args.binary or run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    errors = []
    work_dir = args.work_dir or os.path.dirname(os.path.abspath(binary))
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        for workload in (w["name"] for w in bench["workloads"]):
            spans_path = os.path.join(tmp, f"{workload}.json")
            untraced = run_smoke(binary, workload, 0, spans_path)
            errors += check_result(untraced, bench["end_to_end"], f"{workload} --trace 0")
            traced = run_smoke(binary, workload, 1, spans_path)
            errors += check_result(traced, bench["per_layer"], f"{workload} --trace 1")
            with open(spans_path) as f:
                errors += check_spans(json.load(f)["spans"], workload)
            print(f"{workload}: checked", flush=True)
    for error in errors:
        print("FAIL", error)
    print("smoke test", "failed" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
