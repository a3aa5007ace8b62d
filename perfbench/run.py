#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_trace --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off; --trace 1 reports the per-layer metrics from a traced run and
prints the per-layer span table. Every metric is printed by name with its
unit and sample count; the last line of standard output is the result as
one JSON object. A run whose output checks fail prints no result and exits
nonzero.

The benchmark binary is built from this checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the current directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench-release")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wfit_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "wfit_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no wfit_perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; have {workloads}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    binary = build(build_root)
    work_dir = os.path.join(build_root, "work",
                            f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail(f"binary exited {done.returncode} without a report")
    if done.returncode != 0 or not report.get("correct"):
        for err in report.get("errors", []):
            print(f"perfbench: check failed: {err}", file=sys.stderr)
        fail(f"output checks failed (exit {done.returncode})")

    got = report["metrics"]
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in got]
    extra = [n for n in got if n not in names]
    if missing or extra:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}")
    print(f"\n{args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['attempted']} attempted, {report['failed']} failed, "
          f"{time.monotonic() - t0:.1f} s")
    print(f"{'metric':36} {'value':>16} {'unit':12} {'n':>9}  note")
    metrics = {}
    for m in wanted:
        r = got[m["name"]]
        if r["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {r['unit']} but BENCHMARK.json says "
                 f"{m['unit']}")
        print(f"{m['name']:36} {r['value']:16.6g} {r['unit']:12} "
              f"{r['n']:9d}  {r['note']}")
        metrics[m["name"]] = {"value": r["value"], "unit": r["unit"]}
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
