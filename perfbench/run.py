#!/usr/bin/env python3
"""EDGE end-to-end benchmark: builds the benchmark package and runs one workload.

    python3 perfbench/run.py --workload train|serve_miss|serve_hot_routed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a Release
tree in .bench_build/ (the EDGE libraries, edge_serve, edge_router and the
perfbench driver); later runs only bring it up to date. Build output goes to
stderr. The driver's phase summaries go to stdout, and its last stdout line is
the result object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

The run exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGETS = ["perfbench", "edge_serve_tool", "edge_router"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {workloads}", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.setdefault("EDGE_LOG_LEVEL", "warn")
    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: driver exited with {run.returncode}", file=sys.stderr)
        return 1

    # The result must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(lines[-1])
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(declared):
        print("perfbench: result metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
