#!/usr/bin/env python3
"""Runs one workload of the spex end-to-end benchmark.

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds spexbench (perfbench/CMakeLists.txt)
from the checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it, checks that it printed exactly the
metrics BENCHMARK.json names (end_to_end untraced, per_layer traced),
and passes its output through. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fleet-cold", "fleet-recheck", "serve-mixed", "campaign-corpus")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not os.path.exists(os.path.join(ROOT, "src", "api", "session.h")):
        fail("no spex sources under src/; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "spexbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    work_dir = os.path.join(build_dir(), "work")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"spexbench exited with {run.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit changes {sorted(n for n in got if n in want and got[n] != want[n])}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
