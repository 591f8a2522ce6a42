#!/usr/bin/env python3
"""Steadiness check for the spex end-to-end benchmark.

    python3 perfbench/steady.py --workload fleet-cold --runs 10 --sets 2

Runs one workload `--runs` times per set, each run on its own seed, and
prints for every end-to-end metric its median, quartiles (as
statistics.quantiles(values, n=4) gives them), min/max, and the spread:
the distance between the quartiles as a share of the median. A set is
steady when every spread, setup_s included, stays within the metric's
bound in BENCHMARK.json; a spread above a third of its bound is marked
"tight" (steady, but with little margin) without failing the set. With
--sets 2 a second, independent set (new seeds) runs after the first, and
each metric's second median must not be worse than the first by more than
its bound. Exits 0 when steady, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              workload, "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"steady: {workload} seed {seed} failed with {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            sys.exit(f"steady: {workload} seed {seed} was incorrect or had failures: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  seed {seed}: " + " ".join(f"{n}={m['value']:.6g}"
                                           for n, m in sorted(result["metrics"].items())),
              flush=True)
    return values


def summarize(values, metrics):
    """Prints one row per metric; returns {name: median} and whether steady."""
    steady = True
    medians = {}
    for name, samples in sorted(values.items()):
        q1, median, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metrics[name]["bound"]
        ok = spread <= bound
        steady = steady and ok
        medians[name] = median
        verdict = "WIDE" if not ok else "tight" if spread > bound / 3 else "ok"
        print(f"  {name:16s} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
              f"min={min(samples):<12.6g} max={max(samples):<12.6g} spread={spread:.4f} "
              f"bound={bound} {verdict}")
    return medians, steady


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    all_steady = True
    medians = []
    for s in range(args.sets):
        first = args.first_seed + s * args.runs
        print(f"{args.workload} set {s + 1}: seeds {first}..{first + args.runs - 1}")
        set_medians, steady = summarize(run_set(args.workload, range(first, first + args.runs),
                                                seconds), metrics)
        medians.append(set_medians)
        all_steady = all_steady and steady
    if len(medians) == 2:
        print(f"{args.workload}: second set against the first")
        for name, metric in sorted(metrics.items()):
            a, b = medians[0][name], medians[1][name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = worse <= metric["bound"]
            all_steady = all_steady and ok
            print(f"  {name:16s} {a:<12.6g} -> {b:<12.6g} worse by {worse:+.4f} "
                  f"(bound {metric['bound']}) {'ok' if ok else 'SHIFTED'}")
    print(f"{args.workload}: {'steady' if all_steady else 'NOT steady'}")
    sys.exit(0 if all_steady else 1)


if __name__ == "__main__":
    main()
