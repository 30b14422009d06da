#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics across seeds.

Runs the command of BENCHMARK.json once per seed and workload (untraced), then
prints, per metric, the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound.

    python3 perfbench/spread.py --seeds 1-10 [--workloads shared-loop,wire-poll]

Run it from the repository root.  Results also go to perfbench/out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)

    results = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"warning: {workload} seed {seed} reported failures", file=sys.stderr)
            runs.append({"seed": seed, **line})
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        results[workload] = runs

        print(f"\n== {workload} ({len(seeds)} seeds, {seconds} s each)")
        print(f"{'metric':<26} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / med if med else float("inf")
            else:
                spread = 0.0
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{name:<26} {med:>14.6g} {spread:>8.4f} {bound:>6}  {verdict}")

    os.makedirs("perfbench/out", exist_ok=True)
    with open("perfbench/out/spread.json", "w") as f:
        json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
