#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload --runs times per seed, alternating the workload order
from round to round, and prints for each end-to-end metric the median, the
quartiles and the min/max, with the interquartile spread as a share of the
median next to the metric's bound from BENCHMARK.json. Runs on the default
seed (1) and a second seed (2) unless --seeds says otherwise; --vary-seed
gives run i of a seed the seed + i instead.

    python3 perfbench/steady.py --runs 5
    python3 perfbench/steady.py --runs 10 --seeds 100 --vary-seed
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for seed in (int(s) for s in args.seeds.split(",")):
        values = {w: {m: [] for m in bounds} for w in workloads}
        fails = {w: [] for w in workloads}
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                run_seed = seed + i if args.vary_seed else seed
                result = run_once(w, run_seed, bench["run_seconds"])
                if not result["correct"]:
                    raise RuntimeError(f"{w} seed {run_seed}: output check failed")
                fails[w].append(result["failed"] / result["attempted"])
                for m in bounds:
                    values[w][m].append(result["metrics"][m]["value"])
        print(f"\nseed {seed}{' + run index' if args.vary_seed else ''}, "
              f"{args.runs} runs per workload")
        print(f"{'workload':18} {'metric':18} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'min':>10} {'max':>10} {'iqr/med':>8} {'bound':>6}")
        for w in workloads:
            for m, vals in values[w].items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                flag = "" if m == "setup_s" or spread <= bounds[m] else "  OVER"
                print(f"{w:18} {m:18} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{min(vals):10.4g} {max(vals):10.4g} {spread:8.3f} "
                      f"{bounds[m]:6.2f}{flag}")
            print(f"{w:18} {'failed share':18} {sorted(set(fails[w]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
