#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads fleet16k,lossy4k --seeds 1-10 \
        --out .bench_build/results/base.jsonl [--trace 0] [--seconds 10]

Runs run.py once per (workload, seed), appending every record to --out,
then prints per workload and metric the median, the quartiles and the
spread (interquartile range over median) next to the metric's bound in
BENCHMARK.json. A spread under a third of the bound is marked steady.
Compare two such files with compare.py.
"""

import argparse
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    spec = compare.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--out", args.out]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            status = "ok" if proc.returncode == 0 else f"FAILED ({proc.returncode})"
            print(f"{workload} seed {seed}: {status}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    records = compare.load_records(args.out, trace=args.trace)
    for workload in workloads:
        runs = records.get(workload, [])
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{compare.failed_share(runs)}")
        for name in runs[0]["result"]["metrics"]:
            values = compare.metric_values(runs, name)
            q1, med, q3 = compare.quartiles(values)
            spread = compare.spread(values) if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "steady" if spread < bound / 3 else "NOT steady"
            print(f"  {name:30} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}" + (f"  bound {bound:.2f} {mark}" if bound else ""))


if __name__ == "__main__":
    main()
