#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records written by run.py --out (or sweep.py). For every
workload and end-to-end metric the report gives each side's median and
quartiles, the run-to-run spread (interquartile range over median) and
the change of the median in the metric's worse direction, then a verdict:

  worse       the change's median is worse than the base's by more than
              the bound;
  better      the change's median is better by more than the base's own
              spread;
  unchanged   neither, and both spreads are within the bound;
  unresolved  a spread exceeds the bound, so the runs cannot tell, unless
              every change run beats every base run (then better).

Also compares the share of failed operations and the host stamps. Exits 1
when any metric is worse or any failed share differs, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def load_records(path, trace=0):
    """{workload: [record, ...]} for the records of one trace mode."""
    by_workload = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if record.get("trace", 0) == trace:
                    by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_values(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records
            if name in r["result"]["metrics"]]


def failed_share(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def verdict(base, change, better, bound):
    _, base_med, _ = quartiles(base)
    _, change_med, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change_med - base_med) / base_med  # > 0: worse
    base_spread, change_spread = spread(base), spread(change)
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if max(base_spread, change_spread) > bound:
        return worse_by, "better" if all_better else "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if -worse_by > base_spread:
        return worse_by, "better"
    return worse_by, "unchanged"


def describe_hosts(records):
    return {json.dumps(r.get("host", {}), sort_keys=True) for r in records}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_benchmark()
    base = load_records(argv[1])
    change = load_records(argv[2])
    hosts = set()
    for records in list(base.values()) + list(change.values()):
        hosts |= describe_hosts(records)
    if len(hosts) > 1:
        print("warning: the runs come from more than one host or build:")
        for host in sorted(hosts):
            print("  " + host)
    exit_code = 0
    header = (f"{'workload':10} {'metric':17} {'base q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'spread':>13} {'worse by':>9} "
              f"{'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:10} only in one set of results")
            continue
        if failed_share(base[workload]) != failed_share(change[workload]):
            print(f"{workload:10} failed share differs: "
                  f"{failed_share(base[workload])} vs {failed_share(change[workload])}")
            exit_code = 1
        for metric in spec["end_to_end"]:
            a = metric_values(base[workload], metric["name"])
            b = metric_values(change[workload], metric["name"])
            if not a or not b:
                continue
            worse_by, result = verdict(a, b, metric["better"], metric["bound"])
            if result == "worse":
                exit_code = 1
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:10} {metric['name']:17} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>30} "
                  f"{spread(a):6.3f}/{spread(b):6.3f} {worse_by:+9.3f} "
                  f"{metric['bound']:6.2f}  {result}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
