#!/usr/bin/env python3
"""Prove that the benchmark's answer checks can fail.

    python3 perfbench/selfcheck.py [--workloads fleet16k,paper1k]

For every workload, runs run.py once as is (it must pass) and once per
corrupted expectation (it must fail with a "check failed" message and no
result line):

  position  every expected position is shifted by one node;
  bound     every cost lower bound is raised above the true cost;
  meter     the summed per-operation costs are raised by one before they
            are compared with the meter.

Exits 0 only when every clean run passes and every corrupted run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORRUPTIONS = ("position", "bound", "meter")


def run(workload, corrupt=None):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    if corrupt:
        command += ["--corrupt", corrupt]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, last, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="fleet16k,lossy4k,cluster2,paper1k")
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        code, last, _ = run(workload)
        passed = code == 0 and last.startswith('{"correct": true')
        print(f"{workload:9} clean     {'passes' if passed else 'FAILS (should pass)'}")
        ok &= passed
        for corrupt in CORRUPTIONS:
            code, last, err = run(workload, corrupt)
            caught = code != 0 and "check failed" in err and not last.startswith("{")
            first = next((l for l in err.splitlines() if l.startswith("check failed")), "")
            print(f"{workload:9} {corrupt:9} {'caught' if caught else 'NOT CAUGHT'}  {first[:90]}")
            ok &= caught
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
