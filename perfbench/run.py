#!/usr/bin/env python3
"""Build the tracker from source and run one benchmark workload.

    python3 perfbench/run.py --workload fleet16k --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The first run configures and builds
perfbench/CMakeLists.txt (Release) into .bench_build/perfbench; later runs
rebuild only what changed. The runner's output is passed through; its
last line is the result object. With --out PATH the run also appends one
JSON record (workload, seed, host and source stamps, result) to PATH, the
input of sweep.py and compare.py.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet16k", "lossy4k", "cluster2", "paper1k")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally. Logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "proto", "distributed_mot.cpp")):
        fail("tracker sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("configure failed", 1)
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed", 1)
    return os.path.join(out_dir, "perfbench_runner")


def source_stamp():
    """The git revision when the checkout has one, and always a digest of
    the sources the runner was built from."""
    stamp = {}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    ref = f.read().strip()
        stamp["git_rev"] = ref
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    stamp["source_sha256"] = digest.hexdigest()[:16]
    return stamp


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON record of the run here")
    parser.add_argument("--corrupt", choices=("position", "bound", "meter"),
                        help=argparse.SUPPRESS)  # self-check only
    args = parser.parse_args()

    out_dir = build_dir()
    runner = build(out_dir)
    command = [runner,"--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    host = {}
    for line in lines:
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    stamp = source_stamp()
    print("# source " + json.dumps(stamp))
    for line in lines:
        print(line)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("the runner printed no result line", 1)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "host": host, "source": stamp, "result": result}
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
