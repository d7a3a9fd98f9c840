#!/usr/bin/env python3
"""Build the sweep benchmark from this source tree, then run it.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 sweepbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of the source tree. The build goes to
$CARGO_TARGET_DIR/sweepbench (default .bench_build/sweepbench), relative to
the root; build output goes to stderr. Every argument is passed on to the
sweep_bench binary, which rejects bad ones with exit code 2 (see
sweepbench/README.md). `--workload all` runs each workload listed in
BENCHMARK.json in its own process, prints each one's result line, and ends
with one combined line whose metrics are named <workload>/<metric>.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "sweepbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "sweep_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("error: building the sweep benchmark failed")
    return os.path.join(bdir, "sweep_bench")


def provenance():
    """Commit when this is a git checkout, plus a digest of the sources."""
    h = hashlib.sha256()
    for top in ("src", "sweepbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    label = "tree:" + h.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            label = "git:" + git.stdout.strip() + " " + label
    return label


def run_all(binary, args):
    """--workload all: one process per workload, so none inherits another's
    peak memory."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    i = args.index("--workload")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        sub = args[:i + 1] + [name] + args[i + 2:]
        proc = subprocess.run([binary] + sub, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(name + ": " + line)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(name + ": " + lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][name + "/" + metric] = v
    print(json.dumps(combined))
    return 0


def main():
    binary = build(build_dir())
    args = ["--commit", provenance()] + sys.argv[1:]
    i = args.index("--workload") if "--workload" in args else -1
    if 0 <= i < len(args) - 1 and args[i + 1] == "all":
        return run_all(binary, args)
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
