#!/usr/bin/env python3
"""Build and run the time-to-result benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (and the src/ modules it
drives) with CMake in Release mode into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs one workload per process.  The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"};
the full table of metrics goes to stderr and a JSON record of every repeat
(plus the spans of a traced run) to perfbench/results/.

`--workload all` runs every workload in turn; its last line merges them,
with each metric name prefixed by its workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_modeled", "native_scalar", "native_wide"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over src/ (paths and contents): provenance without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run_one(binary, workload, args, provenance):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(HERE, "results"),
           "--git-sha", provenance[0], "--source-digest", provenance[1]]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: benchmark exited with code {r.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result line")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")
    if not os.path.isfile(os.path.join(ROOT, "src", "framework",
                                       "driver.hpp")):
        fail(f"no program sources under {ROOT}/src")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    provenance = (git_sha(), source_digest())

    if args.workload != "all":
        result = run_one(binary, args.workload, args, provenance)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for w in WORKLOADS:
            r = run_one(binary, w, args, provenance)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                result["metrics"][f"{w}.{name}"] = m
    print(json.dumps(result))


if __name__ == "__main__":
    main()
