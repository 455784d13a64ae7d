#!/usr/bin/env python3
"""Steadiness check and baseline record for the benchmark.

    python3 perfbench/steadiness.py --seeds 101-110 [--workloads a,b] \
        [--write perfbench/BASELINE.json]

Runs `perfbench/run.py --trace 0` once per (workload, seed) with the
run_seconds of BENCHMARK.json, then per workload and end-to-end metric
prints the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, against a third of the metric's bound.
With --write, stores those figures plus the slow-repeat accounting of every
workload (repeats whose sim_s exceeds twice their run's fastest, with their
median throttle shrinks and GVT rounds) as the baseline record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def slow_repeats(records):
    """Pooled slow-repeat accounting over the runs of one workload."""
    slow, fast = [], []
    for rec in records:
        reps = [r for r in rec["repeats"] if not r["warmup"]]
        fastest = min(r["sim_s"] for r in reps)
        for r in reps:
            (slow if r["sim_s"] > 2 * fastest else fast).append(r)

    def med(rs, key):
        return statistics.median([r[key] for r in rs]) if rs else None

    return {
        "repeats": len(slow) + len(fast),
        "slow_share": len(slow) / max(1, len(slow) + len(fast)),
        "slow_throttle_shrinks_median": med(slow, "warped.throttle_shrinks"),
        "slow_gvt_rounds_median": med(slow, "warped.gvt_rounds"),
        "fast_throttle_shrinks_median": med(fast, "warped.throttle_shrinks"),
        "fast_gvt_rounds_median": med(fast, "warped.gvt_rounds"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,2,3")
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--write", help="baseline JSON to write")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    baseline = {"run_seconds": bench["run_seconds"], "seeds": seeds,
                "workloads": {}}
    steady = True
    for w in names:
        values, records, correct = {}, [], True
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            res = json.loads(r.stdout.strip().splitlines()[-1])
            correct = correct and res["correct"] and res["failed"] == 0
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            with open(os.path.join(HERE, "results",
                                   f"{w}-seed{seed}-trace0.json")) as f:
                records.append(json.load(f))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                flush=True)
        entry = {"correct": correct, "metrics": {}}
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            ok = spread < bounds[k] / 3
            if k != "setup_s":
                steady = steady and ok
            entry["metrics"][k] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": spread, "values": v}
            print(f"  {w:14s} {k:18s} median {med:.5g}  q1 {q1:.5g}  "
                  f"q3 {q3:.5g}  spread {spread:.3f}  "
                  f"(< bound/3 = {bounds[k] / 3:.3f}: {'yes' if ok else 'NO'})")
        entry["slow_repeats"] = slow_repeats(records)
        baseline["held_out_seed"] = records[0]["provenance"]["held_out_seed"]
        print(f"  {w:14s} slow repeats: {entry['slow_repeats']}")
        steady = steady and correct
        baseline["workloads"][w] = entry

    if args.write:
        with open(args.write, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
