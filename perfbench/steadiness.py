#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs the benchmark once per seed on each named workload (untraced) and
prints, per metric, the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. A metric's bound in BENCHMARK.json should be at
least three times its spread. Run from the repository root:

    python3 perfbench/steadiness.py --workloads detect,serve,query \\
        --seeds 1-10 --seconds 20
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="detect,serve,query")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    print("| workload | metric | median | spread | bound | spread / bound | values |")
    print("|---|---|---|---|---|---|---|")
    for wl in args.workloads.split(","):
        runs = [run_once(wl, s, args.seconds) for s in parse_seeds(args.seeds)]
        for name in sorted(runs[0]):
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            b = bounds.get(name, float("nan"))
            shown = " ".join(f"{v:.4g}" for v in vals)
            print(f"| {wl} | {name} | {med:.6g} | {spread:.3f} | {b} | {spread / b:.2f} | {shown} |",
                  flush=True)


if __name__ == "__main__":
    main()
