#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs every named workload once per seed (seeds 1..N by default), then
prints, per workload and end-to-end metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steadiness.py --runs 10 [--workloads fig-cold,serve-warm]
        [--seconds 12] [--first-seed 1] [--json out.json]

Runs are sequential; each goes through run.py, so the harness is built
first. A run that exits non-zero or reports correct=false aborts.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def one_run(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="0 = run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {}
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(one_run(root, name, seed, seconds))
            print(f"# {name} seed {seed} done", file=sys.stderr, flush=True)
        samples[name] = runs
    print(f"| workload | metric | median | Q1 | Q3 | spread | bound |")
    print(f"|---|---|---|---|---|---|---|")
    for name, runs in samples.items():
        for metric in bounds:
            vals = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"| {name} | {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.3f} | {bounds[metric]} |")
    if args.json:
        Path(args.json).write_text(json.dumps(samples, indent=1) + "\n")


if __name__ == "__main__":
    main()
