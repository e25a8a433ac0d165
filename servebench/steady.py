#!/usr/bin/env python3
"""Steadiness self-check for the servebench benchmark.

Runs the command in BENCHMARK.json ten times per workload, each run with
another seed, and reports for every end-to-end metric its median,
quartiles and spread (interquartile distance over the median) against
the metric's bound. With --sets 2 it repeats the whole series on fresh
seeds and also compares the two medians, direction-aware, against the
bound. Exits 1 if a spread exceeds its bound or a second median is
worse than the first by more than the bound.

Run from the repository root:

    python3 servebench/steady.py                 # 10 runs per workload
    python3 servebench/steady.py --sets 2        # both acceptance checks
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEED_BASE = 1000


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(RUNS):
                seed = SEED_BASE + 100 * s + i
                runs.append(run_once(spec, workload, seed))
                print(f"  {workload} set {s + 1} run {i + 1}/{RUNS} seed {seed}", file=sys.stderr)
            sets.append(runs)
        print(f"\n{workload}")
        print(f"  {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summarize([r[name] for r in runs])
                medians.append(med)
                if spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif spread > bound / 3:
                    verdict = "within bound, above a third of it"
                else:
                    verdict = "steady"
                print(f"  {name:<15} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} {bound:>6}  "
                      f"set {s + 1}: {verdict}")
            if len(medians) == 2:
                a, b = medians
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= bound else "SECOND MEDIAN WORSE THAN BOUND"
                ok &= worse <= bound
                print(f"  {name:<15} second median worse by {worse:+.4f} (bound {bound}): {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
