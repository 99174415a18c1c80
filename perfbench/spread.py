#!/usr/bin/env python3
"""Runs the benchmark command of BENCHMARK.json ten times per workload, each
with another seed, and prints for every end-to-end metric the interquartile
range of its ten values as a share of their median, beside the metric's
bound. Run from the repository root:
    python3 perfbench/spread.py [first_seed [workload ...]]
"""
import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"], time.monotonic() - start


def main():
    first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    spec = json.load(open("BENCHMARK.json"))
    worst = 0.0
    chosen = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
    for workload in chosen:
        runs, walls = [], []
        for i in range(RUNS):
            metrics, wall = run(spec["command"], workload, first_seed + i, spec["run_seconds"], 0)
            runs.append(metrics)
            walls.append(wall)
        print(f"{workload}: wall per run median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            share = spread / metric["bound"]
            if metric["name"] != "setup_s":
                worst = max(worst, share)
            flag = "" if share < 1 / 3 else ("  <-- above a third of the bound" if share < 1 else "  <-- ABOVE THE BOUND")
            print(f"  {metric['name']:<26} median {med:>12.4f} {metric['unit']:<4} "
                  f"spread {spread:6.2%} bound {metric['bound']:.0%}{flag}")
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
