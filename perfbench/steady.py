#!/usr/bin/env python3
"""Steadiness mode: run the benchmark repeatedly and compare each metric's
spread with its bound.

For every workload it runs the benchmark command from BENCHMARK.json once per
seed, reads the JSON result on the last line of each run, and prints for each
end-to-end metric the median, the quartiles, and the spread (interquartile
distance as a share of the median) against the metric's bound. A metric whose
spread is wider than its bound is marked UNRESOLVED: a change to it smaller
than the spread cannot be told from noise.

Run from the root of the repository:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload paper-matrix --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    opts = parser.parse_args()
    if opts.runs < 2:
        parser.error("--runs must be at least 2")

    with open(opts.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    unresolved = 0
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result = run_once(bench["command"], workload, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output checks failed")
            for name, series in values.items():
                series.append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr)
        print(f"\n{workload} ({opts.runs} runs, seeds {opts.first_seed}.."
              f"{opts.first_seed + opts.runs - 1})")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            series = values[m["name"]]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if spread > m["bound"]:
                mark = "UNRESOLVED"
                unresolved += 1
            elif spread > m["bound"] / 3:
                mark = "wide (over a third of the bound)"
            print(f"  {m['name']:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {m['bound']:>6.0%} {mark}")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
