#!/usr/bin/env python3
"""Run each workload several times on different seeds and report spreads.

Run from the root of a checkout:

    python3 perfbench/steadiness.py                # 10 runs per workload
    python3 perfbench/steadiness.py --runs 5 --workloads long_context

For every end-to-end metric it prints the median, the first and third
quartiles (Python's statistics.quantiles, n=4), the spread (third minus
first quartile, as a share of the median) and the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged
"WIDE"; setup_s is reported but its spread is not held to the bound.
It also prints the share of failed operations per workload, which must
be identical in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    worst = 0.0
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':24s} {'median':>14s} {'q1':>14s} "
              f"{'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            held = name != "setup_s"
            if held:
                worst = max(worst, spread / bound)
            flag = "WIDE" if held and spread >= bound / 3 else ""
            print(f"  {name:24s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.2f} {flag}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
