#!/usr/bin/env python3
"""Runs one workload N times with distinct seeds and reports how steady
every metric is, next to its bound in BENCHMARK.json.

    python3 e2ebench/steadiness.py --workload lp-round [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1]

For each metric: the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, the max/min ratio, the bound, and whether the spread
stays below a third of the bound (the target the bounds were set against).
Also prints the share of failed operations of every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    units = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d: run failed with exit code %d"
                     % (seed, proc.returncode))
        result = json.loads(lines[-1])
        shares.append(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("\n%-28s %-8s %12s %12s %12s %8s %8s %6s  %s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "max/min",
        "bound", "verdict"))
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ratio = max(v) / min(v) if min(v) > 0 else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = "-"
        else:
            verdict = "ok" if spread < bound / 3 else (
                "within" if spread <= bound else "OVER")
        print("%-28s %-8s %12.6g %12.6g %12.6g %8.4f %8.3f %6s  %s" % (
            name, units[name], med, q1, q3, spread, ratio,
            "-" if bound is None else "%.2f" % bound, verdict))
    print("\nper run, in seed order:")
    for name, v in values.items():
        print("%-28s %s" % (name, " ".join("%.4g" % x for x in v)))
    print("\nfailed share per run: %s" % sorted(set(shares)))


if __name__ == "__main__":
    main()
