#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs each workload once per seed 1..10 with the command and window
length in BENCHMARK.json, then prints, per workload and metric, the
median over the runs, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median
next to the metric's bound. Exits nonzero if any run failed. Run from
the checkout root:

    python3 benchmark/spread.py [--workload NAME ...] [--json OUT]
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    ok = True
    for name in workloads:
        runs[name] = []
        for seed in range(1, RUNS + 1):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or result.get("failed", 1) != 0:
                ok = False
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}",
                      file=sys.stderr)
            runs[name].append({k: v["value"] for k, v in result.get("metrics", {}).items()})
            print(f"{name} seed {seed}: {runs[name][-1]}", file=sys.stderr, flush=True)

    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name in workloads:
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs[name] if metric in r]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if metric == "setup_s" or spread <= bound / 3 else "  > bound/3"
            print(f"{name:<14} {metric:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound:>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
