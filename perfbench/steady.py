#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs perfbench/run.py several times per workload, each time with another
seed, and prints every end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median). Exits 1 when a
spread exceeds the bound BENCHMARK.json fixes for that metric; setup_s is
reported but not gated, as its bound applies to medians only.

  python3 perfbench/steady.py --runs 10 [--workload cli-vfs ...] [--seconds N]

Run from the root of a source checkout. Raw results go to .bench_steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        raw[workload] = values
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            gated = name != "setup_s"
            flag = ""
            if gated and spread > bounds[name]:
                flag = "  OVER BOUND"
                ok = False
            elif gated and spread > bounds[name] / 3:
                flag = "  over a third of the bound"
            print(f"  {name:30} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{bounds[name]:6.3f}{flag}")
    with open(".bench_steady.json", "w") as f:
        json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
