#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Runs every workload in BENCHMARK.json once per seed, untraced, with the
file's run_seconds, and reports for each end-to-end metric its median and
its spread: the distance between the first and third quartile of the
per-seed values (statistics.quantiles, n=4) as a share of their median.
A spread at or above a third of the metric's bound is flagged, except for
setup_s, whose bound only limits how far its median may move.

Run from the repository root:

    python3 bench/spread.py --seeds 10 --out bench/results/spread-1.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every per-seed value and spread here as JSON")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(opts.first_seed, opts.first_seed + opts.seeds)
    report = {}
    steady = True
    for w in bench["workloads"]:
        name = w["name"]
        values = {m: [] for m in bounds}
        for seed in seeds:
            res = run_once(bench["command"], name, seed, bench["run_seconds"])
            if not res["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect output: {res}")
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        report[name] = {}
        for m, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady = steady and ok
            report[name][m] = {"median": med, "spread": spread, "bound": bounds[m], "values": xs}
            print(f"{name:18} {m:13} median {med:<12.6g} spread {spread:7.4f}  "
                  f"bound/3 {bounds[m] / 3:.4f}  {'ok' if ok else 'TOO WIDE'}", flush=True)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
