#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or those named) several times, each with its own seed,
and prints for each end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of its bound is
flagged; setup_s is judged by its median alone.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads ivf-hot,fleet-rw]

Use a --first-seed that was not used while tuning to check a held-out seed
range.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, log):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if log:
        log.write(p.stderr)
        log.flush()
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--log", help="append each run's stderr to this file")
    a = ap.parse_args()
    log = open(a.log, "a") if a.log else None

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    worst = 0.0
    for w in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(a.runs):
            seed = a.first_seed + i
            res = run_once(spec["command"], w, seed, spec["run_seconds"], log)
            ok = res["correct"] and res["failed"] == 0
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}" + ("" if ok else "  <-- FAILED CHECK"), flush=True)
            for m in values:
                values[m].append(res["metrics"][m]["value"])
        print(f"\n{w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
        print(f"  {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
                if spread > m["bound"] / 3:
                    flag = "  <-- above a third of the bound"
            print(f"  {m['name']:14} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {m['bound']:6.2f}{flag}")
        print(flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    if log:
        log.close()


if __name__ == "__main__":
    main()
