#!/usr/bin/env python3
"""Steadiness and comparison runs of the benchmark.

One build, N runs per workload, each with another seed:

    python3 perfbench/steady.py --runs 10 [--workloads serve_mux]

Two builds (checkouts) alternating, pair by pair, the first side changing
every pair:

    python3 perfbench/steady.py --runs 10 --against ../parent-checkout

For every end-to-end metric it prints the median and quartiles
(statistics.quantiles(n=4)), the spread (Q3 - Q1) / median against the
metric's bound from BENCHMARK.json, and, with --against, the shift of this
checkout's median from the other's and how many pairs this checkout won.
Every run must be correct with no failed operation, and every spread,
setup_s's too, must fit its bound.
Run from the root of a checkout; each checkout builds itself on first use.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", default="", help="another checkout to alternate with")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    here = os.getcwd()
    spec = json.load(open(os.path.join(here, "BENCHMARK.json")))
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == 0 else [
        dict(m, bound=None) for m in spec["per_layer"]]
    sides = [here] + ([os.path.abspath(args.against)] if args.against else [])

    all_ok = True
    for workload in workloads:
        results = {side: [] for side in sides}
        for i in range(args.runs):
            seed = args.first_seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                results[side].append(
                    run_once(side, workload, seed, spec["run_seconds"], args.trace))
                print(f"  {workload} run {i + 1}/{args.runs} done: {side}",
                      file=sys.stderr)
        print(f"\n== {workload} ({args.runs} runs per side)")
        for side in sides:
            correct = all(r["correct"] for r in results[side])
            failed = sum(r["failed"] for r in results[side])
            all_ok &= correct and failed == 0
            print(f"  {side}: correct={correct} failed ops={failed}")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            row = []
            for side in sides:
                values = [r["metrics"][name]["value"] for r in results[side]]
                q1, med, q3 = summary(values)
                spread = (q3 - q1) / med if med else 0.0
                ok = bound is None or spread <= bound
                all_ok &= ok
                row.append((med, q1, q3, spread, ok, values))
            line = f"  {name:32s}"
            for med, q1, q3, spread, ok, _ in row:
                verdict = "" if bound is None else (
                    f" spread {spread:.3f}/{bound} {'ok' if ok else 'TOO WIDE'}")
                line += f" | median {med:.6g} [{q1:.6g}, {q3:.6g}]{verdict}"
            if len(row) == 2 and row[1][0]:
                lower = m["better"] == "lower"
                shift = (row[0][0] - row[1][0]) / row[1][0]
                worse = shift if lower else -shift
                wins = sum((a < b) if lower else (a > b)
                           for a, b in zip(row[0][5], row[1][5]))
                line += f" | shift {shift:+.3f}, {wins}/{args.runs} pairs better"
                if bound is not None and worse > bound:
                    line += " WORSE THAN BOUND"
                    all_ok = False
            print(line)
    print("\nsteady" if all_ok else "\nNOT steady")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
