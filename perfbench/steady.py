#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload repeatedly, alternating the order of workloads from
round to round, with seeds base, base+1, ..., and prints the median,
quartiles and spread (interquartile distance over the median) of every
metric, plus the share of failed operations. These figures are what the
bounds in BENCHMARK.json are set from. With --sets 2 it runs a second set
on the next seeds and prints how far each median moved between the sets,
in the metric's worse direction, against its bound.

    python3 perfbench/steady.py --runs 10 --seed 1 --sets 2
    python3 perfbench/steady.py --runs 5 --seed 100 --model-seed 11
    python3 perfbench/steady.py --runs 3 --trace 1 --workloads wave

Run it from the repository root. It builds once with cargo (honouring
CARGO_TARGET_DIR) and then invokes the command BENCHMARK.json names.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace, extra):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ] + extra
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload")
    p.add_argument("--seed", type=int, default=1, help="seed of the first round")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--model-seed", type=int, help="build the model from this seed")
    p.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    a = p.parse_args()

    extra = []
    if a.model_seed is not None:
        extra += ["--model-seed", str(a.model_seed)]
    workloads = a.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    subprocess.run(["cargo", "build", "--release", "--quiet", "--manifest-path",
                    "perfbench/Cargo.toml"], cwd=ROOT, check=True)

    medians = []
    for k in range(a.sets):
        first = a.seed + k * a.runs
        print(f"set {k + 1}: seeds {first}-{first + a.runs - 1}")
        medians.append(run_set(spec, a, workloads, first, extra))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for k in range(1, len(medians)):
        print(f"set {k + 1} against set 1: how much worse the median is")
        print(f"{'workload':<8} {'metric':<30} {'set 1':>14} {f'set {k + 1}':>14} "
              f"{'worse':>8} {'bound':>6}")
        for (w, name), med in medians[k].items():
            base = medians[0][(w, name)]
            worse = (med - base) if better[name] == "lower" else (base - med)
            share = worse / base if base else 0.0
            bound = bounds.get(name) if a.trace == 0 else None
            flag = "" if bound is None or share <= bound else "  <-- beyond the bound"
            print(f"{w:<8} {name:<30} {base:>14.6g} {med:>14.6g} {share:>8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")


def run_set(spec, a, workloads, first, extra):
    """One set of runs; prints its table and returns the medians."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    for r in range(a.runs):
        shift = r % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            out = run_once(spec["command"], w, first + r, a.seconds, a.trace, extra)
            results[w].append(out)
            print(f"round {r} {w}: correct={out['correct']} attempted={out['attempted']} "
                  f"failed={out['failed']}", file=sys.stderr, flush=True)

    medians = {}
    print(f"{'workload':<8} {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            med, q1, q3, s = spread(values)
            medians[(w, name)] = med
            bound = bounds.get(name) if a.trace == 0 else None
            flag = "" if bound is None or s <= bound / 3 else "  <-- above a third of the bound"
            print(f"{w:<8} {name:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{w:<8} {'failed share':<30} {sorted(shares)}; "
              f"all correct: {all(run['correct'] for run in runs)}", flush=True)
    return medians


if __name__ == "__main__":
    main()
