#!/usr/bin/env python3
"""Run the gesture benchmark several times and report each metric's spread.

    python3 gesturebench/spread.py [--runs 10] [--workloads browse,publish]
                                   [--seconds S] [--trace 0] [--first-seed 1]
                                   [--log FILE]
    python3 gesturebench/spread.py --compare FIRST.jsonl SECOND.jsonl

Run from the repository root. Each run gets its own seed. For every
metric it prints the median of the runs and the spread: the distance
between the first and third quartile (Python's
``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. Raw results are appended to
``--log`` (default ``gesturebench/out/spread.jsonl``) and each run's
report to ``gesturebench/out/run-<workload>-<seed>.log``.

``--compare`` reads two such logs, for example two sets of ten runs of
the same code with different first seeds, and prints each metric's
median in both sets and how much worse the second is, next to the
metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--log", default=os.path.join(ROOT, "gesturebench", "out",
                                                  "spread.jsonl"))
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds, {m["name"]: m["better"]
                                        for m in bench["end_to_end"]})
        return
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    log = os.path.abspath(args.log)
    os.makedirs(os.path.dirname(log), exist_ok=True)
    runs_dir = os.path.join(ROOT, "gesturebench", "out")
    os.makedirs(runs_dir, exist_ok=True)

    worst = 0.0
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds),
                                      "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            with open(os.path.join(runs_dir, f"run-{w}-{seed}.log"), "w") as f:
                f.write(proc.stderr)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: correct={result['correct']} "
                         f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} ({elapsed:.0f}s): " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"\n{w}: {args.runs} runs of {seconds}s")
        print(f"  {'metric':<40} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<40} {med:>12.4f} {spread:>8.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}")
    if args.trace == 0:
        print(f"\nworst spread as a share of its bound (setup_s aside): {worst:.2f}")


def medians(path):
    """Per (workload, metric), the median over the runs in a log."""
    values = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            for name, m in r["metrics"].items():
                values.setdefault((r["workload"], name), []).append(m["value"])
    return {k: (statistics.median(v), len(v)) for k, v in values.items()}


def compare(first, second, bounds, better):
    a, b = medians(first), medians(second)
    print(f"{'workload':<9} {'metric':<22} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}  runs")
    worst = 0.0
    for key in sorted(a.keys() & b.keys()):
        (ma, na), (mb, nb) = a[key], b[key]
        rel = mb / ma - 1
        worse = rel if better.get(key[1], "lower") == "lower" else -rel
        bound = bounds.get(key[1])
        if bound is not None:
            worst = max(worst, worse / bound)
        print(f"{key[0]:<9} {key[1]:<22} {ma:>12.4f} {mb:>12.4f} {worse:>9.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6}  {na}/{nb}")
    print(f"\nworst change as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
