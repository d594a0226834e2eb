#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady each metric is.

    python3 perfbench/steadiness.py --workloads adult-draw,tpch-fit \
        --seeds 1-10 [--sets 2] [--trace 0] [--json out.json]

Run from the repository root. Each run is the command in BENCHMARK.json
plus `--workload W --seed S --seconds <run_seconds> --trace T`. For every
workload and metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), the quartile spread as a share of
the median, and the metric's bound; with `--sets 2` it repeats the seeds
and prints how far the second set's median moved from the first's, as a
share of the first (positive = worse). The fit and draw costs an untraced
run prints on stderr, which are not end-to-end metrics, get the same rows
without a bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    want = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"{workload} seed {seed}: metric names or units differ from BENCHMARK.json: "
                         f"{sorted(set(got.items()) ^ set(want.items()))}")
    printed = re.search(r"fit_s: (\S+); draw_rows_per_s \(n=\d+\): (\S+); bulk_p50_ms: (\S+)",
                        proc.stderr)
    if printed:
        for (name, better), value in zip(PRINTED, printed.groups()):
            result["metrics"][name] = {"value": float(value), "printed": True}
    return result, wall


# what an untraced run prints on stderr: (name, better)
PRINTED = [("fit_s", "lower"), ("draw_rows_per_s", "higher"), ("bulk_p50_ms", "lower")]


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write every raw result here")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    if args.trace == 0:
        metrics = metrics + [{"name": n, "better": b, "bound": 0} for n, b in PRINTED]
    raw = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            values = {}
            for seed in seeds_of(args.seeds):
                result, wall = run_once(bench, workload, seed, args.trace)
                print(f"{workload} set {k + 1} seed {seed}: {wall:.1f}s wall", flush=True)
                raw.setdefault(workload, []).append({"set": k + 1, "seed": seed, "wall_s": wall, **result})
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print(f"\n{workload}")
        print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
              + ("  2nd-vs-1st" if args.sets > 1 else ""))
        for m in metrics:
            name = m["name"]
            row = ""
            for k, values in enumerate(sets):
                med, q1, q3, s = spread(values[name])
                if k == 0:
                    first = med
                    row = f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {s:8.4f} {m.get('bound', 0):6.3f}"
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    row += f"  {worse:+.4f} (spread {s:.4f})"
            print(row)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
