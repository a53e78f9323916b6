#!/usr/bin/env python3
"""The acceptance check of the benchmark contract, runnable by hand.

Runs /BENCHMARK.json's command `--runs` times per workload, each time with
another seed, `--sets` times over. For every end-to-end metric it prints the
distance between the first and third quartile of a set as a share of the
set's median (which must stay within the metric's bound, `setup_s` excepted)
and by how much each later set's median is worse than the first's (which
must stay within the bound for every metric). For comparison it prints the
same spread for three uncalibrated wall-clock statistics of `ops_per_s`, read
from `benchmark/out/result.json`: the README's noise notes quote them.

    python3 benchmark/spread.py [--runs 10] [--sets 2] [--workload NAME]...

Run from the repository root; exits 1 when a bound is exceeded.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    with open(os.path.join(ROOT, "benchmark", "out", "result.json")) as f:
        wall = json.load(f)["end_to_end"][workload]["wall_clock"]["ops_per_s"]
    values.update({f"wall clock {k}": wall[k] for k in ("best", "median", "q3")})
    return values


def spread_of(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        first = {}
        for s in range(args.sets):
            runs = [run(spec, workload, 1000 * (s + 1) + i) for i in range(args.runs)]
            for m in spec["end_to_end"]:
                median, spread = spread_of([r[m["name"]] for r in runs])
                line = f"{workload:<20} set {s} {m['name']:<13} median {median:>16.6f} spread {spread:7.2%}"
                if m["name"] != "setup_s" and spread > m["bound"]:
                    ok = False
                    line += "  SPREAD EXCEEDS BOUND"
                base = first.setdefault(m["name"], median)
                worse = (median - base) / base * (1 if m["better"] == "lower" else -1)
                if s > 0:
                    line += f"  vs set 0 {worse:+7.2%}"
                    if worse > m["bound"]:
                        ok = False
                        line += "  MEDIAN EXCEEDS BOUND"
                print(line + f"  (bound {m['bound']:.0%})", flush=True)
            for name in sorted(k for k in runs[0] if k.startswith("wall clock")):
                median, spread = spread_of([r[name] for r in runs])
                print(f"{workload:<20} set {s} ({name + ')':<20} median {median:>16.6f} spread {spread:7.2%}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
