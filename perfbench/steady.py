#!/usr/bin/env python3
"""Run the benchmark over several seeds, twice, and summarize its spread.

    python3 perfbench/steady.py --out perfbench/baselines.json

Makes two sets of runs of every workload in BENCHMARK.json. A set runs each
workload once per seed with --trace 0 (the ten seeds include the
generator's default); the second set starts after the first has finished.
One --trace 1 run per workload at the default seed follows. For each set,
workload and end-to-end metric it writes the ten values, their median and
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median; for
each metric it compares the two sets' medians against the metric's bound.
It also writes the traced run's per-layer metrics, the workload-only metrics
and the runs' metadata. Spreads above a third of the bound and medians that
moved by more than the bound are flagged. Exits non-zero when a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20120401
SEEDS = [DEFAULT_SEED] + list(range(1, 10))
SETS = 2


def run(workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
        report = os.path.join(tmp, "report.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--report", report],
            capture_output=True, text=True)
        with open(report) as f:
            full = json.load(f)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"{ {k: round(m['value'], 4) for k, m in result['metrics'].items()} if not trace else ''}",
          flush=True)
    return result, full


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def measure_set(workload, seconds, bounds):
    runs = [run(workload, s, seconds, 0) for s in SEEDS]
    entry = {
        "all_correct": all(r["correct"] for r, _ in runs),
        "metadata": {k: runs[0][1][k] for k in ("git_sha", "nproc", "build_type",
                                                 "compiler", "input_events")},
        "input_events_by_seed": [full["input_events"] for _, full in runs],
        "samples_by_seed": [full["samples"] for _, full in runs],
        "end_to_end": {}, "ungated": {},
    }
    for name, bound in bounds.items():
        s = summarize([r["metrics"][name]["value"] for r, _ in runs])
        s["over_third_of_bound"] = s["spread"] > bound / 3
        entry["end_to_end"][name] = s
        print(f"  {workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f}"
              f"{'  (over a third of its bound)' if s['over_third_of_bound'] else ''}",
              flush=True)
    for name in runs[0][1]["ungated"]:
        entry["ungated"][name] = summarize(
            [full["ungated"][name]["value"] for _, full in runs])
    return entry


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)

    sets = [{w: measure_set(w, seconds, bounds) for w in workloads}
            for _ in range(SETS)]
    out = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = all(e["all_correct"] for s in sets for e in s.values())
    for w in workloads:
        traced, traced_full = run(w, DEFAULT_SEED, seconds, 1)
        ok = ok and traced["correct"]
        agreement = {}
        for name, bound in bounds.items():
            first, second = (s[w]["end_to_end"][name]["median"] for s in sets)
            worse = (second - first) / first
            if better[name] == "higher":
                worse = -worse
            agreement[name] = {"medians": [first, second], "second_worse_by": worse,
                               "within_bound": worse <= bound}
            print(f"  {w} {name}: medians {first:.5g} / {second:.5g}, second worse by "
                  f"{worse:+.4f}{'' if worse <= bound else '  (beyond its bound)'}",
                  flush=True)
        out["workloads"][w] = {
            "sets": [s[w] for s in sets],
            "agreement": agreement,
            "per_layer_default_seed": {k: m["value"]
                                       for k, m in traced["metrics"].items()},
            "trace_check_default_seed": traced_full["trace_check"],
        }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
