#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/tests/test_perfbench.py

Checks that each run prints every declared metric exactly once with its unit
and a finite value; that a traced run's spans parse with one job span per
traced job; that every span maps to a reported per-layer metric whose value
is the span's self time, and that these account for the traced job wall;
that bypassed layers read 0; that a deliberately corrupted output is counted
as a failure; and that the benchmark refuses to run without the library
sources. Writes only under .bench_build/.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402

OUT = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
# The driver-thread self times of the reported layers plus the jobs' own
# self time must account for the traced job wall (probe spans cut out) to
# within this share of it.
COVERAGE_TOLERANCE = 0.01


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def invoke(workload, trace, perturb=False):
    os.makedirs(OUT, exist_ok=True)
    report = os.path.join(
        OUT, f"{workload}-trace{trace}{'-perturb' if perturb else ''}.json")
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
           "--size", "tiny", "--report", report]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, object_pairs_hook=no_duplicate_keys)
    with open(report) as f:
        full = json.load(f)
    return proc.returncode, result, full


def self_times(events):
    """Per-span self time (us): duration minus same-lane child coverage."""
    by_id = {e["args"]["id"]: e for e in events}
    kids = {i: [] for i in by_id}
    for e in events:
        if e["args"]["parent"] in by_id:
            kids[e["args"]["parent"]].append(e)
    lane = lambda e: (e["pid"], e["tid"])  # noqa: E731
    selfs = {}
    for i, e in by_id.items():
        lo, hi = e["ts"], e["ts"] + e["dur"]
        spans = sorted((max(c["ts"], lo), min(c["ts"] + c["dur"], hi))
                       for c in kids[i] if lane(c) == lane(e))
        covered, cur = 0.0, None
        for s, t in spans:
            if s >= t:
                continue
            if cur and s <= cur[1]:
                cur[1] = max(cur[1], t)
                continue
            if cur:
                covered += cur[1] - cur[0]
            cur = [s, t]
        if cur:
            covered += cur[1] - cur[0]
        selfs[i] = e["dur"] - covered
    return by_id, kids, selfs


class BenchmarkSpec(unittest.TestCase):
    def test_metric_lists_match_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         bench.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))

    def test_refuses_to_run_without_library_sources(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bt_batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Workloads(unittest.TestCase):
    def assert_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], expected[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def check_untraced(self, workload):
        code, result, full = invoke(workload, 0)
        self.assertEqual(code, 0, full["failures"])
        self.assert_metrics(result, bench.END_TO_END)
        self.assertEqual(full["ungated"]["failed_ops_ratio"]["value"], 0)
        self.assertEqual("timr_overhead_x" in full["ungated"],
                         workload in ("bt_batch", "bt_procs"))
        for key in ("git_sha", "nproc", "build_type", "compiler", "seed", "input_events"):
            self.assertIn(key, full)

    def check_traced(self, workload):
        code, result, full = invoke(workload, 1)
        self.assertEqual(code, 0, full["failures"])
        self.assert_metrics(result, bench.PER_LAYER)
        with open(full["trace_path"]) as f:
            events = json.load(f)["traceEvents"]
        jobs = [e for e in events if e["name"] == "job"]
        check = full["trace_check"]
        self.assertGreater(len(jobs), 0)
        self.assertEqual(len(jobs), check["jobs"])
        job_ids = [e["args"]["job"] for e in jobs]
        self.assertEqual(len(job_ids), len(set(job_ids)), "one job span per job")
        self.assertTrue(all(e["args"]["job"] in job_ids for e in events))
        self.assertEqual(check["spans_dropped"], 0)

        # Every span is a layer with a reported metric, and the metric is
        # the span's self time per traced job.
        _, kids, selfs = self_times(events)
        totals = {}
        for e in events:
            if e["name"] != "job":
                totals[e["name"]] = totals.get(e["name"], 0.0) + selfs[e["args"]["id"]]
        for name, total in totals.items():
            metric = name + "_s"
            self.assertIn(metric, bench.PER_LAYER, f"span {name} has no per-layer metric")
            self.assertAlmostEqual(result["metrics"][metric]["value"],
                                   total * 1e-6 / len(jobs), delta=1e-6, msg=metric)

        # The driver-thread self times of the reported layers plus the jobs'
        # own self time cover the traced job wall (probe spans cut out).
        wall = covered = gap = 0.0
        for job in jobs:
            stack, probe = list(kids[job["args"]["id"]]), 0.0
            while stack:
                e = stack.pop()
                if (e["pid"], e["tid"]) != (job["pid"], job["tid"]):
                    continue
                if e["args"]["probe"]:
                    probe += e["dur"]
                    continue
                if e["name"] + "_s" in result["metrics"]:
                    covered += selfs[e["args"]["id"]]
                stack += kids[e["args"]["id"]]
            wall += job["dur"] - probe
            gap += selfs[job["args"]["id"]]
        self.assertLessEqual(wall - covered - gap, COVERAGE_TOLERANCE * wall)
        self.assertAlmostEqual(covered * 1e-6, check["covered_s"], delta=1e-6)
        self.assertAlmostEqual(wall * 1e-6, check["job_wall_s"], delta=1e-6)
        self.assertAlmostEqual(result["metrics"]["bench.coverage_pct"]["value"],
                               covered / wall * 100, delta=1e-3)

        # Only process mode crosses the wire codec.
        rpc_bytes = result["metrics"]["mr.rpc.bytes"]["value"]
        if workload == "bt_procs":
            self.assertGreater(rpc_bytes, 0)
        else:
            self.assertEqual(rpc_bytes, 0)

    def check_perturbed(self, workload):
        code, result, full = invoke(workload, 0, perturb=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("check failed" in f for f in full["failures"]))


for _w in bench.WORKLOADS:
    for _kind in ("untraced", "traced", "perturbed"):
        def _test(self, w=_w, kind=_kind):
            getattr(self, "check_" + kind)(w)
        setattr(Workloads, f"test_{_w}_{_kind}", _test)


if __name__ == "__main__":
    unittest.main()
