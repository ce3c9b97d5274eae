#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload bt_batch --seed 20120401 --seconds 20 --trace 0

Builds perfbench/ (and the library sources it compiles) into
.bench_build/perfbench, runs one workload, echoes the benchmark's
human-readable summary, and prints as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The full report (every metric, the run's
metadata and the trace check) is written under .bench_build/perfbench/results,
and a traced run's spans under .bench_build/perfbench/traces. Exits non-zero
when the build fails, a job fails, or an output check fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("bt_batch", "bt_suite", "bt_procs", "live_feed")
RUN_TIMEOUT_S = 170

# Metric name -> unit; must match BENCHMARK.json (the self-test checks it).
END_TO_END = {
    "job_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "temporal.decode_s": "s",
    "temporal.create_s": "s",
    "temporal.engine_s": "s",
    "temporal.encode_s": "s",
    "temporal.engine_events": "count",
    "temporal.events_per_s": "1/s",
    "mr.map_s": "s",
    "mr.sort_s": "s",
    "mr.reduce_s": "s",
    "mr.rows_shuffled": "count",
    "mr.stages": "count",
    "mr.partition_skew_x": "x",
    "mr.task_attempts": "count",
    "mr.retried_tasks": "count",
    "mr.simulated_s": "s",
    "mr.stage_s": "s",
    "mr.rpc.encode_s": "s",
    "mr.rpc.decode_s": "s",
    "mr.rpc.bytes": "B",
    "mr.worker_restarts": "count",
    "mr.rpc_retries": "count",
    "mr.heartbeat_timeouts": "count",
    "timr.fragment_s": "s",
    "timr.compile_s": "s",
    "timr.outside_stages_s": "s",
    "analysis.verify_s": "s",
    "analysis.share_select_s": "s",
    "timr.live.create_s": "s",
    "timr.live.push_s": "s",
    "timr.live.finish_s": "s",
    "bt.custom.map_s": "s",
    "bt.custom.reduce_s": "s",
    "workload.generate_s": "s",
    "bench.gen_late_ms": "ms",
    "bench.trace_overhead_pct": "%",
    "bench.coverage_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build; compiler output goes to stderr."""
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
    ):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(BUILD, "timr_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(cmd):
    """Run the benchmark in its own process group so a timeout, or a signal
    to this script, also takes down any worker processes it forked. Returns
    (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        kill_group()
        proc.wait()
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        out, _ = proc.communicate()
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return None, out
    return proc.returncode, out


def select_metrics(report, trace):
    """The declared metric set of this run, or a list of problems."""
    expected = PER_LAYER if trace else END_TO_END
    got = report["per_layer" if trace else "end_to_end"]
    problems = []
    metrics = {}
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m["unit"] != unit:
            problems.append(f"metric {name} has unit {m['unit']}, expected {unit}")
        elif m["value"] is None or not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number")
        else:
            metrics[name] = {"value": m["value"], "unit": unit}
    problems += [f"unexpected metric {n}" for n in got if n not in expected]
    return metrics, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20120401)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the self-test")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one output to prove the checks catch it")
    ap.add_argument("--report", help="where to write the full JSON report")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.perturb:
        cmd.append("--perturb")
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", tag + ".json")
        cmd += ["--trace-out", trace_path]

    code, out = run_binary(cmd)
    lines = out.rstrip("\n").split("\n") if out else []
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: the benchmark printed no report (exit code {code})")
        return 3
    for line in lines[:-1]:
        print(line)

    metrics, problems = select_metrics(report, args.trace)
    for p in problems:
        log(f"perfbench: {p}")
    failed = report["failed"] + len(problems) + (0 if code == 0 else 1)
    report.update(git_sha=git_sha(), exit_code=code, trace_path=trace_path,
                  unix_time=time.time())
    path = args.report or os.path.join(BUILD, "results", tag + ".json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(report, f, indent=1)

    correct = failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, report["attempted"]),
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
