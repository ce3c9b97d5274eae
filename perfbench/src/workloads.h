// The benchmark's four workloads (see BENCHMARK.json for why each exists).
//
//   bt_batch   BtFeaturePipeline(kStandard) through RunPlan in thread mode,
//              paired with bt::RunCustomBtJob on the same log (Figure 14).
//   bt_suite   the 20-CQ BtCqSuite through RunPlanSuite with sharing on.
//   bt_procs   the bt_batch plan on a gang of nproc-1 forked workers, paired
//              with bt::RunCustomBtJob on the same workers, plus one job
//              with a scripted worker SIGKILL in every stage.
//   live_feed  LivePipeline over the same plan: closed-loop replay of the
//              log, then an open-loop ladder of fixed push rates.
//
// Every workload measures jobs until the run's time budget is spent, checks
// every output, and reports medians with their sample counts.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 20120401;  // the generator's default seed
  double seconds = 10;
  bool trace = false;
  /// "full" for measurement, "tiny" for the self-test.
  std::string size = "full";
  /// Self-test hook: corrupt one output before it is checked.
  bool perturb = false;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  /// Measured on every workload; BENCHMARK.json gates them.
  std::vector<Metric> end_to_end;
  /// Printed, not gated: events_per_s (job_s inverted), metrics only some
  /// workloads have (custom job, recovery, live latency), and
  /// failed_ops_ratio (0 on a good run).
  std::vector<Metric> ungated;
  std::vector<Metric> per_layer;  // traced runs only
  std::vector<std::string> failures;  // one line per failed op or check
  int64_t attempted = 0;  // jobs, live pushes and output checks
  int64_t failed = 0;
  int64_t input_events = 0;
  int64_t samples = 0;  // measured (untraced) jobs behind each median
  std::vector<double> job_walls;     // every measured job, in run order
  std::vector<double> custom_walls;  // every measured custom job
  // Traced runs: jobs traced, their summed wall (probes cut out), the part
  // of it covered by the driver-thread self times of reported layers, and
  // the jobs' own self time.
  int64_t jobs_traced = 0;
  double trace_job_wall_s = 0;
  double trace_covered_s = 0;
  double trace_gap_s = 0;
  uint64_t spans_dropped = 0;
};

/// Runs `args.workload`; unknown names leave a failure in the report.
Report RunWorkload(const Args& args);

}  // namespace perfbench
