// TiMR: run temporal CQ plans at scale on the (unmodified) map-reduce
// substrate with the (unmodified) temporal engine embedded inside reducers.
// This is the paper's first contribution (§III).
//
// Pipeline (paper Figure 5):
//   annotated CQ plan --MakeFragments--> {fragment, key} pairs
//                     --CompileFragment--> M-R stages
//                     --LocalCluster::ResumeJob/RunJobStages--> output dataset
//
// Each stage's reducer is the paper's P: it converts partition rows to point
// (or interval) events, pumps them through a freshly instantiated embedded
// engine executing the fragment's CQ (the paper's P'), and converts result
// events back to rows. Repartitioning is hash(key) % partitions — the
// bucketing trick of §III-C.3 — or overlapping temporal spans (§III-B).

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "mr/cluster.h"
#include "temporal/event.h"
#include "timr/fragments.h"

namespace timr::framework {

struct TimrOptions {
  /// Upper bound on temporal-partitioning span count (guards tiny spans).
  int max_temporal_partitions = 1024;

  /// Collect per-fragment engine event counts (Figure 15 metric).
  bool collect_engine_stats = false;

  /// Morsel size for the embedded engine's input driver: how many events the
  /// reducer packs into one EventBatch before pushing it through the fragment
  /// plan. Output is bit-identical for any value (see Executor::RunBatch);
  /// the knob trades virtual-dispatch amortization against cache footprint.
  /// 0 uses the engine default (Executor::kDefaultBatchSize).
  size_t engine_batch_size = 0;

  /// Whether reducers build columnar (SoA) morsels for fragment inputs whose
  /// consumers have vectorized kernels (see temporal/columnar.h). Output is
  /// bit-identical either way; the knob exists for benchmarks and the
  /// columnar-invariance tests.
  bool engine_columnar = true;

  /// Punctuation thinning for the embedded engine's input driver: one CTI per
  /// this many LE advances of the merged input stream. Output is identical at
  /// any value >= 1 (operators are CTI-granularity-invariant); higher values
  /// trade punctuation traffic against operator state held longer. The
  /// default matches Executor::kDefaultCtiThinning.
  size_t cti_thinning = 16;

  /// Verify the plan statically before running it (schema, exchange
  /// placement, fragment cuts — see analysis/analyzer.h) and insert
  /// ConformanceCheck operators at fragment boundaries that assert the
  /// temporal-stream discipline at runtime (valid lifetimes, CTI-respecting
  /// events, monotone CTIs). Violations fail the run with operator
  /// provenance. On by default; benchmarks measuring raw engine throughput
  /// turn it off (see bench_validate_overhead for the measured cost).
  bool validate_streams = true;

  /// Reducers receive partition rows already sorted by the Time column (the
  /// shuffle contract of mr/stage.h), so the embedded engine's input driver
  /// can skip its defensive re-sort. Debug builds still verify sortedness.
  /// Exists as a knob only so the shuffle-determinism tests can compare both
  /// paths.
  bool assume_sorted_shuffle = true;

  /// Fault-tolerance policy for the run — retry budget, speculative
  /// execution, poison-row quarantine (mr/fault.h). RunPlan installs it on
  /// the cluster with set_fault_tolerance, replacing whatever was there.
  mr::FaultToleranceOptions fault_tolerance;

  /// Multi-process execution (mr/driver.h): with process.workers > 0 every
  /// stage runs on a gang of forked worker processes behind an RPC boundary,
  /// with heartbeats, retries, and worker-loss recovery — output stays
  /// bit-identical to in-process execution. RunPlan installs it on the
  /// cluster with set_process_options, replacing whatever was there.
  mr::ProcessOptions process;

  /// Job-level options for the fragment stage sequence, as mr::JobOptions
  /// defines them for RunJob: checkpoint/resume (not owned), the chaos hook,
  /// and the job-wide skew policy. job.skew splits keyed exchanges only, never
  /// temporal or singleton fragments; a plan may also opt in per exchange via
  /// PartitionSpec::adaptive_split.
  mr::JobOptions job;
};

struct FragmentStats {
  std::string name;
  uint64_t engine_events_consumed = 0;  // summed over partitions
  /// Live counter shared with the stage's reducers (internal plumbing).
  std::shared_ptr<std::atomic<uint64_t>> engine_events;
};

struct TimrRunResult {
  /// The plan's output as events (lifetimes preserved through the interval
  /// row layout).
  std::vector<temporal::Event> output;
  mr::JobStats job_stats;
  FragmentedPlan fragments;
  std::vector<FragmentStats> fragment_stats;
  /// Exchanges removed by property-driven elision (one description each).
  std::vector<std::string> elided_exchanges;
};

/// Min/max Time over the datasets' rows ({0, 0} when all are empty) — the
/// span domain CompileFragment needs for temporally-partitioned fragments.
/// Rows without an int64 Time cell are skipped; the stage's map phase then
/// quarantines or rejects them.
Result<std::pair<temporal::Timestamp, temporal::Timestamp>> ScanTimeRange(
    const std::vector<const mr::Dataset*>& datasets);

/// Compile one fragment into an M-R stage. `row_schemas[i]` is the stored row
/// layout of fragment.inputs[i]. `time_range` must cover all input timestamps
/// when the fragment uses temporal partitioning.
Result<mr::MRStage> CompileFragment(
    const Fragment& fragment, const std::vector<Schema>& row_schemas,
    int default_partitions, const TimrOptions& options,
    std::pair<temporal::Timestamp, temporal::Timestamp> time_range,
    FragmentStats* stats);

/// The job loop behind RunPlanSet (suite.h): restore options.job's
/// checkpointed prefix, then run the remaining fragments as a DAG through
/// LocalCluster::RunJobStages, compiling each once its inputs exist (a
/// temporal one needs their time range). Fragments that do not depend on
/// each other run side by side. `store` must hold the plan's external
/// sources and nothing named like a fragment; `protected_outputs` are never
/// released. Appends one StageStats and one FragmentStats per fragment.
Status RunFragments(mr::LocalCluster* cluster, const FragmentedPlan& plan,
                    const std::set<std::string>& protected_outputs,
                    std::map<std::string, mr::Dataset>* store,
                    const TimrOptions& options, mr::JobStats* job_stats,
                    std::vector<FragmentStats>* fragment_stats);

/// Run an annotated plan over the datasets in `store` (external sources in
/// point layout: [Time, payload...]): RunPlanSet (suite.h) of this one plan,
/// without sharing. Intermediate datasets are added to the store under their
/// fragment names; the output is "frag_0".
Result<TimrRunResult> RunPlan(mr::LocalCluster* cluster,
                              const temporal::PlanNodePtr& annotated_root,
                              std::map<std::string, mr::Dataset>* store,
                              const TimrOptions& options = TimrOptions());

/// Convenience: wrap per-source event vectors into a store and RunPlan.
Result<TimrRunResult> RunPlanOnEvents(
    mr::LocalCluster* cluster, const temporal::PlanNodePtr& annotated_root,
    const std::map<std::string, std::pair<Schema, std::vector<temporal::Event>>>&
        inputs,
    const TimrOptions& options = TimrOptions());

}  // namespace timr::framework
