// LocalCluster: an in-process shared-nothing map-reduce runtime.
//
// It reproduces the execution contract TiMR depends on (paper §II-B, §III):
//  - map: each row is routed to one or more partitions by the stage's
//    partition function;
//  - shuffle: each partition's rows are sorted by the Time column (ties broken
//    by full row comparison so reducer input is canonical — a restarted
//    reducer sees byte-identical input, which together with the temporal
//    algebra gives the paper's repeatable-output failure handling, §III-C.1);
//  - reduce: one task per partition.
//
// Every stage runs through one stage pipeline (pipeline.h) over one of two
// task backends:
//  - the in-process backend (the default) runs map tasks and reduce attempts
//    on the cluster's thread pool;
//  - the worker-gang backend (driver.h, ProcessOptions::workers > 0) ships
//    them to forked worker processes over hash-checked RPC, and is only a
//    transport: heartbeats, deadlines, re-dispatch, respawn. Its reducers
//    read their buckets from a shared-memory segment the pipeline writes
//    (segment.h), not through the socket. Without process support (TSan),
//    without a segment, or without a single spawned worker, the stage uses
//    the in-process backend.
// The pipeline owns the rest, identically for both backends: morsel planning
// and map routing (a map task routes row references, never rows); poison-row
// quarantine (FaultToleranceOptions::quarantine_inputs) into
// `<stage>.quarantine`; adaptive skew splits; the canonical shuffle on the
// thread pool, which builds each bucket by copying the referenced rows in
// canonical order (or takes over a whole consumable source partition already
// in that order), so reducer input — and every stage output — is
// byte-identical for any thread count and either backend; and the reduce
// attempt scheduler (see fault.h), which contains exceptions at the task
// boundary, retries failed attempts up to max_task_attempts with per-attempt
// output discard, gives stragglers speculative backups whose outputs are
// byte-compared against the accepted one, and probes the FaultInjector once
// per attempt.
//
// With SkewPolicy::adaptive_repartition on (per stage or via JobOptions), a
// sampled hot-key sketch rides the map phase; a partition whose routed row
// count exceeds the configured skew ratio has its hot keys split across
// salted virtual partitions that sort and reduce independently and are k-way
// merged back into the base partition in canonical order. Decisions are pure
// functions of the input data, so outputs stay bit-identical across thread
// counts, retries, and chaos; see SkewPolicy in stage.h.
//
// A job (RunJob, or TiMR's fragment loop through RunJobStages) is a DAG of
// stages, as Dryad's job manager sees it (paper §III): a stage starts once
// every stage it depends on has finished, and up to one stage per pool thread
// runs at once. Two stages depend on each other when they touch one dataset
// and at least one of them writes it (produces or consumes it); the lower
// index goes first, so every stage sees exactly the store a sequential run
// would show it and every output is the same for any thread count. A lone
// ready stage runs on the calling thread, so a chain of stages runs as a
// plain sequence; a worker-gang stage takes the whole pool, so gang stages
// run one at a time. Checkpoints commit in stage order whatever order the
// stages finish in.
//
// Because this host has few cores while the paper's cluster had ~150
// machines, every task's CPU time is measured (CLOCK_THREAD_CPUTIME_ID) and a
// deterministic list-scheduling model computes the *simulated* parallel
// makespan for the configured machine count. Benches report that simulated
// time; correctness paths never depend on it.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mr/checkpoint.h"
#include "mr/dataset.h"
#include "mr/fault.h"
#include "mr/stage.h"

namespace timr::mr {

struct StageStats {
  std::string name;
  size_t rows_in = 0;
  size_t rows_shuffled = 0;  // includes replication by the partitioner
  size_t rows_out = 0;
  size_t quarantined_rows = 0;  // diverted to <stage>.quarantine
  int partitions = 0;
  // Actual elapsed on this host, from stage start to the published output,
  // including freeing the shuffle buckets after the last reduce attempt and,
  // in process mode, reaping the worker gang.
  double wall_seconds = 0;
  // When the stage's run began and ended, in seconds since its job's stages
  // began to run (zero outside a job and for recovered stages). Stages of one
  // job may overlap: these place each stage in the job's schedule.
  double start_seconds = 0;
  double end_seconds = 0;
  // Per-phase wall time (sums to ~wall_seconds); lets benches attribute a
  // stage's cost to routing, sorting, or the reducers.
  double map_shuffle_seconds = 0;     // phase 1: parallel map + routing
  double sort_seconds = 0;            // phase 2: merge + canonical sort
  double reduce_seconds = 0;          // phase 3: fault-handling reduce
  double task_cpu_seconds_total = 0;  // sum over reducer attempts
  double task_cpu_seconds_max = 0;    // slowest single reducer task
  double simulated_parallel_seconds = 0;  // modeled makespan on the cluster
  // Per-partition skew: max and median of the per-partition reducer CPU
  // seconds (all attempts for the partition summed). Their ratio is the
  // hot-partition signal ROADMAP 5(b)'s adaptive repartitioning keys off —
  // under Zipf-skewed keys one hot partition gates the whole stage.
  double partition_seconds_max = 0;
  double partition_seconds_median = 0;
  // Row-count skew over the partitioner's routing (pre-split): max and median
  // rows routed per partition. This is the adaptive repartitioner's actual
  // detector input — the row-count twin of the time-skew pair above.
  size_t partition_rows_max = 0;
  double partition_rows_median = 0;
  // Adaptive repartitioning decisions (SkewPolicy; zero when the policy is
  // off or nothing was split). virtual_partitions counts the extra physical
  // reducer tasks created; post_split_rows_ratio is max/median routed rows
  // over the physical (post-split) partitions — compare against
  // partition_rows_max / partition_rows_median for the before/after picture.
  int hot_keys_detected = 0;
  int partitions_split = 0;
  int virtual_partitions = 0;
  double post_split_rows_ratio = 0;
  // Fault-handling counters (fault.h). task_attempts counts every reducer
  // attempt; retried_tasks counts failed/discarded attempts that the retry
  // policy re-ran; speculative_tasks counts backup attempts launched for
  // stragglers, speculative_won those that finished before their primary.
  int task_attempts = 0;
  int retried_tasks = 0;
  int speculative_tasks = 0;
  int speculative_won = 0;
  // Worker-gang backend counters (driver.h); all zero in thread mode.
  // workers is the gang size actually spawned; worker_restarts counts
  // respawns after a worker loss; rpc_retries counts transport-level task
  // re-dispatches (RPC deadline, worker death, dropped response);
  // heartbeat_timeouts counts workers declared lost by the heartbeat
  // deadline specifically.
  int workers = 0;
  int worker_restarts = 0;
  int rpc_retries = 0;
  int heartbeat_timeouts = 0;
  // Worker-gang transport volume (zero in thread mode): payload bytes the
  // driver sent to and received from its workers over the socketpairs, and
  // the bytes of shuffle buckets it wrote into the stage's segment, which the
  // workers read in place (segment.h).
  size_t rpc_request_bytes = 0;
  size_t rpc_response_bytes = 0;
  size_t segment_bytes = 0;
  // True for stages not executed because their output was restored from a
  // CheckpointStore (row/time stats then reflect the checkpoint, not a run).
  bool recovered_from_checkpoint = false;
};

struct JobStats {
  std::vector<StageStats> stages;

  double TotalSimulatedSeconds() const {
    double t = 0;
    for (const auto& s : stages) t += s.simulated_parallel_seconds;
    return t;
  }
  std::string ToString() const;
};

/// Job-level execution options (stage-level knobs live in
/// FaultToleranceOptions, installed via LocalCluster::set_fault_tolerance).
struct JobOptions {
  /// When set, each completed stage's outputs are checkpointed here and the
  /// job resumes past the longest already-checkpointed prefix (the store must
  /// hold the job's external inputs again on resume).
  CheckpointStore* checkpoint = nullptr;

  /// Chaos hook: simulate driver death after this many completed (and
  /// checkpointed) stages — the job returns kExecutionError. -1 = never.
  int chaos_kill_after_stages = -1;

  /// Job-wide adaptive repartitioning policy: applied to every stage that
  /// carries a KeyHashFn and does not set its own policy (a stage-level
  /// SkewPolicy with adaptive_repartition=true wins). See SkewPolicy.
  SkewPolicy skew;
};

/// Worker-gang backend knobs (driver.h). With workers == 0 (the default)
/// every stage runs on the in-process backend; with workers > 0 tasks run on
/// a gang of forked worker processes, falling back to the in-process backend
/// when process mode is unsupported (TSan) or no worker can be spawned.
struct ProcessOptions {
  int workers = 0;

  /// Worker -> driver heartbeat cadence, and how long the driver lets a
  /// worker go silent before declaring it lost. The deadline must comfortably
  /// exceed the interval; the defaults give ~40 missed beats.
  double heartbeat_interval_seconds = 0.05;
  double heartbeat_deadline_seconds = 2.0;

  /// Per-dispatch RPC deadline: a task whose response has not arrived within
  /// this many seconds has its worker SIGKILLed (presumed stuck) and is
  /// requeued. Generous by default — heartbeats catch hung workers much
  /// faster; this is the backstop for a worker that heartbeats but never
  /// answers. Chaos tests that drop responses lower it.
  double rpc_timeout_seconds = 60.0;

  /// Backoff before a requeued task is re-dispatched:
  /// min(backoff_cap, backoff_base * 2^dispatches). After three
  /// re-dispatches the task runs in-process instead.
  double backoff_base_seconds = 0.01;
  double backoff_cap_seconds = 0.25;

  /// Worker respawns allowed per stage. Once spent, lost workers are not
  /// replaced and the stage degrades to the surviving gang — down to fully
  /// in-process execution when none survive.
  int max_worker_restarts = 8;

  /// Process-level chaos (real SIGKILLs, truncated frames, dropped/delayed
  /// responses); see ProcessFaultPlan.
  ProcessFaultPlan chaos;
};

class LocalCluster {
 public:
  /// `num_machines`: modeled cluster size (partition default & makespan
  /// model). `num_threads`: actual host concurrency (0 = hardware).
  explicit LocalCluster(int num_machines, int num_threads = 0);
  ~LocalCluster();

  int num_machines() const { return num_machines_; }

  /// Install a fault source probed at every reduce attempt (fault.h);
  /// nullptr disables injection. Not owned.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Retry / speculation / quarantine policy for subsequent RunStage calls.
  void set_fault_tolerance(const FaultToleranceOptions& options) {
    fault_ = options;
  }
  const FaultToleranceOptions& fault_tolerance() const { return fault_; }

  /// Task backend for subsequent RunStage calls (workers == 0 keeps the
  /// in-process backend). See ProcessOptions / driver.h.
  void set_process_options(const ProcessOptions& options) {
    process_ = options;
  }
  const ProcessOptions& process_options() const { return process_; }

  /// Run one stage against the named datasets; adds the output under
  /// stage.output (and `<stage>.quarantine` when quarantine is enabled) and
  /// records stats. On failure nothing is added to the store, though inputs
  /// consumed by the map phase may already have been released. Stages may
  /// run from several threads at once on one cluster and one store: the
  /// cluster looks datasets up and adds them under one lock.
  Status RunStage(const MRStage& stage, std::map<std::string, Dataset>* store,
                  StageStats* stats);

  /// Run a job against `store` (must already hold all external inputs):
  /// resume past options.checkpoint's prefix, then RunJobStages. Intermediate
  /// and final outputs are added to the store.
  Result<JobStats> RunJob(const std::vector<MRStage>& stages,
                          std::map<std::string, Dataset>* store,
                          const JobOptions& options = JobOptions());

  /// Restores options.checkpoint's prefix of `stage_names` into `store`,
  /// appends a recovered StageStats per restored stage, and returns the index
  /// to resume from.
  Result<size_t> ResumeJob(const std::vector<std::string>& stage_names,
                           std::map<std::string, Dataset>* store,
                           const JobOptions& options, JobStats* job);

  /// Makes the runnable form of stage `index` once every stage it depends on
  /// has finished. `inputs[i]` is its i-th input dataset (nullptr when the
  /// store has none of that name).
  using StageBuilder = std::function<Result<MRStage>(
      size_t index, const std::vector<const Dataset*>& inputs)>;

  /// The job loop: run stages [resume_from, stages.size()) as a DAG (see the
  /// header comment). `stages` declares what each stage reads, consumes and
  /// writes (name, inputs, consumable_inputs, output); `build` makes each
  /// stage when it is about to run, and must keep those four fields. Every
  /// stage's stats are appended to `job` in stage order as it commits: it
  /// checkpoints its outputs and released inputs, and applies
  /// options.chaos_kill_after_stages. With a checkpoint, a stage's dependents
  /// start only once it has committed. On failure no further stage starts,
  /// the stages already running finish, the stages before the failing one
  /// still run and commit, and the lowest-indexed failure is returned.
  Status RunJobStages(const std::vector<MRStage>& stages, size_t resume_from,
                      const StageBuilder& build,
                      std::map<std::string, Dataset>* store,
                      const JobOptions& options, JobStats* job);

 private:
  int num_machines_;
  class Impl;
  std::unique_ptr<Impl> impl_;
  FaultInjector* injector_ = nullptr;
  FaultToleranceOptions fault_;
  ProcessOptions process_;
};

}  // namespace timr::mr
