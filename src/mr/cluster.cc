#include "mr/cluster.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "mr/pipeline.h"

namespace timr::mr {

std::string JobStats::ToString() const {
  std::ostringstream os;
  for (const auto& s : stages) {
    if (s.recovered_from_checkpoint) {
      os << s.name << ": recovered from checkpoint (out=" << s.rows_out
         << ")\n";
      continue;
    }
    os << s.name << ": in=" << s.rows_in << " shuffled=" << s.rows_shuffled
       << " out=" << s.rows_out << " parts=" << s.partitions
       << " map=" << s.map_shuffle_seconds << "s sort=" << s.sort_seconds
       << "s reduce=" << s.reduce_seconds
       << "s cpu_total=" << s.task_cpu_seconds_total
       << "s cpu_max=" << s.task_cpu_seconds_max
       << "s simulated=" << s.simulated_parallel_seconds
       << "s part_max=" << s.partition_seconds_max
       << "s part_median=" << s.partition_seconds_median << "s"
       << " rows_max=" << s.partition_rows_max
       << " rows_median=" << s.partition_rows_median;
    if (s.partitions_split > 0) {
      os << " hot_keys=" << s.hot_keys_detected
         << " splits=" << s.partitions_split
         << " virtual=" << s.virtual_partitions
         << " post_split_ratio=" << s.post_split_rows_ratio;
    }
    // The fault and process counter set is emitted unconditionally — a
    // counter that reads 0 is information ("no retries happened"), and log
    // scrapers get a fixed set of fields to key on.
    os << " attempts=" << s.task_attempts << " retries=" << s.retried_tasks
       << " speculative=" << s.speculative_tasks
       << " spec_won=" << s.speculative_won
       << " quarantined=" << s.quarantined_rows << " workers=" << s.workers
       << " worker_restarts=" << s.worker_restarts
       << " rpc_retries=" << s.rpc_retries
       << " heartbeat_timeouts=" << s.heartbeat_timeouts;
    os << "\n";
  }
  return os.str();
}

class LocalCluster::Impl {
 public:
  explicit Impl(size_t threads) : pool(threads) {}
  ThreadPool pool;
};

LocalCluster::LocalCluster(int num_machines, int num_threads)
    : num_machines_(num_machines) {
  TIMR_CHECK(num_machines > 0);
  size_t threads = num_threads > 0
                       ? static_cast<size_t>(num_threads)
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  impl_ = std::make_unique<Impl>(threads);
}

LocalCluster::~LocalCluster() = default;

Status LocalCluster::RunStage(const MRStage& stage,
                              std::map<std::string, Dataset>* store,
                              StageStats* stats) {
  *stats = StageStats{};
  StageEnv env;
  env.pool = &impl_->pool;
  env.injector = injector_;
  env.fault = &fault_;
  env.process = &process_;
  env.num_machines = num_machines_;
  return RunStagePipeline(stage, env, store, stats);
}

Result<JobStats> LocalCluster::RunJob(const std::vector<MRStage>& stages,
                                      std::map<std::string, Dataset>* store,
                                      const JobOptions& options) {
  JobStats job;
  std::vector<std::string> names;
  names.reserve(stages.size());
  for (const MRStage& s : stages) names.push_back(s.name);
  TIMR_ASSIGN_OR_RETURN(const size_t resume_from,
                        ResumeJob(names, store, options, &job));
  for (size_t i = resume_from; i < stages.size(); ++i) {
    const MRStage* stage = &stages[i];
    // Job-wide skew policy: stages with a key hash inherit it unless they set
    // their own. The copy is cheap (names + std::functions) and keeps the
    // caller's stage list const.
    MRStage patched;
    if (options.skew.adaptive_repartition &&
        !stage->skew.adaptive_repartition && stage->key_hash_fn != nullptr) {
      patched = *stage;
      patched.skew = options.skew;
      stage = &patched;
    }
    TIMR_RETURN_NOT_OK(
        RunJobStage(i, stages.size(), *stage, store, options, &job));
  }
  return job;
}

Result<size_t> LocalCluster::ResumeJob(
    const std::vector<std::string>& stage_names,
    std::map<std::string, Dataset>* store, const JobOptions& options,
    JobStats* job) {
  if (options.checkpoint == nullptr) return size_t{0};
  TIMR_ASSIGN_OR_RETURN(const size_t resume_from,
                        options.checkpoint->Restore(stage_names, store));
  for (size_t i = 0; i < resume_from; ++i) {
    StageStats stats;
    stats.name = stage_names[i];
    stats.rows_out = options.checkpoint->rows_out(i);
    stats.recovered_from_checkpoint = true;
    job->stages.push_back(std::move(stats));
  }
  return resume_from;
}

Status LocalCluster::RunJobStage(size_t index, size_t num_stages,
                                 const MRStage& stage,
                                 std::map<std::string, Dataset>* store,
                                 const JobOptions& options, JobStats* job) {
  StageStats stats;
  TIMR_RETURN_NOT_OK(RunStage(stage, store, &stats));
  job->stages.push_back(std::move(stats));
  if (options.checkpoint != nullptr) {
    std::vector<std::pair<std::string, const Dataset*>> outputs;
    outputs.emplace_back(stage.output, &store->at(stage.output));
    if (fault_.quarantine_inputs) {
      const std::string qname = QuarantineDatasetName(stage.name);
      outputs.emplace_back(qname, &store->at(qname));
    }
    TIMR_RETURN_NOT_OK(options.checkpoint->SaveStage(
        index, stage.name, outputs, ConsumedInputNames(stage)));
  }
  if (options.chaos_kill_after_stages >= 0 &&
      static_cast<int>(index) + 1 >= options.chaos_kill_after_stages) {
    return Status::ExecutionError(
        "chaos kill: simulated driver death after stage " + stage.name + " (" +
        std::to_string(index + 1) + " of " + std::to_string(num_stages) +
        " stages completed)");
  }
  return Status::OK();
}

}  // namespace timr::mr
