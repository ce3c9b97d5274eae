#include "mr/cluster.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.h"
#include "common/stopwatch.h"
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
    os << s.name << ": start=" << s.start_seconds << "s end=" << s.end_seconds
       << "s in=" << s.rows_in << " shuffled=" << s.rows_shuffled
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
       << " heartbeat_timeouts=" << s.heartbeat_timeouts
       << " rpc_request_bytes=" << s.rpc_request_bytes
       << " rpc_response_bytes=" << s.rpc_response_bytes
       << " segment_bytes=" << s.segment_bytes;
    os << "\n";
  }
  return os.str();
}

class LocalCluster::Impl {
 public:
  explicit Impl(size_t threads) : pool(threads) {}
  ThreadPool pool;
  std::mutex store_mu;  // guards the store's map for concurrent stages
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
  env.store_mu = &impl_->store_mu;
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
  // Job-wide skew policy: stages with a key hash inherit it unless they set
  // their own. The copy keeps the caller's stage list const.
  const auto build = [&](size_t i, const std::vector<const Dataset*>&)
      -> Result<MRStage> {
    MRStage stage = stages[i];
    if (options.skew.adaptive_repartition && !stage.skew.adaptive_repartition &&
        stage.key_hash_fn != nullptr) {
      stage.skew = options.skew;
    }
    return stage;
  };
  TIMR_RETURN_NOT_OK(
      RunJobStages(stages, resume_from, build, store, options, &job));
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

namespace {

/// The job's dependency edges, as dependents[i] = the stages that wait for
/// stage i. Two stages that touch one dataset, at least one of them writing
/// it (producing or consuming), run in index order: a reader waits for the
/// dataset's writer, and a writer waits for the previous writer and every
/// reader since. A consumer is its dataset's last reader, so its edges are
/// the last-use edges: it waits until every other reader has finished.
std::vector<std::vector<size_t>> DependentsOf(
    const std::vector<MRStage>& stages, bool quarantine) {
  struct Access {
    size_t writer = SIZE_MAX;
    std::vector<size_t> readers;  // since the writer
  };
  std::map<std::string, Access> datasets;
  std::vector<std::vector<size_t>> dependents(stages.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    const auto after = [&](size_t j) {
      if (j != SIZE_MAX && j != i) dependents[j].push_back(i);
    };
    const auto write = [&](const std::string& name) {
      Access& a = datasets[name];
      after(a.writer);
      for (size_t r : a.readers) after(r);
      a.writer = i;
      a.readers.clear();
    };
    for (const std::string& name : stages[i].inputs) {
      Access& a = datasets[name];
      after(a.writer);
      a.readers.push_back(i);
    }
    for (const std::string& name : ConsumedInputNames(stages[i])) write(name);
    write(stages[i].output);
    if (quarantine) write(QuarantineDatasetName(stages[i].name));
  }
  for (std::vector<size_t>& d : dependents) {
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }
  return dependents;
}

/// Hands the heap pages that free chunks hold back to the system. Stages
/// that overlap free into several threads' malloc arenas at once, and an
/// arena keeps its free pages unless asked, so pages one stage freed are not
/// reused by the next. A stage that overlapped another trims when it ends,
/// and a job whose stages overlapped trims once more at its end. A chain,
/// whose stages never overlap, never trims: a trim costs time. On the 20-CQ
/// suite, either trim alone leaves the peak RSS above a sequential job
/// loop's (EXPERIMENTS.md "Run ready fragments side by side").
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

Status LocalCluster::RunJobStages(const std::vector<MRStage>& stages,
                                  size_t resume_from, const StageBuilder& build,
                                  std::map<std::string, Dataset>* store,
                                  const JobOptions& options, JobStats* job) {
  const Stopwatch clock;
  const size_t n = stages.size();
  const std::vector<std::vector<size_t>> dependents =
      DependentsOf(stages, fault_.quarantine_inputs);
  std::vector<size_t> pending(n, 0);  // unfinished stages each one waits for
  for (size_t i = resume_from; i < n; ++i) {
    for (size_t j : dependents[i]) ++pending[j];
  }
  std::set<size_t> ready;
  for (size_t i = resume_from; i < n; ++i) {
    if (pending[i] == 0) ready.insert(i);
  }

  struct Run {
    MRStage stage;
    StageStats stats;
    Status status;
    bool ran = false;         // the stage's run succeeded
    bool overlapped = false;  // another stage ran beside it; guarded by mu
    std::thread driver;
  };
  std::vector<Run> runs(n);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<size_t> finished;  // stages whose driver is done; guarded by mu

  const size_t cap = impl_->pool.num_threads();
  // A worker-gang stage keeps the whole gang (and the pool behind its
  // in-process fallback) busy: it counts as the whole pool.
  const size_t weight = process_.workers > 0 ? cap : 1;
  std::set<size_t> running;
  size_t stop = n;  // no stage from here on starts: the lowest failure
  size_t next_commit = resume_from;
  bool overlapped = false;  // some stages ran side by side

  const auto run_stage = [&](size_t i) {
    Run& r = runs[i];
    const double start = clock.ElapsedSeconds();
    try {
      r.status = RunStage(r.stage, store, &r.stats);
    } catch (const std::exception& e) {
      // A driver thread must not end in an exception; report it as the
      // stage's failure, on any thread.
      r.status = Status::ExecutionError("stage " + r.stage.name +
                                        " threw: " + e.what());
    }
    r.stats.start_seconds = start;
    r.stats.end_seconds = clock.ElapsedSeconds();
  };
  const auto release = [&](size_t i) {
    for (size_t j : dependents[i]) {
      if (--pending[j] == 0) ready.insert(j);
    }
  };
  const auto commit = [&](size_t i) -> Status {
    Run& r = runs[i];
    const MRStage& stage = r.stage;
    job->stages.push_back(std::move(r.stats));
    if (options.checkpoint != nullptr) {
      std::vector<std::pair<std::string, const Dataset*>> outputs;
      {
        std::lock_guard<std::mutex> lock(impl_->store_mu);
        outputs.emplace_back(stage.output, &store->at(stage.output));
        if (fault_.quarantine_inputs) {
          const std::string qname = QuarantineDatasetName(stage.name);
          outputs.emplace_back(qname, &store->at(qname));
        }
      }
      TIMR_RETURN_NOT_OK(options.checkpoint->SaveStage(
          i, stage.name, outputs, ConsumedInputNames(stage)));
    }
    if (options.chaos_kill_after_stages >= 0 &&
        static_cast<int>(i) + 1 >= options.chaos_kill_after_stages) {
      return Status::ExecutionError(
          "chaos kill: simulated driver death after stage " + stage.name +
          " (" + std::to_string(i + 1) + " of " + std::to_string(n) +
          " stages completed)");
    }
    return Status::OK();
  };
  const auto fail = [&](size_t i, Status status) {
    runs[i].status = std::move(status);
    stop = std::min(stop, i);
  };
  // A stage's run has returned: release its dependents (with a checkpoint,
  // only once it commits, so that no dependent consumes a dataset before its
  // snapshot), then commit every finished stage whose turn has come.
  const auto finish = [&](size_t i) {
    running.erase(i);
    if (!runs[i].status.ok()) {
      stop = std::min(stop, i);
      return;
    }
    runs[i].ran = true;
    if (options.checkpoint == nullptr) release(i);
    while (next_commit < stop && runs[next_commit].ran) {
      const size_t c = next_commit++;
      Status st = commit(c);
      // A committed stage's closures are no longer needed; free them now, as
      // a sequential loop would, not at the end of the job.
      runs[c].stage = MRStage();
      if (!st.ok()) {
        fail(c, std::move(st));
        break;
      }
      if (options.checkpoint != nullptr) release(c);
    }
  };

  // Join the driver threads on every way out of this frame, whose state
  // they use, exceptions included.
  struct JoinDrivers {
    std::vector<Run>* runs;
    ~JoinDrivers() {
      for (Run& r : *runs) {
        if (r.driver.joinable()) r.driver.join();
      }
    }
  } join_drivers{&runs};

  while (true) {
    while (!ready.empty() && *ready.begin() < stop &&
           running.size() + weight <= cap) {
      const size_t i = *ready.begin();
      ready.erase(ready.begin());
      std::vector<const Dataset*> inputs;
      {
        std::lock_guard<std::mutex> lock(impl_->store_mu);
        for (const std::string& name : stages[i].inputs) {
          auto it = store->find(name);
          inputs.push_back(it == store->end() ? nullptr : &it->second);
        }
      }
      Result<MRStage> built = build(i, inputs);
      if (!built.ok()) {
        fail(i, built.status());
        continue;
      }
      runs[i].stage = std::move(built).ValueOrDie();
      if (running.empty() &&
          (weight == cap || ready.empty() || *ready.begin() >= stop)) {
        // Nothing else can start before this stage ends: run it here.
        run_stage(i);
        finish(i);
        continue;
      }
      if (!running.empty()) {
        overlapped = true;
        std::lock_guard<std::mutex> lock(mu);
        runs[i].overlapped = true;
        for (size_t j : running) runs[j].overlapped = true;
      }
      running.insert(i);
      runs[i].driver = std::thread([&, i] {
        {
          // The pool's threads do the stage's work; this thread only waits.
          ThreadPool::HandOff hand_off;
          run_stage(i);
        }
        bool trim;
        {
          std::lock_guard<std::mutex> lock(mu);
          trim = runs[i].overlapped;
          finished.push_back(i);
        }
        cv.notify_one();
        if (trim) TrimHeap();
      });
    }
    if (running.empty()) break;
    std::vector<size_t> done;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !finished.empty(); });
      done.swap(finished);
    }
    for (size_t i : done) finish(i);
  }
  if (overlapped) TrimHeap();
  return stop < n ? runs[stop].status : Status::OK();
}

}  // namespace timr::mr
