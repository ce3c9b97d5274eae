#include "mr/pipeline.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mr/driver.h"
#include "mr/rpc.h"
#include "mr/runtime_util.h"
#include "mr/skew.h"

namespace timr::mr {
namespace {

using Clock = TaskBackend::Clock;

/// A routed row in its bucket: its time, and the source row it refers to.
struct Keyed {
  int64_t time;
  const Row* row;
};

/// Runs task bodies on the cluster's ThreadPool. Reduce reports flow back
/// through a completion queue that Wait drains on the scheduler's thread.
class ThreadBackend final : public TaskBackend {
 public:
  ThreadBackend(ThreadPool* pool, const StageInputs& in)
      : pool_(pool), in_(in) {}
  // Every attempt closure must be done with the queue it reports into before
  // the queue dies. Only this stage's attempts count: the pool may be running
  // other stages' tasks.
  ~ThreadBackend() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return live_ == 0; });
  }

  size_t parallelism() const override { return pool_->num_threads(); }

  void RunMaps(const std::vector<MapTaskSpec>& specs,
               std::vector<MapTaskResult>* results,
               std::vector<Status>* statuses) override {
    std::atomic<bool> failed{false};
    pool_->ParallelFor(specs.size(), [&](size_t m) {
      Status& st = (*statuses)[m];
      st = RunMapTask(in_, specs[m], &(*results)[m], &failed);
      if (!st.ok()) failed.store(true, std::memory_order_relaxed);
    });
  }

  void StartReduce(const ReduceAttemptContext& ctx) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++live_;
    }
    pool_->Submit([this, ctx] {
      AttemptReport report = RunReduceAttempt(ctx);
      std::lock_guard<std::mutex> lock(mu_);
      done_.push_back(std::move(report));
      --live_;
      cv_.notify_all();
    });
  }

  void Wait(Clock::time_point deadline,
            std::vector<AttemptReport>* reports) override {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [this] { return !done_.empty(); };
    if (deadline == Clock::time_point::max()) {
      cv_.wait(lock, ready);
    } else {
      cv_.wait_until(lock, deadline, ready);
    }
    for (AttemptReport& r : done_) reports->push_back(std::move(r));
    done_.clear();
  }

 private:
  ThreadPool* pool_;
  const StageInputs& in_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<AttemptReport> done_;
  size_t live_ = 0;  // attempts started and not yet reported
};

class StagePipeline {
 public:
  StagePipeline(const MRStage& stage, const StageEnv& env, StageStats* stats)
      : stage_(stage), env_(env), stats_(stats) {}

  Status Run(std::map<std::string, Dataset>* store);

 private:
  void PlanMorsels(size_t parallelism);
  Status Map(TaskBackend* backend);
  void SplitHotKeys();
  Status Shuffle();
  std::vector<Keyed> OrderBucket(size_t p, size_t i,
                                 const std::vector<size_t>& morsels,
                                 size_t* first_src) const;
  void BuildBucket(size_t p, size_t i, const std::vector<size_t>& morsels,
                   const std::vector<size_t>& refs_into);
  Status WriteSegment(const std::vector<std::vector<size_t>>& morsels_of);
  Status Reduce(TaskBackend* backend);
  void Publish(std::map<std::string, Dataset>* store);

  const MRStage& stage_;
  const StageEnv& env_;
  StageStats* stats_;
  Stopwatch wall_;

  int parts_ = 0;
  bool skew_enabled_ = false;
  StageInputs in_;
  std::vector<bool> consumable_;
  std::vector<MapTaskSpec> morsels_;
  std::vector<MapTaskResult> mouts_;
  Dataset quarantine_out_;

  int phys_parts_ = 0;
  int fanout_ = 2;
  std::vector<SplitDecision> decisions_;
  std::vector<int> vbase_;        // first virtual partition of decisions_[d]
  std::vector<int> base_of_;      // physical -> base partition
  std::vector<char> sort_output_;
  // The shuffle buckets, [phys][input]: rows in thread mode; in process mode
  // slices of the stage's segment, which the worker gang inherits.
  std::vector<std::vector<std::vector<Row>>> buckets_;
  std::unique_ptr<ShuffleSegment> segment_;
  std::vector<std::vector<SegmentSlice>> slices_;

  std::vector<std::vector<Row>> out_rows_;  // accepted output per phys task
  std::vector<double> task_seconds_;        // reducer CPU per phys task
};

Status StagePipeline::Run(std::map<std::string, Dataset>* store) {
  stats_->name = stage_.name;
  parts_ = stage_.num_partitions > 0 ? stage_.num_partitions
                                     : env_.num_machines;
  stats_->partitions = parts_;
  in_.stage = &stage_;
  {
    std::lock_guard<std::mutex> lock(*env_.store_mu);
    for (const auto& name : stage_.inputs) {
      auto it = store->find(name);
      if (it == store->end()) {
        return Status::KeyError("stage " + stage_.name +
                                ": no dataset named " + name);
      }
      in_.datasets.push_back(&it->second);
      in_.schemas.push_back(it->second.schema());
    }
  }
  consumable_ = ConsumableInputFlags(stage_);

  // Worker processes, which inherit the stage's segment, when asked for and
  // available; otherwise — including when the segment cannot be made or not
  // a single worker could be spawned — the in-process backend.
  std::unique_ptr<TaskBackend> backend;
  if (env_.process->workers > 0 && ProcessModeSupported()) {
    segment_ = ShuffleSegment::Create();
    if (segment_ != nullptr) {
      backend = SpawnWorkerBackend(in_, *segment_, *env_.process, stats_);
    }
  }
  if (backend == nullptr) {
    segment_.reset();
    backend = std::make_unique<ThreadBackend>(env_.pool, in_);
  }

  PlanMorsels(backend->parallelism());
  TIMR_RETURN_NOT_OK(Map(backend.get()));
  SplitHotKeys();
  stats_->map_shuffle_seconds = wall_.ElapsedSeconds();
  const bool gang = segment_ != nullptr;
  TIMR_RETURN_NOT_OK(Shuffle());
  if (gang && segment_ == nullptr) {
    // The segment could not be sized, so the buckets are rows, which only the
    // in-process backend reads.
    backend = std::make_unique<ThreadBackend>(env_.pool, in_);
  }
  TIMR_RETURN_NOT_OK(Reduce(backend.get()));
  // Reap the gang, then drop the segment, inside the stage's wall time.
  backend.reset();
  segment_.reset();
  Publish(store);
  return Status::OK();
}

// Each (input, source partition) is split into morsels, each routed into
// morsel-local per-destination ref lists, so map tasks share no state. Morsel
// boundaries never affect the result: ref lists are concatenated in morsel
// order, which reproduces source order exactly.
void StagePipeline::PlanMorsels(size_t parallelism) {
  // Adaptive repartitioning is live when the stage opted in *and* carries the
  // key hash that makes whole-key sub-partitioning meaningful. When live, the
  // map phase routes via key_hash_fn % parts directly — by HashPartitioner's
  // construction the exact assignment partition_fn would have produced — so
  // detection, routing, and the salted split all see one hash.
  const SkewPolicy& skew = stage_.skew;
  skew_enabled_ =
      skew.adaptive_repartition && stage_.key_hash_fn != nullptr && parts_ > 1;
  fanout_ = std::max(2, skew.hot_key_fanout);
  const uint64_t sample_mask =
      (uint64_t{1} << std::clamp(skew.sample_shift, 0, 20)) - 1;

  size_t total_rows = 0;
  for (const Dataset* d : in_.datasets) total_rows += d->TotalRows();
  const size_t morsel_rows = std::max<size_t>(
      1024, total_rows / (std::max<size_t>(1, parallelism) * 4) + 1);
  for (size_t i = 0; i < in_.datasets.size(); ++i) {
    for (size_t p = 0; p < in_.datasets[i]->num_partitions(); ++p) {
      const size_t n = in_.datasets[i]->partition(p).size();
      for (size_t begin = 0; begin < n; begin += morsel_rows) {
        MapTaskSpec spec;
        spec.task_id = static_cast<uint32_t>(morsels_.size());
        spec.input_index = static_cast<int>(i);
        spec.src_partition = p;
        spec.begin = begin;
        spec.end = std::min(begin + morsel_rows, n);
        spec.parts = parts_;
        spec.quarantine = env_.fault->quarantine_inputs;
        spec.skew_enabled = skew_enabled_;
        spec.sample_mask = sample_mask;
        morsels_.push_back(spec);
      }
    }
  }
}

Status StagePipeline::Map(TaskBackend* backend) {
  mouts_.resize(morsels_.size());
  std::vector<Status> statuses(morsels_.size());
  backend->RunMaps(morsels_, &mouts_, &statuses);
  for (const Status& st : statuses) {
    // First error in morsel order, for a deterministic message.
    TIMR_RETURN_NOT_OK(st);
  }
  for (const MapTaskResult& out : mouts_) {
    stats_->rows_in += out.rows_in;
    stats_->rows_shuffled += out.rows_shuffled;
    stats_->quarantined_rows += out.quarantined.size();
  }
  // Poison-row budget: a trickle of bad rows is diverted, a flood means the
  // input itself is wrong and the stage must not silently drop it.
  const FaultToleranceOptions& fault = *env_.fault;
  if (stats_->quarantined_rows > 0) {
    const double rate = static_cast<double>(stats_->quarantined_rows) /
                        static_cast<double>(stats_->rows_in);
    if (rate > fault.max_input_error_rate) {
      std::string first;
      for (const MapTaskResult& out : mouts_) {
        if (!out.first_bad.empty()) {
          first = out.first_bad;
          break;
        }
      }
      std::ostringstream os;
      os << "stage " << stage_.name << ": " << stats_->quarantined_rows
         << " of " << stats_->rows_in << " input rows (" << rate * 100
         << "%) failed schema validation, exceeding max_input_error_rate="
         << fault.max_input_error_rate << "; first error: " << first;
      return Status::DataError(os.str());
    }
  }
  if (fault.quarantine_inputs) {
    std::vector<Row> qrows;
    qrows.reserve(stats_->quarantined_rows);
    for (MapTaskResult& out : mouts_) {
      // Morsel order is source order, so the quarantine dataset is
      // deterministic for any thread count like every other output.
      for (Row& q : out.quarantined) qrows.push_back(std::move(q));
      out.quarantined.clear();
    }
    quarantine_out_ = Dataset::FromRows(QuarantineSchema(), std::move(qrows));
  }
  return Status::OK();
}

// Adaptive repartitioning (skew.h): detect hot partitions from the routed row
// counts and the merged sketch, and split their hot keys across virtual
// partitions.
void StagePipeline::SplitHotKeys() {
  // Row-count skew over the routing (always recorded — the detector's input,
  // and the row twin of partition_seconds_max/median).
  std::vector<size_t> routed_rows(static_cast<size_t>(parts_), 0);
  for (const MapTaskResult& out : mouts_) {
    for (int p = 0; p < parts_; ++p) routed_rows[p] += out.refs[p].size();
  }
  stats_->partition_rows_max =
      routed_rows.empty()
          ? 0
          : *std::max_element(routed_rows.begin(), routed_rows.end());
  stats_->partition_rows_median =
      MedianOf(std::vector<double>(routed_rows.begin(), routed_rows.end()));

  if (skew_enabled_) {
    std::unordered_map<uint64_t, uint64_t> sketch;
    for (MapTaskResult& out : mouts_) {
      for (const auto& [h, c] : out.sketch) sketch[h] += c;
      out.sketch.clear();
    }
    decisions_ = DecidePartitionSplits(
        stage_.skew, routed_rows,
        std::max(stats_->partition_rows_median, 1.0), sketch, parts_);
  }
  phys_parts_ = parts_;
  vbase_.assign(decisions_.size(), 0);
  for (size_t d = 0; d < decisions_.size(); ++d) {
    vbase_[d] = phys_parts_;
    phys_parts_ += fanout_;
  }
  if (!decisions_.empty()) {
    const uint64_t stage_salt = StageSalt(stage_.name);
    env_.pool->ParallelFor(morsels_.size(), [&](size_t m) {
      const MapTaskSpec& spec = morsels_[m];
      MapTaskResult& out = mouts_[m];
      out.refs.resize(static_cast<size_t>(phys_parts_));
      const std::vector<Row>& rows =
          in_.datasets[spec.input_index]->partition(spec.src_partition);
      for (size_t d = 0; d < decisions_.size(); ++d) {
        RerouteHotRows(stage_.key_hash_fn, spec.input_index, rows, stage_salt,
                       fanout_, decisions_[d], vbase_[d], &out.refs);
      }
    });
    std::vector<double> phys_rows(static_cast<size_t>(phys_parts_), 0.0);
    for (const MapTaskResult& out : mouts_) {
      for (int p = 0; p < phys_parts_; ++p) {
        phys_rows[p] += static_cast<double>(out.refs[p].size());
      }
    }
    const double phys_max =
        *std::max_element(phys_rows.begin(), phys_rows.end());
    stats_->post_split_rows_ratio =
        phys_max / std::max(MedianOf(std::move(phys_rows)), 1.0);
    for (const SplitDecision& d : decisions_) {
      stats_->hot_keys_detected += static_cast<int>(d.hot_keys.size());
    }
    stats_->partitions_split = static_cast<int>(decisions_.size());
    stats_->virtual_partitions = phys_parts_ - parts_;
  }

  // Physical partition -> base (pre-split) partition, and which tasks' outputs
  // must be canonically sorted so the coalesce can k-way merge them. Outputs
  // of unsplit partitions are never touched: a run where nothing splits is
  // byte-for-byte identical to one with the policy off.
  base_of_.resize(static_cast<size_t>(phys_parts_));
  sort_output_.assign(static_cast<size_t>(phys_parts_), 0);
  for (int p = 0; p < parts_; ++p) base_of_[p] = p;
  for (size_t d = 0; d < decisions_.size(); ++d) {
    sort_output_[decisions_[d].partition] = 1;
    for (int s = 0; s < fanout_; ++s) {
      base_of_[vbase_[d] + s] = decisions_[d].partition;
      sort_output_[vbase_[d] + s] = 1;
    }
  }
}

// Gather bucket (p, i)'s refs in morsel order and order them canonically: by
// time, then RowTimeLess on the referenced rows to break a time tie. The
// order is a total order on rows (equal rows are interchangeable), so reducer
// input is byte-identical for any thread count, morsel layout, and backend.
// `first_src` is the source partition of the first ref.
std::vector<Keyed> StagePipeline::OrderBucket(
    size_t p, size_t i, const std::vector<size_t>& morsels,
    size_t* first_src) const {
  const auto less = [](const Keyed& a, const Keyed& b) {
    return a.time != b.time ? a.time < b.time : RowTimeLess(*a.row, *b.row);
  };
  const Dataset& input = *in_.datasets[i];
  size_t total = 0;
  for (size_t m : morsels) total += mouts_[m].refs[p].size();
  std::vector<Keyed> keyed;
  keyed.reserve(total);
  for (size_t m : morsels) {
    if (keyed.empty()) *first_src = morsels_[m].src_partition;
    const std::vector<Row>& src = input.partition(morsels_[m].src_partition);
    for (const RowRef& ref : mouts_[m].refs[p]) {
      const Row& row = src[ref.row];
      // Reads every routed row's Time once: a malformed Time cell throws
      // here, and a worker's ref must carry its row's time.
      if (row.at(0).AsInt64() != ref.time) {
        throw std::runtime_error("row ref time does not match its row");
      }
      keyed.push_back({ref.time, &row});
    }
  }
  if (!std::is_sorted(keyed.begin(), keyed.end(), less)) {
    std::sort(keyed.begin(), keyed.end(), less);
  }
  return keyed;
}

// Thread mode: copy bucket (p, i)'s rows in canonical order (OrderBucket), so
// the bucket's rows are allocated contiguously, in the order the reducer reads
// them and the reduce phase frees them. A bucket that is exactly one whole
// partition of a consumable input, already in canonical order, and that no
// other bucket references (`refs_into` counts the refs into each source
// partition of input i), takes that partition's rows over instead.
void StagePipeline::BuildBucket(size_t p, size_t i,
                                const std::vector<size_t>& morsels,
                                const std::vector<size_t>& refs_into) {
  size_t first_src = 0;
  const std::vector<Keyed> keyed = OrderBucket(p, i, morsels, &first_src);
  std::vector<Row>& dst = buckets_[p][i];
  if (consumable_[i] && !keyed.empty()) {
    // The refs are the whole partition in order iff the k-th points at its
    // k-th row.
    std::vector<Row>& src = in_.datasets[i]->partition(first_src);
    bool whole =
        refs_into[first_src] == keyed.size() && src.size() == keyed.size();
    for (size_t k = 0; whole && k < keyed.size(); ++k) {
      whole = keyed[k].row == src.data() + k;
    }
    if (whole) {
      dst = std::move(src);
      return;
    }
  }
  dst.reserve(keyed.size());
  for (const Keyed& k : keyed) dst.push_back(*k.row);
}

// Process mode: write every (partition, input) bucket into its own slice of
// the stage's segment, in canonical order (OrderBucket) and in
// WireWriter::Rows' layout, encoded straight from the referenced source rows.
// One pool task per bucket orders it and sizes its slice; once the segment is
// sized, one pool task per bucket encodes it. Fails, writing nothing, when the
// segment cannot be sized.
Status StagePipeline::WriteSegment(
    const std::vector<std::vector<size_t>>& morsels_of) {
  const size_t ninputs = in_.datasets.size();
  const size_t n = static_cast<size_t>(phys_parts_) * ninputs;
  std::vector<std::vector<Keyed>> ordered(n);
  std::vector<uint64_t> offsets(n + 1, 0);  // slice t is [offsets[t], [t+1])
  env_.pool->ParallelFor(n, [&](size_t t) {
    size_t first_src = 0;
    ordered[t] = OrderBucket(t / ninputs, t % ninputs, morsels_of[t % ninputs],
                             &first_src);
    uint64_t bytes = sizeof(uint64_t);  // the row count
    for (const Keyed& k : ordered[t]) bytes += rpc::WireRowBytes(*k.row);
    offsets[t + 1] = bytes;
  });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  TIMR_RETURN_NOT_OK(segment_->Allocate(offsets[n]));
  env_.pool->ParallelFor(n, [&](size_t t) {
    char* out = segment_->data() + offsets[t];
    const uint64_t rows = ordered[t].size();
    std::memcpy(out, &rows, sizeof(rows));
    out += sizeof(rows);
    for (const Keyed& k : ordered[t]) out = rpc::PutWireRow(*k.row, out);
    std::vector<Keyed>().swap(ordered[t]);
  });
  slices_.assign(static_cast<size_t>(phys_parts_),
                 std::vector<SegmentSlice>(ninputs));
  for (size_t t = 0; t < n; ++t) {
    slices_[t / ninputs][t % ninputs] = {offsets[t],
                                         offsets[t + 1] - offsets[t]};
  }
  stats_->segment_bytes = offsets[n];
  return Status::OK();
}

// Build every (partition, input) bucket: as rows (BuildBucket, one pool task
// per bucket) or, in process mode, into the stage's segment (WriteSegment).
// Then release consumed inputs, one pool task per source partition, each in
// its own row order: every bucket holds its own copy of its rows or the whole
// partition itself, and the stage owns the only remaining reference.
Status StagePipeline::Shuffle() {
  Stopwatch sort_watch;
  const size_t ninputs = in_.datasets.size();
  std::vector<std::vector<size_t>> morsels_of(ninputs);
  std::vector<std::vector<size_t>> refs_into(ninputs);
  for (size_t i = 0; i < ninputs; ++i) {
    refs_into[i].assign(in_.datasets[i]->num_partitions(), 0);
  }
  for (size_t m = 0; m < morsels_.size(); ++m) {
    const auto i = static_cast<size_t>(morsels_[m].input_index);
    morsels_of[i].push_back(m);
    for (const std::vector<RowRef>& refs : mouts_[m].refs) {
      refs_into[i][morsels_[m].src_partition] += refs.size();
    }
  }
  try {
    if (segment_ != nullptr && !WriteSegment(morsels_of).ok()) segment_.reset();
    if (segment_ == nullptr) {
      buckets_.assign(static_cast<size_t>(phys_parts_),
                      std::vector<std::vector<Row>>(ninputs));
      env_.pool->ParallelFor(
          static_cast<size_t>(phys_parts_) * ninputs, [&](size_t task) {
            const size_t p = task / ninputs;
            const size_t i = task % ninputs;
            BuildBucket(p, i, morsels_of[i], refs_into[i]);
          });
    }
  } catch (const std::exception& e) {
    // Reached e.g. when a row's Time cell is not int64 (std::bad_variant_access
    // from the Time read) and quarantine_inputs was off to catch it upstream.
    return Status::ExecutionError(
        "stage " + stage_.name + ": shuffle sort threw: " + e.what() +
        " (malformed rows? FaultToleranceOptions::quarantine_inputs diverts "
        "them)");
  }
  mouts_.clear();
  mouts_.shrink_to_fit();
  for (size_t i = 0; i < ninputs; ++i) {
    if (!consumable_[i]) continue;
    Dataset& input = *in_.datasets[i];
    env_.pool->ParallelFor(input.num_partitions(), [&](size_t p) {
      std::vector<Row>().swap(input.partition(p));
    });
  }
  stats_->sort_seconds = sort_watch.ElapsedSeconds();
  return Status::OK();
}

// The reduce attempt scheduler, single-threaded on the caller. Each partition
// runs as a sequence of attempts. A failed attempt's output is discarded and
// the attempt retried, up to max_task_attempts; exhausting the budget fails
// the stage with a structured kTaskFailed naming stage/partition/attempts.
// With speculative execution on, an attempt running much longer than the
// median completed attempt gets a backup; the first finisher wins, and every
// later successful output is byte-compared against the accepted one — the
// paper's §III-C.1 repeatability claim as a runtime check. The monitor needs
// an attempt's start to be when it began executing, not when it was queued,
// so with speculation on at most parallelism() attempts are in the backend at
// once; without it every attempt is handed over as soon as it is launched.
Status StagePipeline::Reduce(TaskBackend* backend) {
  Stopwatch reduce_watch;
  const FaultToleranceOptions& fault = *env_.fault;
  const int max_attempts = std::max(1, fault.max_task_attempts);

  struct TaskState {
    int started = 0;         // attempts launched, speculative backups included
    int running = 0;         // launched and not yet reported
    int executing = 0;       // of those, handed to the backend
    int retried = 0;         // failed attempts that were re-run
    int backup = -1;         // attempt number of the speculative backup
    bool accepted = false;   // an attempt's output has been accepted
    bool won_by_backup = false;
    std::vector<Clock::time_point> starts;  // per attempt, when it executed
    double cpu_seconds = 0;
    Status error;  // terminal: budget exhausted or determinism violation
  };
  std::vector<TaskState> tasks(static_cast<size_t>(phys_parts_));
  out_rows_.assign(static_cast<size_t>(phys_parts_), {});

  struct Queued {
    int task;
    int attempt;
  };
  std::deque<Queued> queue;
  const auto launch = [&](int p, bool backup) {
    TaskState& t = tasks[p];
    const int attempt = t.started++;
    t.running++;
    t.starts.emplace_back();
    if (backup) {
      t.backup = attempt;
      stats_->speculative_tasks++;
      queue.push_front({p, attempt});
    } else {
      queue.push_back({p, attempt});
    }
  };
  for (int p = 0; p < phys_parts_; ++p) launch(p, /*backup=*/false);

  const size_t slots = fault.speculative_execution
                           ? std::max<size_t>(1, backend->parallelism())
                           : std::numeric_limits<size_t>::max();
  size_t executing = 0;
  int remaining = phys_parts_;
  std::vector<double> completed_walls;  // wall time of successful attempts
  std::vector<AttemptReport> reports;
  // The monitor's poll interval scales with the detection floor so an idle
  // monitor costs nothing measurable: detection latency of ~threshold/8 is
  // invisible next to the straggler itself.
  const auto poll = std::chrono::milliseconds(std::clamp(
      static_cast<long>(fault.min_straggler_seconds * 1000.0 / 8.0), 2L, 100L));

  while (remaining > 0) {
    for (; executing < slots && !queue.empty(); ++executing) {
      const Queued q = queue.front();
      queue.pop_front();
      TaskState& t = tasks[q.task];
      ReduceAttemptContext ctx;
      ctx.stage = &stage_;
      ctx.physical_partition = q.task;
      ctx.base_partition = base_of_[q.task];
      ctx.attempt = q.attempt;
      ctx.sort_output = sort_output_[q.task] != 0;
      if (segment_ != nullptr) {
        ctx.slices = &slices_[q.task];
      } else {
        ctx.buckets = &buckets_[q.task];
      }
      ctx.input_schemas = &in_.schemas;
      if (env_.injector != nullptr) {
        ctx.fault = env_.injector->OnReduceAttempt(stage_.name, q.task,
                                                   q.attempt, max_attempts);
      }
      t.executing++;
      t.starts[q.attempt] = Clock::now();
      backend->StartReduce(ctx);
    }

    reports.clear();
    backend->Wait(fault.speculative_execution ? Clock::now() + poll
                                              : Clock::time_point::max(),
                  &reports);
    const auto now = Clock::now();
    for (AttemptReport& r : reports) {
      TaskState& t = tasks[r.task];
      --executing;
      t.executing--;
      t.running--;
      t.cpu_seconds += r.cpu_seconds;
      if (r.status.ok()) {
        completed_walls.push_back(
            std::chrono::duration<double>(now - t.starts[r.attempt]).count());
        std::vector<Row>& accepted = out_rows_[r.task];
        if (!t.accepted) {
          // First finisher wins (primary or backup alike).
          t.accepted = true;
          t.won_by_backup = r.attempt == t.backup;
          accepted = std::move(r.rows);
        } else if (t.error.ok() && r.rows != accepted) {
          t.error = Status::ExecutionError(
              TaskLabel(stage_.name, r.task) +
              ": determinism violation: speculative and primary attempts "
              "produced different outputs (" +
              std::to_string(r.rows.size()) + " vs " +
              std::to_string(accepted.size()) +
              " rows); §III-C.1 requires re-executed tasks to be repeatable");
        }
      } else if (!t.accepted) {
        if (t.started < max_attempts) {
          t.retried++;
          launch(r.task, /*backup=*/false);
        } else if (t.running == 0) {
          t.error = Status::TaskFailed(
              TaskLabel(stage_.name, r.task) + ": task failed after " +
              std::to_string(t.started) +
              " attempts; last error: " + r.status.ToString());
        }
        // else: a twin attempt is still in flight; it decides the outcome.
      }
      if (t.running == 0) --remaining;  // the task's last attempt reported
    }

    // Straggler monitor: give any attempt running past
    // max(min_straggler_seconds, straggler_factor * median) a backup.
    if (!fault.speculative_execution || completed_walls.empty()) continue;
    std::vector<double> w = completed_walls;
    std::nth_element(w.begin(), w.begin() + w.size() / 2, w.end());
    const double threshold = std::max(fault.min_straggler_seconds,
                                      fault.straggler_factor * w[w.size() / 2]);
    for (int p = 0; p < phys_parts_; ++p) {
      // Without a backup, a task has at most one attempt, the latest.
      TaskState& t = tasks[p];
      if (t.accepted || !t.error.ok() || t.backup >= 0 || t.executing == 0 ||
          t.started >= max_attempts) {
        continue;
      }
      if (std::chrono::duration<double>(now - t.starts.back()).count() >
          threshold) {
        launch(p, /*backup=*/true);
      }
    }
  }
  // Every attempt has reported, so no reducer reads the shuffle buckets any
  // more. Free them here, inside the reduce phase and the stage wall: they
  // hold every reducer-input row, and freeing them mid-phase, while other
  // reducers still allocate, contends on the allocator. Each bucket was
  // built in the order it is freed, so each pool task's free walks memory in
  // address order.
  env_.pool->ParallelFor(buckets_.size(), [&](size_t p) {
    std::vector<std::vector<Row>>().swap(buckets_[p]);
  });
  std::vector<std::vector<std::vector<Row>>>().swap(buckets_);
  stats_->reduce_seconds = reduce_watch.ElapsedSeconds();

  task_seconds_.assign(static_cast<size_t>(phys_parts_), 0.0);
  for (int p = 0; p < phys_parts_; ++p) {
    const TaskState& t = tasks[p];
    stats_->task_attempts += t.started;
    stats_->retried_tasks += t.retried;
    if (t.won_by_backup) stats_->speculative_won++;
    task_seconds_[p] = t.cpu_seconds;
    stats_->task_cpu_seconds_total += t.cpu_seconds;
    stats_->task_cpu_seconds_max =
        std::max(stats_->task_cpu_seconds_max, t.cpu_seconds);
  }
  for (const TaskState& t : tasks) {
    // First error in partition order, for a deterministic message. Nothing is
    // added to the store on failure — no partial output survives.
    TIMR_RETURN_NOT_OK(t.error);
  }
  return Status::OK();
}

void StagePipeline::Publish(std::map<std::string, Dataset>* store) {
  Dataset output(stage_.output_schema, static_cast<size_t>(parts_));
  for (int p = 0; p < parts_; ++p) {
    output.partition(p) = std::move(out_rows_[p]);
  }
  // Coalesce: k-way merge each split partition's virtual outputs back into
  // its base partition. Every run involved is already in canonical
  // RowTimeLess order (sorted at acceptance), so a pairwise merge tree
  // reconstructs one canonically ordered partition — the logical output keeps
  // `parts` partitions, as if no split had happened.
  for (size_t d = 0; d < decisions_.size(); ++d) {
    const auto base = static_cast<size_t>(decisions_[d].partition);
    std::vector<std::vector<Row>> runs;
    runs.reserve(1 + static_cast<size_t>(fanout_));
    runs.push_back(std::move(output.partition(base)));
    for (int s = 0; s < fanout_; ++s) {
      runs.push_back(std::move(out_rows_[vbase_[d] + s]));
    }
    output.partition(base) = MergeSortedRuns(std::move(runs));
  }
  for (int p = 0; p < parts_; ++p) {
    stats_->rows_out += output.partition(p).size();
  }
  // The makespan and time-skew stats run over the *physical* tasks: with
  // splits applied they show the rebalanced schedule the policy bought.
  stats_->simulated_parallel_seconds =
      Makespan(task_seconds_, env_.num_machines);
  if (!task_seconds_.empty()) {
    // Skew signal for adaptive repartitioning: the slowest partition vs the
    // median one.
    stats_->partition_seconds_max =
        *std::max_element(task_seconds_.begin(), task_seconds_.end());
    stats_->partition_seconds_median = MedianOf(task_seconds_);
  }
  stats_->wall_seconds = wall_.ElapsedSeconds();

  std::lock_guard<std::mutex> lock(*env_.store_mu);
  (*store)[stage_.output] = std::move(output);
  if (env_.fault->quarantine_inputs) {
    (*store)[QuarantineDatasetName(stage_.name)] = std::move(quarantine_out_);
  }
}

}  // namespace

Status RunStagePipeline(const MRStage& stage, const StageEnv& env,
                        std::map<std::string, Dataset>* store,
                        StageStats* stats) {
  return StagePipeline(stage, env, stats).Run(store);
}

}  // namespace timr::mr
