#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "bt/custom_reducers.h"
#include "bt/queries.h"
#include "common/hash.h"
#include "mr/cluster.h"
#include "mr/driver.h"
#include "mr/fault.h"
#include "temporal/convert.h"
#include "timr/live_pipeline.h"
#include "timr/suite.h"
#include "timr/timr.h"
#include "trace.h"
#include "traced_run.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using timr::Row;
using timr::temporal::Event;
using timr::temporal::PlanNodePtr;
namespace bt = timr::bt;
namespace framework = timr::framework;
namespace mr = timr::mr;
namespace temporal = timr::temporal;

constexpr int kMachines = 16;  // modeled cluster size
// setup_s is the median of every set-up in a run: kInitialSetupReps before
// the first sample, then after each measured sample more, until they have
// taken kSetupShare of that sample's wall. The host's speed drifts within a
// run; spread over the run, the set-ups sample it as the jobs do.
constexpr int kInitialSetupReps = 3;
constexpr double kSetupShare = 0.1;
constexpr size_t kSpanCapacity = size_t{1} << 18;
constexpr size_t kLivePushChunk = 1024;  // events per timr.live.push span

// Open-loop ladder for live_feed: fixed rates, each held for kRungSeconds on
// a fresh pipeline fed from the start of the log. live_p50_us / live_p99_us
// are read at kReferenceEps; a rung is met when its p99 latency is within
// kP99LimitUs and the generator's lateness over the rung's last tenth (the
// backlog) is within it too.
constexpr double kLadderEps[] = {10000, 20000, 40000, 80000, 160000};
constexpr double kReferenceEps = 40000;
constexpr double kRungSeconds = 0.5;
constexpr double kP99LimitUs = 20000;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of a non-empty sample.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

int Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

uint64_t Digest(const std::vector<Event>& events) {
  uint64_t h = 0;
  for (const Event& e : events) {
    h = timr::HashCombine(h, static_cast<uint64_t>(e.le));
    h = timr::HashCombine(h, static_cast<uint64_t>(e.re));
    h = timr::HashCombine(h, timr::HashRow(e.payload));
  }
  return h;
}

bool Identical(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].le != b[i].le || a[i].re != b[i].re || a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

/// Feature-score rows as a sorted multiset with Z rounded to 1e-9 (the CQ
/// and the custom reducers compute Z in different orders).
std::vector<Row> CanonicalScores(std::vector<Row> rows) {
  for (Row& r : rows) r[6] = timr::Value(std::round(r[6].AsDouble() * 1e9) / 1e9);
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  });
  return rows;
}

/// Generated log size: "full" for measurement, "tiny" for the self-test. The
/// fig14 week is 2000 users (~250k events).
timr::workload::GeneratorConfig GeneratorFor(const Args& args) {
  timr::workload::GeneratorConfig gen;
  gen.seed = args.seed;
  gen.num_ad_classes = 10;
  gen.duration = 7 * temporal::kDay;
  gen.vocab_size = 20000;
  gen.num_users = 2000;
  if (args.size == "tiny") {
    gen.num_users = 40;
    gen.duration = 1 * temporal::kDay;
    gen.vocab_size = 2000;
  } else if (args.workload == "bt_batch") {
    gen.num_users = 8000;
  } else if (args.workload == "bt_suite") {
    gen.num_users = 1000;
  } else if (args.workload == "live_feed") {
    gen.num_users = 500;  // short jobs, so each run has ~20 samples
  }
  return gen;
}

struct Job {
  bool ok = false;
  double wall_s = 0;
  uint32_t trace_job = 0;  // non-zero for traced jobs
  std::vector<std::vector<Event>> outputs;  // one per query
  std::vector<Row> scores;                  // custom job output
  mr::JobStats stats;
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args) {
    if (args.trace) tracer_ = std::make_unique<Tracer>(kSpanCapacity);
    cfg_.selection_period = 8 * temporal::kDay;  // covers the whole log
    cfg_.bot_search_threshold = 60;
    cfg_.bot_click_threshold = 30;
    plan_ = bt::BtFeaturePipeline(cfg_, bt::Annotation::kStandard).node();
  }

  Report Run() {
    for (int rep = 0; rep < kInitialSetupReps; ++rep) {
      if (!SetUp()) return report_;
    }
    if (args_.workload == "bt_batch") {
      BtBatch();
    } else if (args_.workload == "bt_suite") {
      BtSuite();
    } else if (args_.workload == "bt_procs") {
      BtProcs();
    } else if (args_.workload == "live_feed") {
      LiveFeed();
    }
    return report_;
  }

 private:
  void Fail(const std::string& what) {
    ++report_.failed;
    report_.failures.push_back(what);
  }
  /// Counts one output check as an op; a false `ok` is a failed op.
  void Check(bool ok, const std::string& what) {
    ++report_.attempted;
    if (!ok) Fail("check failed: " + what);
  }
  /// Self-test hook: corrupt the first job output the run produces.
  void MaybePerturb(std::vector<std::vector<Event>>* outputs) {
    if (!args_.perturb || perturbed_) return;
    for (auto& out : *outputs) {
      if (out.empty()) continue;
      out.front().le -= 1;
      perturbed_ = true;
      return;
    }
  }

  /// One set-up from scratch: generate the log, build the input dataset,
  /// create the cluster.
  bool SetUp();
  std::map<std::string, mr::Dataset>* Store();
  /// One TiMR job: `run(nullptr)` calls the library untraced; a traced job
  /// gets a fresh job id and span, and `run` re-drives it under them.
  Job RunJob(bool traced, const std::string& what,
             const std::function<timr::Result<TracedRunResult>(const TraceContext*)>& run);
  Job RunTimr(const PlanNodePtr& plan, const framework::TimrOptions& options,
              bool traced);
  Job RunSuite(bool traced);
  Job RunCustom(const mr::ProcessOptions& process);
  Job RunLive(bool traced);
  void LiveLadder();

  void BtBatch();
  void BtSuite();
  void BtProcs();
  void LiveFeed();

  /// Samples until the time budget is spent; a traced run follows every
  /// untraced sample with a traced one. A sample is one `run(traced)` job,
  /// checked against the first job's output digests and by `check`. With a
  /// non-null `custom_process`, an untraced sample also runs one custom job
  /// on that runtime, whose feature scores must equal the TiMR job's. Each
  /// untraced sample is followed by set-ups (see kSetupShare).
  void Measure(const std::function<Job(bool)>& run,
               const std::function<void(const Job&)>& check,
               const mr::ProcessOptions* custom_process);
  void ReportJobs();
  /// `faults`: the stats of the job whose restarts and retries are reported.
  void ReportLayers(const mr::JobStats& faults);
  void Layer(const char* name, double value, const char* unit) {
    report_.per_layer.push_back({name, value, unit});
  }

  const Args args_;
  std::unique_ptr<Tracer> tracer_;
  uint32_t next_job_ = 1;
  bool perturbed_ = false;
  Report report_;
  bt::BtQueryConfig cfg_;
  PlanNodePtr plan_;
  std::vector<std::pair<std::string, PlanNodePtr>> queries_;  // bt_suite
  size_t scores_output_ = 0;  // the job output holding the feature scores
  std::vector<Job> jobs_, traced_, custom_;  // measured samples
  std::vector<double> overhead_;             // per-sample TiMR / custom wall
  timr::workload::BtLog log_;
  std::map<std::string, mr::Dataset> store_;
  std::unique_ptr<mr::LocalCluster> cluster_;
  std::vector<double> setup_s_, generate_s_;  // every set-up in the run
  double gen_late_ms_ = 0;
};

bool Bench::SetUp() {
  log_ = {};
  store_.clear();
  cluster_.reset();
  const int64_t t0 = NowNs();
  log_ = timr::workload::GenerateBtLog(GeneratorFor(args_));
  const int64_t t1 = NowNs();
  auto rows = temporal::RowsFromEvents(log_.events, /*interval_layout=*/false);
  if (!rows.ok()) {
    Fail("setup: " + rows.status().ToString());
    return false;
  }
  store_[bt::kBtInput] = mr::Dataset::FromRows(
      temporal::PointRowSchema(bt::UnifiedSchema()), rows.MoveValue());
  cluster_ = std::make_unique<mr::LocalCluster>(kMachines, Nproc());
  const int64_t t2 = NowNs();
  generate_s_.push_back(Seconds(t1 - t0));
  setup_s_.push_back(Seconds(t2 - t0));
  report_.input_events = static_cast<int64_t>(log_.events.size());
  return true;
}

std::map<std::string, mr::Dataset>* Bench::Store() {
  for (auto it = store_.begin(); it != store_.end();) {
    it = it->first == bt::kBtInput ? std::next(it) : store_.erase(it);
  }
  return &store_;
}

Job Bench::RunJob(bool traced, const std::string& what,
                  const std::function<timr::Result<TracedRunResult>(const TraceContext*)>& run) {
  ++report_.attempted;
  Job job;
  if (traced) job.trace_job = next_job_++;
  const int64_t t0 = NowNs();
  auto result = [&] {
    if (!traced) return run(nullptr);
    Span span(tracer_.get(), "job", 0, job.trace_job);
    const TraceContext ctx{tracer_.get(), job.trace_job, span.id()};
    return run(&ctx);
  }();
  job.wall_s = Seconds(NowNs() - t0);
  if (!result.ok()) {
    Fail(what + ": " + result.status().ToString());
    return job;
  }
  job.outputs = std::move(result.ValueOrDie().outputs);
  job.stats = std::move(result.ValueOrDie().job_stats);
  MaybePerturb(&job.outputs);
  job.ok = true;
  return job;
}

Job Bench::RunTimr(const PlanNodePtr& plan, const framework::TimrOptions& options,
                   bool traced) {
  auto* store = Store();
  return RunJob(traced, "RunPlan",
                [&](const TraceContext* ctx) -> timr::Result<TracedRunResult> {
                  if (ctx != nullptr) {
                    return TracedRunPlan(*ctx, cluster_.get(), plan, store, options);
                  }
                  TIMR_ASSIGN_OR_RETURN(
                      framework::TimrRunResult r,
                      framework::RunPlan(cluster_.get(), plan, store, options));
                  return TracedRunResult{{std::move(r.output)}, std::move(r.job_stats)};
                });
}

Job Bench::RunSuite(bool traced) {
  auto* store = Store();
  const framework::SuiteOptions options;  // sharing on
  return RunJob(traced, "RunPlanSuite",
                [&](const TraceContext* ctx) -> timr::Result<TracedRunResult> {
                  if (ctx != nullptr) {
                    return TracedRunSuite(*ctx, cluster_.get(), queries_, store, options);
                  }
                  TIMR_ASSIGN_OR_RETURN(
                      framework::SuiteRunResult r,
                      framework::RunPlanSuite(cluster_.get(), queries_, store, options));
                  return TracedRunResult{std::move(r.outputs), std::move(r.job_stats)};
                });
}

Job Bench::RunCustom(const mr::ProcessOptions& process) {
  ++report_.attempted;
  Job job;
  cluster_->set_process_options(process);
  auto* store = Store();
  const int64_t t0 = NowNs();
  auto run = bt::RunCustomBtJob(cluster_.get(), store, cfg_);
  job.wall_s = Seconds(NowNs() - t0);
  if (!run.ok()) {
    Fail("RunCustomBtJob: " + run.status().ToString());
    return job;
  }
  job.scores = std::move(run.ValueOrDie().feature_scores);
  job.stats = std::move(run.ValueOrDie().job_stats);
  job.ok = true;
  return job;
}

Job Bench::RunLive(bool traced) {
  ++report_.attempted;
  Job job;
  Tracer* tracer = traced ? tracer_.get() : nullptr;
  if (traced) job.trace_job = next_job_++;
  // The pushes take their events by value; copy the feed outside the timer.
  std::vector<Event> feed = log_.events;
  report_.attempted += static_cast<int64_t>(feed.size());
  int64_t failed_pushes = 0;
  const int64_t t0 = NowNs();
  {
    Span span(tracer, "job", 0, job.trace_job);
    std::unique_ptr<framework::LivePipeline> live;
    {
      Span s(tracer, "timr.live.create", span.id(), job.trace_job);
      auto created = framework::LivePipeline::Create(plan_);
      if (!created.ok()) {
        Fail("LivePipeline::Create: " + created.status().ToString());
        return job;
      }
      live = created.MoveValue();
    }
    for (size_t begin = 0; begin < feed.size(); begin += kLivePushChunk) {
      Span s(tracer, "timr.live.push", span.id(), job.trace_job);
      const size_t end = std::min(feed.size(), begin + kLivePushChunk);
      for (size_t i = begin; i < end; ++i) {
        live->PushCti(feed[i].le);
        if (!live->PushEvent(bt::kBtInput, std::move(feed[i])).ok()) ++failed_pushes;
      }
      s.set_count(end - begin);
    }
    Span s(tracer, "timr.live.finish", span.id(), job.trace_job);
    live->Finish();
    job.outputs.push_back(live->TakeOutput());
    live.reset();
  }
  job.wall_s = Seconds(NowNs() - t0);
  if (failed_pushes > 0) {
    report_.failed += failed_pushes;
    report_.failures.push_back("live_feed: " + std::to_string(failed_pushes) +
                               " pushes failed");
    return job;
  }
  MaybePerturb(&job.outputs);
  job.ok = true;
  return job;
}

void Bench::Measure(const std::function<Job(bool)>& run,
                    const std::function<void(const Job&)>& check,
                    const mr::ProcessOptions* custom_process) {
  std::vector<uint64_t> first_digests;
  std::vector<Row> expected_scores;
  auto sample = [&](bool traced) {
    Job job = run(traced);
    if (!job.ok) return false;
    std::vector<uint64_t> digests;
    for (const auto& out : job.outputs) digests.push_back(Digest(out));
    if (first_digests.empty()) {
      first_digests = digests;
      if (custom_process != nullptr) {
        std::vector<Row> rows;
        for (const Event& e : job.outputs.at(scores_output_)) rows.push_back(e.payload);
        expected_scores = CanonicalScores(std::move(rows));
      }
    }
    Check(digests == first_digests,
          args_.workload + ": job output digest differs from the first job's");
    check(job);
    job.outputs.clear();
    if (traced) {
      traced_.push_back(std::move(job));
      return true;
    }
    if (custom_process != nullptr) {
      Job c = RunCustom(*custom_process);
      if (!c.ok) return false;
      Check(CanonicalScores(std::move(c.scores)) == expected_scores,
            args_.workload + ": RunCustomBtJob's feature scores differ from TiMR's");
      overhead_.push_back(job.wall_s / c.wall_s);
      custom_.push_back(std::move(c));
    }
    double setup_s = 0;
    do {
      if (!SetUp()) return false;
      setup_s += setup_s_.back();
    } while (setup_s < kSetupShare * job.wall_s);
    jobs_.push_back(std::move(job));
    ++report_.samples;
    return true;
  };
  const int64_t start = NowNs();
  do {
    if (!sample(/*traced=*/false)) return;
    if (args_.trace && !sample(/*traced=*/true)) return;
  } while (Seconds(NowNs() - start) < args_.seconds);
}

void Bench::ReportJobs() {
  for (const Job& j : jobs_) report_.job_walls.push_back(j.wall_s);
  const double job_s = Median(report_.job_walls);
  report_.end_to_end.push_back({"job_s", job_s, "s"});
  report_.end_to_end.push_back({"setup_s", Median(setup_s_), "s"});
  report_.ungated.push_back(
      {"events_per_s", static_cast<double>(report_.input_events) / job_s, "1/s"});
  if (custom_.empty()) return;
  for (const Job& j : custom_) report_.custom_walls.push_back(j.wall_s);
  report_.ungated.push_back({"custom_job_s", Median(report_.custom_walls), "s"});
  // Each sample's ratio pairs jobs run back to back.
  report_.ungated.push_back({"timr_overhead_x", Median(overhead_), "x"});
}

void Bench::ReportLayers(const mr::JobStats& faults) {
  const std::vector<SpanRecord> spans = tracer_->Spans();
  if (!args_.trace_path.empty()) {
    Check(WriteChromeTrace(spans, args_.trace_path), "trace written to " + args_.trace_path);
  }
  LayerTotals t = Rollup(spans);
  report_.jobs_traced = static_cast<int64_t>(t.jobs);
  report_.trace_job_wall_s = t.job_wall_seconds;
  report_.trace_gap_s = t.gap_seconds;
  report_.spans_dropped = tracer_->dropped();

  // Span layers: self time per traced job. The driver-thread self time of
  // each reported layer counts towards coverage; a span without a metric
  // here leaves its time uncovered.
  const double n = static_cast<double>(std::max<size_t>(1, traced_.size()));
  double covered = 0;
  auto self = [&](const char* name) {
    covered += t.driver_self_seconds[name];
    return t.self_seconds[name] / n;
  };
  const double engine_s = self("temporal.engine");
  const double engine_events = static_cast<double>(t.counts["temporal.engine"]) / n;
  Layer("temporal.decode_s", self("temporal.decode"), "s");
  Layer("temporal.create_s", self("temporal.create"), "s");
  Layer("temporal.engine_s", engine_s, "s");
  Layer("temporal.encode_s", self("temporal.encode"), "s");
  Layer("temporal.engine_events", engine_events, "count");
  Layer("temporal.events_per_s", engine_s > 0 ? engine_events / engine_s : 0, "1/s");

  // Stage layers from each traced job's StageStats, averaged per job.
  double map = 0, sort = 0, reduce = 0, rows = 0, stages = 0, skew = 0, attempts = 0,
         retried = 0, simulated = 0, outside = 0;
  std::vector<double> traced_walls;
  for (const Job& j : traced_) {
    double stage_wall = 0;
    for (const mr::StageStats& s : j.stats.stages) {
      map += s.map_shuffle_seconds;
      sort += s.sort_seconds;
      reduce += s.reduce_seconds;
      rows += static_cast<double>(s.rows_shuffled);
      stages += 1;
      if (s.partition_rows_median > 0) {
        skew = std::max(skew, static_cast<double>(s.partition_rows_max) /
                                  s.partition_rows_median);
      }
      attempts += s.task_attempts;
      retried += s.retried_tasks;
      simulated += s.simulated_parallel_seconds;
      stage_wall += s.wall_seconds;
    }
    const double wall = t.job_wall_by_id[j.trace_job];
    traced_walls.push_back(wall);
    if (!j.stats.stages.empty()) outside += wall - stage_wall;
  }
  Layer("mr.map_s", map / n, "s");
  Layer("mr.sort_s", sort / n, "s");
  Layer("mr.reduce_s", reduce / n, "s");
  Layer("mr.rows_shuffled", rows / n, "count");
  Layer("mr.stages", stages / n, "count");
  Layer("mr.partition_skew_x", skew, "x");
  Layer("mr.task_attempts", attempts / n, "count");
  Layer("mr.retried_tasks", retried / n, "count");
  Layer("mr.simulated_s", simulated / n, "s");
  Layer("mr.stage_s", self("mr.stage"), "s");
  Layer("mr.rpc.encode_s", self("mr.rpc.encode"), "s");
  Layer("mr.rpc.decode_s", self("mr.rpc.decode"), "s");
  Layer("mr.rpc.bytes", static_cast<double>(t.counts["mr.rpc.encode"]) / n, "B");
  double restarts = 0, rpc_retries = 0, hb_timeouts = 0;
  for (const mr::StageStats& s : faults.stages) {
    restarts += s.worker_restarts;
    rpc_retries += s.rpc_retries;
    hb_timeouts += s.heartbeat_timeouts;
  }
  Layer("mr.worker_restarts", restarts, "count");
  Layer("mr.rpc_retries", rpc_retries, "count");
  Layer("mr.heartbeat_timeouts", hb_timeouts, "count");

  Layer("timr.fragment_s", self("timr.fragment"), "s");
  Layer("timr.compile_s", self("timr.compile"), "s");
  Layer("timr.outside_stages_s", outside / n, "s");
  Layer("analysis.verify_s", self("analysis.verify"), "s");
  Layer("analysis.share_select_s", self("analysis.share_select"), "s");
  Layer("timr.live.create_s", self("timr.live.create"), "s");
  Layer("timr.live.push_s", self("timr.live.push"), "s");
  Layer("timr.live.finish_s", self("timr.live.finish"), "s");

  std::vector<double> custom_map, custom_reduce;
  for (const Job& j : custom_) {
    double m = 0, r = 0;
    for (const mr::StageStats& s : j.stats.stages) {
      m += s.map_shuffle_seconds + s.sort_seconds;
      r += s.reduce_seconds;
    }
    custom_map.push_back(m);
    custom_reduce.push_back(r);
  }
  Layer("bt.custom.map_s", custom_.empty() ? 0 : Median(custom_map), "s");
  Layer("bt.custom.reduce_s", custom_.empty() ? 0 : Median(custom_reduce), "s");
  Layer("workload.generate_s", Median(generate_s_), "s");
  Layer("bench.gen_late_ms", gen_late_ms_, "ms");

  const double base = Median(report_.job_walls);
  Layer("bench.trace_overhead_pct", (Median(traced_walls) - base) / base * 100, "%");
  report_.trace_covered_s = covered;
  Layer("bench.coverage_pct", t.job_wall_seconds > 0 ? covered / t.job_wall_seconds * 100 : 0,
        "%");
}

void Bench::BtBatch() {
  const mr::ProcessOptions threads;
  Measure([&](bool traced) { return RunTimr(plan_, {}, traced); }, [](const Job&) {},
          &threads);
  ReportJobs();
  if (args_.trace) ReportLayers({});
}

void Bench::BtSuite() {
  queries_ = bt::BtCqSuite(cfg_);
  while (scores_output_ < queries_.size() && queries_[scores_output_].first != "bt_standard") {
    ++scores_output_;
  }
  if (scores_output_ == queries_.size()) {
    Fail("bt_suite: the suite has no bt_standard query");
    return;
  }
  std::vector<Event> standard_output;
  Measure([&](bool traced) { return RunSuite(traced); },
          [&](const Job& job) {
            if (standard_output.empty()) standard_output = job.outputs[scores_output_];
          },
          nullptr);
  Job reference = RunTimr(queries_[scores_output_].second, {}, false);
  if (reference.ok) {
    temporal::SortEventsCanonical(&reference.outputs[0]);
    Check(Identical(reference.outputs[0], standard_output),
          "bt_suite: bt_standard output differs from RunPlan of the same plan");
  }
  ReportJobs();
  if (args_.trace) ReportLayers({});
}

void Bench::BtProcs() {
  if (!mr::ProcessModeSupported()) {
    Fail("bt_procs: process mode is not supported in this build");
    return;
  }
  framework::TimrOptions procs;
  procs.process.workers = std::max(1, Nproc() - 1);
  const Job reference = RunTimr(plan_, {}, false);  // thread mode
  if (!reference.ok) return;
  Measure([&](bool traced) { return RunTimr(plan_, procs, traced); },
          [&](const Job& job) {
            Check(Identical(job.outputs[0], reference.outputs[0]),
                  "bt_procs: process-mode output differs from thread mode");
          },
          &procs.process);

  // One worker SIGKILL per stage, between map commit and reduce fetch.
  framework::TimrOptions killed = procs;
  killed.process.heartbeat_interval_seconds = 0.02;
  killed.process.heartbeat_deadline_seconds = 1.0;
  mr::ScriptedProcessKill kill;
  kill.stage = "*";
  kill.window = mr::ScriptedProcessKill::Window::kOnReduceRequest;
  kill.worker_index = 0;
  killed.process.chaos.scripted.push_back(kill);
  Job hurt = RunTimr(plan_, killed, false);
  ReportJobs();
  if (hurt.ok) {
    Check(Identical(hurt.outputs[0], reference.outputs[0]),
          "bt_procs: output changed across a worker SIGKILL");
    int restarts = 0;
    for (const mr::StageStats& s : hurt.stats.stages) restarts += s.worker_restarts;
    Check(restarts > 0, "bt_procs: the scripted SIGKILL did not fire");
    report_.ungated.push_back(
        {"recovery_s", hurt.wall_s - Median(report_.job_walls), "s"});
  }
  if (args_.trace) ReportLayers(hurt.stats);
}

void Bench::LiveLadder() {
  const std::vector<Event>& events = log_.events;
  double max_met = 0;
  for (const double eps : kLadderEps) {
    auto created = framework::LivePipeline::Create(plan_);
    if (!created.ok()) {
      Fail("LivePipeline::Create: " + created.status().ToString());
      return;
    }
    std::unique_ptr<framework::LivePipeline> live = created.MoveValue();
    const size_t n = std::min(events.size(), static_cast<size_t>(eps * kRungSeconds));
    std::vector<Event> feed(events.begin(), events.begin() + static_cast<ptrdiff_t>(n));
    std::vector<double> latency_us(n), late_us(n);
    report_.attempted += static_cast<int64_t>(n);
    int64_t failed_pushes = 0;
    const int64_t t0 = NowNs() + 1000000;
    for (size_t i = 0; i < n; ++i) {
      const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(i) * 1e9 / eps);
      int64_t start = NowNs();
      while (start < due) start = NowNs();
      live->PushCti(feed[i].le);
      if (!live->PushEvent(bt::kBtInput, std::move(feed[i])).ok()) ++failed_pushes;
      latency_us[i] = static_cast<double>(NowNs() - due) * 1e-3;
      late_us[i] = static_cast<double>(start - due) * 1e-3;
    }
    if (failed_pushes > 0) {
      report_.failed += failed_pushes;
      report_.failures.push_back("live_feed ladder: " + std::to_string(failed_pushes) +
                                 " pushes failed");
    }
    if (n == 0) continue;
    const double p99 = Quantile(latency_us, 0.99);
    const std::vector<double> tail(late_us.end() - static_cast<ptrdiff_t>(n - n * 9 / 10),
                                   late_us.end());
    const bool met = p99 <= kP99LimitUs && Median(tail) <= kP99LimitUs;
    std::printf("ladder rung %8.0f ev/s: %zu pushes, p50 %.1f us, p99 %.1f us, %s\n", eps,
                n, Quantile(latency_us, 0.5), p99, met ? "met" : "missed");
    if (met) max_met = eps;
    if (eps == kReferenceEps) {
      report_.ungated.push_back({"live_p50_us", Quantile(latency_us, 0.5), "us"});
      report_.ungated.push_back({"live_p99_us", p99, "us"});
      gen_late_ms_ = Quantile(late_us, 0.99) * 1e-3;
    }
  }
  report_.ungated.push_back({"live_max_rate_eps", max_met, "1/s"});
}

void Bench::LiveFeed() {
  const Job replay = RunTimr(plan_, {}, false);  // the offline replay
  if (!replay.ok) return;
  Measure([&](bool traced) { return RunLive(traced); },
          [&](const Job& job) {
            Check(temporal::SameTemporalRelation(job.outputs[0], replay.outputs[0]),
                  "live_feed: live output differs from the offline replay");
          },
          nullptr);
  LiveLadder();
  ReportJobs();
  if (args_.trace) ReportLayers({});
}

}  // namespace

Report RunWorkload(const Args& args) {
  if (args.workload != "bt_batch" && args.workload != "bt_suite" &&
      args.workload != "bt_procs" && args.workload != "live_feed") {
    Report r;
    r.attempted = 1;
    r.failed = 1;
    r.failures.push_back("unknown workload: " + args.workload);
    return r;
  }
  return Bench(args).Run();
}

}  // namespace perfbench
