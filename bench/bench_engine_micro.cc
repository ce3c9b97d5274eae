// Engine micro-benchmarks (google-benchmark): per-operator throughput of the
// temporal engine. Not a paper figure — these guard the substrate's
// performance so the figure benches stay meaningful.
//
// With TIMR_BENCH_JSON=path set, one JSON line per benchmark run is appended
// to that file (events/sec trajectory; see bench_util.h) — CI's bench-smoke
// job uploads it as the BENCH_engine.json artifact.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "bt/model.h"
#include "bt/queries.h"
#include "common/rng.h"
#include "mr/rpc.h"
#include "temporal/convert.h"
#include "temporal/executor.h"
#include "temporal/query.h"
#include "timr/live_pipeline.h"
#include "workload/generator.h"

namespace {

using namespace timr;
namespace T = timr::temporal;

Schema TwoColSchema() {
  return Schema::Of({{"Key", ValueType::kInt64}, {"Val", ValueType::kInt64}});
}

std::vector<T::Event> MakeEvents(int64_t n, int64_t keys, uint64_t seed) {
  Rng rng(seed);
  std::vector<T::Event> events;
  events.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    events.push_back(T::Event::Point(
        i, {Value(rng.UniformInt(0, keys - 1)), Value(rng.UniformInt(0, 100))}));
  }
  return events;
}

// Times the engine run only: the per-iteration input copy (one Row clone per
// event) is real work but not *engine* work, so it happens under PauseTiming.
void RunPlan(benchmark::State& state, const T::PlanNodePtr& plan,
             const std::vector<T::Event>& events) {
  for (auto _ : state) {
    state.PauseTiming();
    auto exec = T::Executor::Create(plan);
    TIMR_CHECK(exec.ok());
    std::map<std::string, std::vector<T::Event>> inputs;
    inputs.emplace("S", events);
    state.ResumeTiming();
    auto out = exec.ValueOrDie()->RunBatch(std::move(inputs));
    TIMR_CHECK(out.ok());
    benchmark::DoNotOptimize(out.ValueOrDie().size());
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}

// ---- Per-kernel rows/s: row batches (columnar=0, the PR 3 row-batch path)
// vs columnar batches with vectorized kernels (columnar=1), same structured
// plans. Batches are pre-built outside the timed region so the numbers are
// operator throughput given the delivered representation, not ingest
// conversion. These are the acceptance numbers for the columnar layout (see
// EXPERIMENTS.md / BENCH_columnar.json).

T::EventBatch BuildBatch(const std::vector<T::Event>& events, size_t lo,
                         size_t hi, bool columnar, const Schema& schema) {
  T::EventBatch batch;
  if (columnar) batch.BeginColumnar(schema);
  for (size_t i = lo; i < hi; ++i) {
    if ((i - lo) % 64 == 0) batch.AddCti(events[i].le);
    if (columnar) {
      TIMR_CHECK(
          batch.TryAppendColumnar(events[i].le, events[i].re, events[i].payload));
    } else {
      batch.Add(events[i]);
    }
  }
  return batch;
}

using Feed = std::vector<std::pair<std::string, T::EventBatch>>;

void PushKernel(benchmark::State& state, const T::PlanNodePtr& plan,
                const std::function<Feed()>& make_feed, int64_t items) {
  for (auto _ : state) {
    state.PauseTiming();
    auto exec = T::Executor::Create(plan);
    TIMR_CHECK(exec.ok());
    Feed feed = make_feed();
    state.ResumeTiming();
    for (auto& [source, batch] : feed) {
      TIMR_CHECK_OK(exec.ValueOrDie()->PushBatch(source, std::move(batch)));
    }
    exec.ValueOrDie()->Finish();
    benchmark::DoNotOptimize(exec.ValueOrDie()->TotalEventsConsumed());
  }
  state.SetItemsProcessed(state.iterations() * items);
}

void BM_KernelSelect(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), 100, 11);
  const bool columnar = state.range(1) != 0;
  auto plan = T::Query::Input("S", TwoColSchema())
                  .WhereCmp("Val", T::CmpOp::kGt, Value(int64_t{50}))
                  .node();
  PushKernel(state, plan, [&] {
    Feed feed;
    feed.emplace_back(
        "S", BuildBatch(events, 0, events.size(), columnar, TwoColSchema()));
    return feed;
  }, events.size());
}
BENCHMARK(BM_KernelSelect)
    ->ArgNames({"n", "columnar"})
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1});

void BM_KernelProject(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), 100, 12);
  const bool columnar = state.range(1) != 0;
  T::ProjectSpec spec;
  spec.exprs.push_back(
      T::ProjectExpr::Arith("Score", 0, T::ProjectExpr::ArithOp::kAdd, 1));
  spec.exprs.push_back(T::ProjectExpr::Column("Val", 1));
  auto plan = T::Query::Input("S", TwoColSchema()).Project(spec).node();
  PushKernel(state, plan, [&] {
    Feed feed;
    feed.emplace_back(
        "S", BuildBatch(events, 0, events.size(), columnar, TwoColSchema()));
    return feed;
  }, events.size());
}
BENCHMARK(BM_KernelProject)
    ->ArgNames({"n", "columnar"})
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1});

void BM_KernelAlterLifetime(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), 100, 13);
  const bool columnar = state.range(1) != 0;
  auto plan = T::Query::Input("S", TwoColSchema()).Window(512).node();
  PushKernel(state, plan, [&] {
    Feed feed;
    feed.emplace_back(
        "S", BuildBatch(events, 0, events.size(), columnar, TwoColSchema()));
    return feed;
  }, events.size());
}
BENCHMARK(BM_KernelAlterLifetime)
    ->ArgNames({"n", "columnar"})
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1});

void BM_KernelSnapshotAgg(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), 100, 14);
  const bool columnar = state.range(1) != 0;
  auto plan =
      T::Query::Input("S", TwoColSchema()).Window(512).Sum("Val").node();
  PushKernel(state, plan, [&] {
    Feed feed;
    feed.emplace_back(
        "S", BuildBatch(events, 0, events.size(), columnar, TwoColSchema()));
    return feed;
  }, events.size());
}
BENCHMARK(BM_KernelSnapshotAgg)
    ->ArgNames({"n", "columnar"})
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1});

void BM_KernelJoinProbe(benchmark::State& state) {
  auto left = MakeEvents(state.range(0), 256, 15);
  auto right = MakeEvents(state.range(0), 256, 16);
  const bool columnar = state.range(1) != 0;
  Schema s = TwoColSchema();
  auto plan = T::Query::TemporalJoin(T::Query::Input("S", s).Window(64),
                                     T::Query::Input("R", s).Window(64),
                                     {"Key"}, {"Key"})
                  .node();
  // Interleave 4096-event chunks so the merge ports drain as they would in a
  // real pipelined run instead of buffering one whole side.
  PushKernel(state, plan, [&] {
    Feed feed;
    constexpr size_t kChunk = 4096;
    for (size_t lo = 0; lo < left.size(); lo += kChunk) {
      const size_t hi = std::min(lo + kChunk, left.size());
      feed.emplace_back("S", BuildBatch(left, lo, hi, columnar, s));
      feed.emplace_back("R", BuildBatch(right, lo, hi, columnar, s));
    }
    return feed;
  }, 2 * left.size());
}
BENCHMARK(BM_KernelJoinProbe)
    ->ArgNames({"n", "columnar"})
    ->Args({1 << 15, 0})
    ->Args({1 << 15, 1});

// End-to-end BT pipeline, engine only, both modes — the >1.2x acceptance
// check lives on this pair.
void BM_BtPipelineMode(benchmark::State& state) {
  workload::GeneratorConfig wcfg;
  wcfg.num_users = 300;
  wcfg.vocab_size = 20000;
  wcfg.duration = 7 * T::kDay;
  wcfg.num_ad_classes = 10;
  auto log = workload::GenerateBtLog(wcfg);
  bt::BtQueryConfig cfg = benchutil::BenchBtConfig();
  auto plan = bt::GenTrainData(bt::BotElimination(bt::BtInput(), cfg), cfg).node();
  const bool columnar = state.range(0) != 0;
  uint64_t consumed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto exec = T::Executor::Create(plan);
    TIMR_CHECK(exec.ok());
    exec.ValueOrDie()->set_columnar(columnar);
    std::map<std::string, std::vector<T::Event>> inputs;
    inputs.emplace(bt::kBtInput, log.events);
    state.ResumeTiming();
    auto out = exec.ValueOrDie()->RunBatch(std::move(inputs));
    TIMR_CHECK(out.ok());
    consumed = exec.ValueOrDie()->TotalEventsConsumed();
    benchmark::DoNotOptimize(out.ValueOrDie().size());
  }
  state.SetItemsProcessed(state.iterations() * consumed);
}
BENCHMARK(BM_BtPipelineMode)
    ->ArgNames({"columnar"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_Select(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), 100, 1);
  auto plan = T::Query::Input("S", TwoColSchema())
                  .Where([](const Row& r) { return r[1].AsInt64() > 50; })
                  .node();
  RunPlan(state, plan, events);
}
BENCHMARK(BM_Select)->Arg(1 << 14)->Arg(1 << 17);

// The acceptance pipeline for the batched execution path: a fused
// Select→Project→AlterLifetime chain, the hot stateless shape of every BT
// fragment prefix.
void BM_StatelessPipeline(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), 100, 8);
  auto plan = T::Query::Input("S", TwoColSchema())
                  .Where([](const Row& r) { return r[1].AsInt64() > 10; })
                  .Project([](const Row& r) { return Row{r[0], r[1]}; },
                           TwoColSchema())
                  .Window(512)
                  .node();
  RunPlan(state, plan, events);
}
BENCHMARK(BM_StatelessPipeline)->Arg(1 << 14)->Arg(1 << 17);

void BM_WindowedCount(benchmark::State& state) {
  auto events = MakeEvents(state.range(0), 100, 2);
  auto plan = T::Query::Input("S", TwoColSchema()).Window(512).Count().node();
  RunPlan(state, plan, events);
}
BENCHMARK(BM_WindowedCount)->Arg(1 << 14)->Arg(1 << 17);

void BM_GroupedCount(benchmark::State& state) {
  auto events = MakeEvents(1 << 15, state.range(0), 3);
  auto plan = T::Query::Input("S", TwoColSchema())
                  .GroupApply({"Key"},
                              [](T::Query g) { return g.Window(512).Count(); })
                  .node();
  RunPlan(state, plan, events);
}
BENCHMARK(BM_GroupedCount)->Arg(16)->Arg(256)->Arg(4096);

// BotStream's sub-plan shape (Figure 11): per key, a Union of two filtered
// hopping-window counts, each thresholded. Val < 20 stands in for clicks and
// Val >= 60 for searches.
void BM_GroupedUnionCount(benchmark::State& state) {
  auto events = MakeEvents(1 << 15, state.range(0), 3);
  auto branch = [](T::Query g, T::CmpOp op, int64_t bound, int64_t threshold) {
    return g.WhereCmp("Val", op, Value(bound))
        .HoppingWindow(512, 64)
        .Count("cnt")
        .WhereCmp("cnt", T::CmpOp::kGt, Value(threshold));
  };
  auto plan = T::Query::Input("S", TwoColSchema())
                  .GroupApply({"Key"},
                              [&](T::Query g) {
                                return T::Query::Union(
                                    branch(g, T::CmpOp::kLt, 20, 1),
                                    branch(g, T::CmpOp::kGe, 60, 2));
                              })
                  .node();
  RunPlan(state, plan, events);
}
BENCHMARK(BM_GroupedUnionCount)->Arg(16)->Arg(256)->Arg(4096);

void BM_TemporalJoin(benchmark::State& state) {
  auto left = MakeEvents(state.range(0), 256, 4);
  auto right = MakeEvents(state.range(0), 256, 5);
  Schema s = TwoColSchema();
  auto plan = T::Query::TemporalJoin(T::Query::Input("S", s).Window(64),
                                     T::Query::Input("R", s).Window(64), {"Key"},
                                     {"Key"})
                  .node();
  for (auto _ : state) {
    state.PauseTiming();
    auto exec = T::Executor::Create(plan);
    TIMR_CHECK(exec.ok());
    std::map<std::string, std::vector<T::Event>> inputs;
    inputs.emplace("S", left);
    inputs.emplace("R", right);
    state.ResumeTiming();
    auto out = exec.ValueOrDie()->RunBatch(std::move(inputs));
    TIMR_CHECK(out.ok());
    benchmark::DoNotOptimize(out.ValueOrDie().size());
  }
  state.SetItemsProcessed(state.iterations() * 2 * left.size());
}
BENCHMARK(BM_TemporalJoin)->Arg(1 << 13)->Arg(1 << 15);

void BM_AntiSemiJoin(benchmark::State& state) {
  auto left = MakeEvents(state.range(0), 256, 6);
  auto right = MakeEvents(state.range(0) / 4, 256, 7);
  Schema s = TwoColSchema();
  auto plan = T::Query::AntiSemiJoin(T::Query::Input("S", s),
                                     T::Query::Input("R", s).Window(64), {"Key"},
                                     {"Key"})
                  .node();
  for (auto _ : state) {
    state.PauseTiming();
    auto exec = T::Executor::Create(plan);
    TIMR_CHECK(exec.ok());
    std::map<std::string, std::vector<T::Event>> inputs;
    inputs.emplace("S", left);
    inputs.emplace("R", right);
    state.ResumeTiming();
    auto out = exec.ValueOrDie()->RunBatch(std::move(inputs));
    TIMR_CHECK(out.ok());
    benchmark::DoNotOptimize(out.ValueOrDie().size());
  }
  state.SetItemsProcessed(state.iterations() * left.size());
}
BENCHMARK(BM_AntiSemiJoin)->Arg(1 << 13)->Arg(1 << 15);

// Full BT pipeline, engine-only (the Figure 15 multiplier): the feature
// pipeline over a scaled-down week log through one embedded engine. items =
// engine events consumed, matching the paper's per-machine metric.
void BM_BtPipeline(benchmark::State& state) {
  workload::GeneratorConfig wcfg;
  wcfg.num_users = 300;
  wcfg.vocab_size = 20000;
  wcfg.duration = 7 * T::kDay;
  wcfg.num_ad_classes = 10;
  auto log = workload::GenerateBtLog(wcfg);
  bt::BtQueryConfig cfg = benchutil::BenchBtConfig();
  auto plan = bt::GenTrainData(bt::BotElimination(bt::BtInput(), cfg), cfg).node();
  uint64_t consumed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto exec = T::Executor::Create(plan);
    TIMR_CHECK(exec.ok());
    std::map<std::string, std::vector<T::Event>> inputs;
    inputs.emplace(bt::kBtInput, log.events);
    state.ResumeTiming();
    auto out = exec.ValueOrDie()->RunBatch(std::move(inputs));
    TIMR_CHECK(out.ok());
    consumed = exec.ValueOrDie()->TotalEventsConsumed();
    benchmark::DoNotOptimize(out.ValueOrDie().size());
  }
  state.SetItemsProcessed(state.iterations() * consumed);
}
BENCHMARK(BM_BtPipeline)->Unit(benchmark::kMillisecond);

// Live per-event push: the BT feature pipeline as a LivePipeline (one engine
// per fragment), fed PushCti + PushEvent for every event of a week log of
// 500 users (the perfbench live_feed shape), as a live feed would. items =
// pushed events, so the rate is the per-event push throughput the live_feed
// latency rests on.
void BM_LivePush(benchmark::State& state) {
  workload::GeneratorConfig wcfg;
  wcfg.num_users = 500;
  wcfg.vocab_size = 20000;
  wcfg.duration = 7 * T::kDay;
  wcfg.num_ad_classes = 10;
  auto log = workload::GenerateBtLog(wcfg);
  auto plan =
      bt::BtFeaturePipeline(benchutil::BenchBtConfig(), bt::Annotation::kStandard)
          .node();
  for (auto _ : state) {
    state.PauseTiming();
    auto live = framework::LivePipeline::Create(plan);
    TIMR_CHECK(live.ok());
    std::vector<T::Event> feed = log.events;
    state.ResumeTiming();
    for (T::Event& e : feed) {
      live.ValueOrDie()->PushCti(e.le);
      TIMR_CHECK_OK(live.ValueOrDie()->PushEvent(bt::kBtInput, std::move(e)));
    }
    live.ValueOrDie()->Finish();
    benchmark::DoNotOptimize(live.ValueOrDie()->TakeOutput().size());
  }
  state.SetItemsProcessed(state.iterations() * log.events.size());
}
BENCHMARK(BM_LivePush)->Unit(benchmark::kMillisecond);

// ---- String-column paths. No BT workload has a string column, so these
// guard the costs a string cell moves: building one from a std::string
// allocates a shared rep (no small-string buffer), while copying one is a
// refcount bump. Keys are short ("k0".."k4095").

Schema StringKeyRowSchema() {
  return Schema::Of({{"Time", ValueType::kInt64},
                     {"Key", ValueType::kString},
                     {"Val", ValueType::kInt64}});
}

std::vector<Row> MakeStringKeyRows(int64_t n, int64_t keys, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value(i),
                    Value("k" + std::to_string(rng.UniformInt(0, keys - 1))),
                    Value(rng.UniformInt(0, 100))});
  }
  return rows;
}

// The process-mode shuffle codec: encode a partition of rows, then decode it
// (one string cell built per decoded row).
void BM_WireRowsRoundTrip(benchmark::State& state) {
  const std::vector<Row> rows = MakeStringKeyRows(state.range(0), 256, 9);
  for (auto _ : state) {
    mr::rpc::WireWriter writer;
    writer.Rows(rows);
    const std::string buf = writer.Take();
    mr::rpc::WireReader reader(buf);
    std::vector<Row> back;
    TIMR_CHECK(reader.Rows(&back));
    TIMR_CHECK_OK(reader.Finish("bench rows"));
    benchmark::DoNotOptimize(back.size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_WireRowsRoundTrip)->Arg(1 << 15);

// The reducer's row -> event ingest, which interns string columns.
void BM_EventsFromRows(benchmark::State& state) {
  const std::vector<Row> rows = MakeStringKeyRows(1 << 15, state.range(0), 10);
  const Schema schema = StringKeyRowSchema();
  for (auto _ : state) {
    auto events = T::EventsFromRows(schema, rows);
    TIMR_CHECK(events.ok());
    benchmark::DoNotOptimize(events.ValueOrDie().size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_EventsFromRows)->Arg(256);

void BM_GroupedCountStringKey(benchmark::State& state) {
  std::vector<T::Event> events;
  for (Row& row : MakeStringKeyRows(1 << 15, state.range(0), 11)) {
    const T::Timestamp t = row[0].AsInt64();
    events.push_back(
        T::Event::Point(t, {std::move(row[1]), std::move(row[2])}));
  }
  auto plan = T::Query::Input("S", Schema::Of({{"Key", ValueType::kString},
                                               {"Val", ValueType::kInt64}}))
                  .GroupApply({"Key"},
                              [](T::Query g) { return g.Window(512).Count(); })
                  .node();
  RunPlan(state, plan, events);
}
BENCHMARK(BM_GroupedCountStringKey)->Arg(16)->Arg(256)->Arg(4096);

/// Console output as usual, plus one TIMR_BENCH_JSON line per run.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return ConsoleReporter::ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      auto it = run.counters.find("items_per_second");
      const double items_per_second =
          it != run.counters.end() ? static_cast<double>(it->second) : 0.0;
      benchutil::JsonLine("bench_engine_micro")
          .Str("stage", run.benchmark_name())
          .Num("wall_seconds",
               run.GetAdjustedRealTime() /
                   benchmark::GetTimeUnitMultiplier(run.time_unit))
          .Num("events_per_second", items_per_second)
          .Append();
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
