// TiMR framework tests: fragment extraction, M-R execution equivalence with
// single-node execution, temporal partitioning, failure-restart repeatability.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bt/queries.h"
#include "bt/schema.h"
#include "click_log.h"
#include "mr/cluster.h"
#include "temporal/convert.h"
#include "temporal/executor.h"
#include "temporal/query.h"
#include "timr/optimizer.h"
#include "timr/timr.h"

namespace timr::framework {
namespace {

using temporal::Event;
using temporal::Executor;
using temporal::kHour;
using temporal::PartitionSpec;
using temporal::Query;
using temporal::SameTemporalRelation;
using temporal::Timestamp;

using testutil::ClickSchema;
using testutil::MakeClicks;

// The paper's RunningClickCount (Example 1): per-ad click count over a
// 6-hour window, here annotated with an exchange on AdId (Figure 7).
Query RunningClickCount(bool annotated) {
  Query input = Query::Input("ClickLog", ClickSchema());
  if (annotated) input = input.Exchange(PartitionSpec::ByKeys({"AdId"}));
  return input.GroupApply(
      {"AdId"}, [](Query g) { return g.Window(6 * kHour).Count("ClickCount"); });
}

TEST(TimrFragments, SingleFragmentForRunningClickCount) {
  auto frags = MakeFragments(RunningClickCount(true).node());
  ASSERT_TRUE(frags.ok()) << frags.status().ToString();
  ASSERT_EQ(frags.ValueOrDie().fragments.size(), 1u);
  const Fragment& f = frags.ValueOrDie().fragments[0];
  EXPECT_EQ(f.key.keys, std::vector<std::string>{"AdId"});
  ASSERT_EQ(f.inputs.size(), 1u);
  EXPECT_EQ(f.inputs[0], "ClickLog");
  EXPECT_TRUE(f.input_is_external[0]);
}

TEST(TimrFragments, ConflictingKeysRejected) {
  Query input = Query::Input("S", ClickSchema());
  Query a = input.Exchange(PartitionSpec::ByKeys({"AdId"}));
  Query b = input.Exchange(PartitionSpec::ByKeys({"UserId"}));
  Query u = Query::Union(a, b);
  auto frags = MakeFragments(u.node());
  EXPECT_FALSE(frags.ok());
}

// A per-ad running count under an {AdId} exchange, so it is materialized as a
// fragment. The fragment that keeps the busy ads reaches the same count node
// without an exchange.
Query SharedCountPlan(bool annotated) {
  auto exchange = [annotated](Query q) {
    return annotated ? q.Exchange(PartitionSpec::ByKeys({"AdId"})) : q;
  };
  Query counts =
      exchange(Query::Input("ClickLog", ClickSchema()))
          .GroupApply({"AdId"},
                      [](Query g) { return g.Window(6 * kHour).Count("Cnt"); });
  Query busy = counts.WhereCmp("Cnt", temporal::CmpOp::kGt, Value(int64_t{2}));
  return Query::TemporalJoin(exchange(counts), exchange(busy), {"AdId"},
                             {"AdId"});
}

bool HasGroupApply(const temporal::PlanNodePtr& root) {
  for (const temporal::PlanNode* n : temporal::CollectNodes(root)) {
    if (n->kind == temporal::OpKind::kGroupApply) return true;
  }
  return false;
}

TEST(TimrFragments, MaterializedSubPlanIsReadNotRecomputed) {
  auto cut = MakeFragments(SharedCountPlan(true).node());
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  const std::vector<Fragment>& frags = cut.ValueOrDie().fragments;
  ASSERT_EQ(frags.size(), 3u);
  // Exactly one fragment computes the count, and only it reads the log.
  const Fragment* producer = nullptr;
  for (const Fragment& f : frags) {
    if (!HasGroupApply(f.root)) continue;
    ASSERT_EQ(producer, nullptr) << "count computed by two fragments";
    producer = &f;
  }
  ASSERT_NE(producer, nullptr);
  for (const Fragment& f : frags) {
    for (const std::string& input : f.inputs) {
      EXPECT_TRUE(input != "ClickLog" || &f == producer) << f.name;
    }
  }
  // The busy-ad fragment reads the producer's dataset under its key.
  const Fragment& reader = frags[1];
  ASSERT_NE(&reader, producer);
  EXPECT_EQ(reader.inputs, std::vector<std::string>{producer->name});
  EXPECT_EQ(reader.input_is_external, std::vector<bool>{false});
  EXPECT_EQ(reader.key.keys, std::vector<std::string>{"AdId"});

  auto clicks = MakeClicks(2000, 2 * 24 * kHour, 20, /*seed=*/19);
  auto single = Executor::Execute(SharedCountPlan(false).node(),
                                  {{"ClickLog", clicks}});
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  mr::LocalCluster cluster(8, 2);
  auto dist = RunPlanOnEvents(&cluster, SharedCountPlan(true).node(),
                              {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_GT(dist.ValueOrDie().output.size(), 0u);
  EXPECT_TRUE(
      SameTemporalRelation(single.ValueOrDie(), dist.ValueOrDie().output));
}

// Reading a materialized node brings its producer's key along, so a reader
// that also sits above an exchange on another key breaks footnote 1 just as
// the recomputed copy did.
TEST(TimrFragments, ReaderKeyConflictingWithProducerKeyRejected) {
  const PartitionSpec by_ad = PartitionSpec::ByKeys({"AdId"});
  Query counts =
      Query::Input("ClickLog", ClickSchema())
          .Exchange(by_ad)
          .GroupApply({"AdId"},
                      [](Query g) { return g.Window(6 * kHour).Count("Cnt"); });
  Query other = Query::Input("Other", counts.schema())
                    .Exchange(PartitionSpec::ByKeys({"Cnt"}));
  Query mixed = Query::Union(counts, other);
  Query plan = Query::Union(counts.Exchange(by_ad), mixed.Exchange(by_ad));
  auto cut = MakeFragments(plan.node());
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kInvalid);
  EXPECT_NE(cut.status().message().find("conflicting partitioning keys"),
            std::string::npos)
      << cut.status().ToString();
}

// The standard BT plan computes the bot-free stream once: one fragment reads
// the log, and the per-ad totals read that fragment's output.
TEST(TimrFragments, BtStandardReadsTheLogFromOneFragment) {
  auto cut = MakeFragments(
      bt::BtFeaturePipeline(bt::BtQueryConfig(), bt::Annotation::kStandard)
          .node());
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  int log_readers = 0;
  for (const Fragment& f : cut.ValueOrDie().fragments) {
    for (const std::string& input : f.inputs) log_readers += input == bt::kBtInput;
  }
  EXPECT_EQ(log_readers, 1);
}

TEST(TimrExec, MatchesSingleNodeExecution) {
  auto clicks = MakeClicks(2000, 2 * 24 * kHour, 20, /*seed=*/42);

  auto single = Executor::Execute(RunningClickCount(false).node(),
                                  {{"ClickLog", clicks}});
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  mr::LocalCluster cluster(/*num_machines=*/8, /*num_threads=*/2);
  auto dist = RunPlanOnEvents(&cluster, RunningClickCount(true).node(),
                              {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();

  EXPECT_GT(dist.ValueOrDie().output.size(), 0u);
  EXPECT_TRUE(
      SameTemporalRelation(single.ValueOrDie(), dist.ValueOrDie().output));
}

// A query with no payload partitioning key: global sliding-window count,
// scaled out by time spans (paper §III-B).
TEST(TimrExec, TemporalPartitioningMatchesSingleNode) {
  auto clicks = MakeClicks(3000, 24 * kHour, 5, /*seed=*/7);
  const Timestamp w = 30 * 60;  // 30-minute window, as in Figure 16

  Query plain = Query::Input("ClickLog", ClickSchema()).Window(w).Count();
  Query annotated =
      Query::Input("ClickLog", ClickSchema())
          .Exchange(PartitionSpec::ByTime(/*span_width=*/2 * kHour, w))
          .Window(w)
          .Count();

  auto single = Executor::Execute(plain.node(), {{"ClickLog", clicks}});
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  mr::LocalCluster cluster(8, 2);
  auto dist = RunPlanOnEvents(&cluster, annotated.node(),
                              {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_GT(dist.ValueOrDie().job_stats.stages[0].partitions, 1);
  EXPECT_TRUE(
      SameTemporalRelation(single.ValueOrDie(), dist.ValueOrDie().output));
}

// A temporally partitioned producer reached in place by a fragment whose
// window re-times the count's events. Keyless sliding count: every exchange
// partitions by time spans, with overlap for both windows.
TEST(TimrExec, TemporalProducerReachedInPlaceMatchesSingleNode) {
  auto clicks = MakeClicks(3000, 24 * kHour, 5, /*seed=*/23);
  const Timestamp w = 30 * 60;
  auto build = [w](bool annotated) {
    const PartitionSpec spans = PartitionSpec::ByTime(2 * kHour, 2 * w);
    auto exchange = [&](Query q) { return annotated ? q.Exchange(spans) : q; };
    Query counts =
        exchange(Query::Input("ClickLog", ClickSchema())).Window(w).Count("Cnt");
    Query busy = counts.WhereCmp("Cnt", temporal::CmpOp::kGt, Value(int64_t{3}))
                     .Window(w)
                     .Count("Cnt");
    return Query::Union(exchange(counts), exchange(busy));
  };
  auto single = Executor::Execute(build(false).node(), {{"ClickLog", clicks}});
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  mr::LocalCluster cluster(8, 2);
  auto dist = RunPlanOnEvents(&cluster, build(true).node(),
                              {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_GT(dist.ValueOrDie().job_stats.stages[0].partitions, 1);
  // Span-clipped rows would split the count's events under the second
  // window, so the busy fragment recomputes the count from the log.
  int log_readers = 0;
  for (const Fragment& f : dist.ValueOrDie().fragments.fragments) {
    for (const std::string& input : f.inputs) log_readers += input == "ClickLog";
  }
  EXPECT_EQ(log_readers, 2);
  EXPECT_TRUE(
      SameTemporalRelation(single.ValueOrDie(), dist.ValueOrDie().output));
}

// Restarting a reducer must reproduce identical output (paper §III-C.1):
// the temporal algebra plus canonical shuffle order make tasks deterministic.
TEST(TimrExec, ReducerRestartIsRepeatable) {
  auto clicks = MakeClicks(1000, 24 * kHour, 10, /*seed=*/3);

  mr::LocalCluster cluster(4, 2);
  auto baseline = RunPlanOnEvents(&cluster, RunningClickCount(true).node(),
                                  {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  mr::ScriptedFaultInjector injector;
  injector.InjectAt("frag_0", 0, 0, {mr::FaultKind::kDiscardOutput});
  injector.InjectAt("frag_0", 2, 0, {mr::FaultKind::kDiscardOutput});
  cluster.set_fault_injector(&injector);
  auto retried = RunPlanOnEvents(&cluster, RunningClickCount(true).node(),
                                 {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(injector.empty()) << "injected failures did not fire";
  EXPECT_GT(retried.ValueOrDie().job_stats.stages[0].retried_tasks, 0);

  // Identical, not merely equivalent: compare canonically sorted events.
  auto a = baseline.ValueOrDie().output;
  auto b = retried.ValueOrDie().output;
  temporal::SortEventsCanonical(&a);
  temporal::SortEventsCanonical(&b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].le, b[i].le);
    EXPECT_EQ(a[i].re, b[i].re);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

// A UDO that throws must surface as a structured Status at the task boundary
// — never a process abort. Each attempt's exception becomes kExecutionError;
// exhausting the retry budget yields kTaskFailed naming stage, partition, and
// attempt count with the underlying exception preserved in the message.
TEST(TimrExec, ThrowingUdoBecomesStatusNotAbort) {
  auto clicks = MakeClicks(500, 24 * kHour, 5, /*seed=*/13);

  Query q = Query::Input("ClickLog", ClickSchema())
                .Exchange(PartitionSpec::ByTime(/*span_width=*/12 * kHour,
                                                /*overlap=*/7 * kHour))
                .Udo(
                    6 * kHour, kHour,
                    [](Timestamp, Timestamp,
                       const std::vector<Event>&) -> std::vector<Row> {
                      throw std::runtime_error("udo boom");
                    },
                    Schema::Of({{"X", ValueType::kInt64}}));

  mr::LocalCluster cluster(4, 2);
  auto run = RunPlanOnEvents(&cluster, q.node(),
                             {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kTaskFailed)
      << run.status().ToString();
  const std::string& msg = run.status().message();
  EXPECT_NE(msg.find("frag_0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("after 3 attempts"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reducer threw: udo boom"), std::string::npos) << msg;
}

// One row whose Time cell is not int64, in a source that feeds a temporally
// partitioned fragment: the span scan before the stage must skip it, so the
// stage quarantines the row or fails with a Status instead of throwing.
std::map<std::string, mr::Dataset> StoreWithBadTimeCell() {
  auto rows = temporal::RowsFromEvents(MakeClicks(300, 20000, 5, /*seed=*/17),
                                       /*interval_layout=*/false)
                  .ValueOrDie();
  rows.push_back({Value("not-a-time"), Value(int64_t{1}), Value(int64_t{1})});
  std::map<std::string, mr::Dataset> store;
  store["ClickLog"] = mr::Dataset::FromRows(
      temporal::PointRowSchema(ClickSchema()), std::move(rows));
  return store;
}

Query TimeSpannedClickCount() {
  return Query::Input("ClickLog", ClickSchema())
      .Exchange(PartitionSpec::ByTime(/*span_width=*/1000, /*overlap=*/100))
      .Window(100)
      .Count();
}

TEST(TimrExec, BadTimeCellIsQuarantinedUnderTemporalExchange) {
  auto store = StoreWithBadTimeCell();
  TimrOptions options;
  options.fault_tolerance.quarantine_inputs = true;
  options.fault_tolerance.max_input_error_rate = 0.5;
  mr::LocalCluster cluster(4, 2);
  auto run = RunPlan(&cluster, TimeSpannedClickCount().node(), &store, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.ValueOrDie().job_stats.stages.size(), 1u);
  EXPECT_EQ(run.ValueOrDie().job_stats.stages[0].quarantined_rows, 1u);
  EXPECT_GT(run.ValueOrDie().output.size(), 0u);
}

TEST(TimrExec, BadTimeCellWithoutQuarantineIsStatus) {
  auto store = StoreWithBadTimeCell();
  mr::LocalCluster cluster(4, 2);
  auto run = RunPlan(&cluster, TimeSpannedClickCount().node(), &store,
                     TimrOptions());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kExecutionError)
      << run.status().ToString();
  EXPECT_NE(run.status().message().find("map phase threw"), std::string::npos)
      << run.status().ToString();
}

// Multi-stage plan: per-(user,ad) counts, then a per-ad aggregate over those —
// requires a repartition between fragments.
TEST(TimrExec, TwoFragmentPipeline) {
  auto clicks = MakeClicks(1500, 24 * kHour, 8, /*seed=*/11);

  auto build = [](bool annotated) {
    Query input = Query::Input("ClickLog", ClickSchema());
    if (annotated) {
      input = input.Exchange(PartitionSpec::ByKeys({"UserId", "AdId"}));
    }
    Query per_user_ad = input.GroupApply({"UserId", "AdId"}, [](Query g) {
      return g.Window(6 * kHour).Count("c");
    });
    if (annotated) {
      per_user_ad = per_user_ad.Exchange(PartitionSpec::ByKeys({"AdId"}));
    }
    return per_user_ad.GroupApply(
        {"AdId"}, [](Query g) { return g.Aggregate(
            temporal::AggregateSpec::Max("c", "max_user_clicks")); });
  };

  auto single =
      Executor::Execute(build(false).node(), {{"ClickLog", clicks}});
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  mr::LocalCluster cluster(8, 2);
  auto dist = RunPlanOnEvents(&cluster, build(true).node(),
                              {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ASSERT_EQ(dist.ValueOrDie().fragments.fragments.size(), 2u);
  EXPECT_TRUE(
      SameTemporalRelation(single.ValueOrDie(), dist.ValueOrDie().output));
}

// A source named like one of the plan's fragments ("frag_1") would be
// overwritten by that fragment's output mid-job and read back as the wrong
// dataset. The run must refuse it, with or without stream validation. The
// {AdId} exchange over the {UserId}-partitioned filter is not redundant, so
// the cut RunPlan makes after exchange elision still has a "frag_1".
TEST(TimrExec, SourceNamedLikeAFragmentIsRejected) {
  auto clicks = MakeClicks(2000, 24 * kHour, 8, /*seed=*/5);
  Query input = Query::Input("frag_1", ClickSchema());
  Query filtered =
      input.Exchange(PartitionSpec::ByKeys({"UserId"}))
          .WhereCmp("AdId", temporal::CmpOp::kLt, Value(int64_t{3}))
          .Exchange(PartitionSpec::ByKeys({"AdId"}));
  Query plan =
      Query::Union(filtered, input.Exchange(PartitionSpec::ByKeys({"AdId"})));
  auto elided = ElideRedundantExchanges(plan.node());
  ASSERT_TRUE(elided.ok()) << elided.status().ToString();
  EXPECT_TRUE(elided.ValueOrDie().elided.empty());
  auto frags = MakeFragments(elided.ValueOrDie().plan);
  ASSERT_TRUE(frags.ok()) << frags.status().ToString();
  bool named_like_a_fragment = false;
  for (const Fragment& f : frags.ValueOrDie().fragments) {
    named_like_a_fragment |= f.name == "frag_1";
  }
  ASSERT_TRUE(named_like_a_fragment);

  for (bool validate : {false, true}) {
    SCOPED_TRACE(validate ? "validate_streams" : "no validation");
    TimrOptions options;
    options.validate_streams = validate;
    mr::LocalCluster cluster(4, 2);
    auto dist = RunPlanOnEvents(&cluster, plan.node(),
                                {{"frag_1", {ClickSchema(), clicks}}}, options);
    ASSERT_FALSE(dist.ok());
    EXPECT_EQ(dist.status().code(), StatusCode::kInvalid)
        << dist.status().ToString();
    EXPECT_NE(dist.status().message().find("frag_1"), std::string::npos)
        << dist.status().ToString();
  }
}

}  // namespace
}  // namespace timr::framework
