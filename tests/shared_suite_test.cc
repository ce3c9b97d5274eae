// Shared-fragment suite execution (timr/suite.h, ROADMAP 5a): the merged
// 20-CQ BT job must produce byte-identical per-query output to independent
// RunPlan runs — with sharing on or off, under exchange elision, under
// randomized fault injection, and across a kill/resume — while actually
// executing the repeated bot-elimination / UBP prefixes once.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bt_test_util.h"
#include "click_log.h"
#include "bt/queries.h"
#include "bt/schema.h"
#include "bt/suite_runner.h"
#include "mr/checkpoint.h"
#include "mr/cluster.h"
#include "mr/fault.h"
#include "temporal/convert.h"
#include "temporal/event.h"
#include "temporal/executor.h"
#include "temporal/query.h"
#include "timr/suite.h"
#include "timr/timr.h"
#include "workload/generator.h"

namespace timr {
namespace {

using temporal::Event;
using temporal::PartitionSpec;
using temporal::Query;
using framework::RunPlanSuite;
using framework::SuiteOptions;
using framework::SuiteRunResult;

const workload::BtLog& SmallLog() {
  static const workload::BtLog log =
      workload::GenerateBtLog(testutil::SmallWorkload());
  return log;
}

std::map<std::string, mr::Dataset> SuiteStore() {
  std::map<std::string, mr::Dataset> store;
  Status s = bt::LoadBtSuiteStore(SmallLog().events, &store);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return store;
}

Result<SuiteRunResult> RunSuite(
    const std::vector<std::pair<std::string, temporal::PlanNodePtr>>& queries,
    const SuiteOptions& options = SuiteOptions(),
    mr::FaultInjector* injector = nullptr) {
  mr::LocalCluster cluster(/*num_machines=*/8);
  if (injector != nullptr) cluster.set_fault_injector(injector);
  auto store = SuiteStore();
  return RunPlanSuite(&cluster, queries, &store, options);
}

/// Each query run independently through RunPlan (fresh store and cluster so
/// the per-plan "frag_N" dataset names cannot collide), canonically sorted —
/// the reference RunPlanSuite must match byte-for-byte.
std::vector<std::vector<Event>> IndependentOutputs(
    const std::vector<std::pair<std::string, temporal::PlanNodePtr>>& queries,
    const framework::TimrOptions& options = framework::TimrOptions()) {
  std::vector<std::vector<Event>> outputs;
  for (const auto& [name, plan] : queries) {
    mr::LocalCluster cluster(/*num_machines=*/8);
    auto store = SuiteStore();
    auto run = framework::RunPlan(&cluster, plan, &store, options);
    EXPECT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    std::vector<Event> out;
    if (run.ok()) out = std::move(run.ValueOrDie().output);
    temporal::SortEventsCanonical(&out);
    outputs.push_back(std::move(out));
  }
  return outputs;
}

void ExpectOutputsIdentical(const std::vector<std::vector<Event>>& a,
                            const SuiteRunResult& b) {
  ASSERT_EQ(a.size(), b.outputs.size());
  for (size_t q = 0; q < a.size(); ++q) {
    SCOPED_TRACE("query " + b.query_names[q]);
    testutil::ExpectEventsIdentical(a[q], b.outputs[q]);
  }
}

TEST(SharedSuite, BtSuiteMatchesIndependentRunsBitIdentical) {
  const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());
  ASSERT_GE(queries.size(), 15u);

  auto run = RunSuite(queries);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const SuiteRunResult& res = run.ValueOrDie();

  // Sharing must actually kick in: the bot-elimination / UBP prefixes repeat
  // across the catalog, so at least one shared stage has >= 2 consumers and
  // rows that every consumer would otherwise have recomputed ran once.
  ASSERT_FALSE(res.shared.empty());
  size_t multi_consumer = 0;
  for (const auto& s : res.shared) {
    EXPECT_GE(s.occurrences, 2u) << s.dataset;
    if (s.num_consumers >= 2) ++multi_consumer;
  }
  EXPECT_GE(multi_consumer, 1u);
  EXPECT_GT(res.rows_executed_once, 0u);

  ExpectOutputsIdentical(IndependentOutputs(queries), res);
}

TEST(SharedSuite, SingleQuerySuiteMatchesRunPlan) {
  auto all = bt::BtCqSuite(testutil::SmallBtConfig());
  std::vector<std::pair<std::string, temporal::PlanNodePtr>> one(
      all.begin(), all.begin() + 1);

  auto run = RunSuite(one);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectOutputsIdentical(IndependentOutputs(one), run.ValueOrDie());
}

TEST(SharedSuite, SharingOnOffBitIdentical) {
  const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());

  SuiteOptions off;
  off.share_fragments = false;
  auto base = RunSuite(queries, off);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_TRUE(base.ValueOrDie().shared.empty());

  auto shared = RunSuite(queries);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_FALSE(shared.ValueOrDie().shared.empty());

  ExpectOutputsIdentical(base.ValueOrDie().outputs, shared.ValueOrDie());
}

// Structurally identical plans whose UDOs are opaque (impure: the fingerprint
// pass salts them by identity) must NOT merge — each query keeps its own copy
// of the UDO fragment, and outputs still match independent runs.
TEST(SharedSuite, OpaqueUdoFragmentsDoNotMerge) {
  auto make_query = [](int64_t offset) {
    return Query::Input(bt::kBtInput, bt::UnifiedSchema())
        .Exchange(PartitionSpec::ByTime(/*span_width=*/12 * temporal::kHour,
                                        /*overlap=*/7 * temporal::kHour))
        .Udo(
            6 * temporal::kHour, temporal::kHour,
            [offset](temporal::Timestamp, temporal::Timestamp,
                     const std::vector<Event>& active) -> std::vector<Row> {
              return {Row{Value(static_cast<int64_t>(active.size()) + offset)}};
            },
            Schema::Of({{"Cnt", ValueType::kInt64}}));
  };
  // Same offset: byte-identical structure and behavior, but the UDO bodies
  // are distinct opaque callables — exactly the case that must not merge.
  std::vector<std::pair<std::string, temporal::PlanNodePtr>> queries;
  queries.emplace_back("udo_a", make_query(0).node());
  queries.emplace_back("udo_b", make_query(0).node());

  auto run = RunSuite(queries);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.ValueOrDie().shared.empty());
  ExpectOutputsIdentical(IndependentOutputs(queries), run.ValueOrDie());
}

// The suite elides every query's redundant exchanges, as RunPlan does. Its
// outputs must equal each query's cut as annotated, run unelided, and it must
// not run more stages than those cuts together.
TEST(SharedSuite, BitIdenticalWithExchangeElision) {
  const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());

  std::vector<std::vector<Event>> unelided;
  size_t unelided_stages = 0;
  for (const auto& [name, plan] : queries) {
    mr::LocalCluster cluster(/*num_machines=*/8);
    auto store = SuiteStore();
    auto run = testutil::RunUnelided(&cluster, plan, &store,
                                     framework::TimrOptions());
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    unelided_stages += run.ValueOrDie().fragments.fragments.size();
    std::vector<Event> out = std::move(run.ValueOrDie().output);
    temporal::SortEventsCanonical(&out);
    unelided.push_back(std::move(out));
  }

  auto elided = RunSuite(queries);
  ASSERT_TRUE(elided.ok()) << elided.status().ToString();
  EXPECT_FALSE(elided.ValueOrDie().elided_exchanges.empty());
  EXPECT_LE(elided.ValueOrDie().num_stages, unelided_stages);
  ExpectOutputsIdentical(unelided, elided.ValueOrDie());
}

// The suite is one cut over every query: a query whose whole plan is shared
// writes its output where the sub-plan is computed, so no stage only copies
// a dataset the job itself produced into a query's output.
TEST(SharedSuite, NoFragmentOnlyCopiesADataset) {
  auto run = RunSuite(bt::BtCqSuite(testutil::SmallBtConfig()));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const framework::FragmentedPlan& cut = run.ValueOrDie().fragments;
  EXPECT_EQ(run.ValueOrDie().num_stages, cut.fragments.size());
  std::set<std::string> produced;
  for (const framework::Fragment& f : cut.fragments) produced.insert(f.name);
  for (const framework::Fragment& f : cut.fragments) {
    EXPECT_FALSE(f.root->kind == temporal::OpKind::kInput &&
                 produced.count(f.root->name) != 0)
        << f.name << " only copies " << f.root->name;
  }
}

// A temporally keyed shared producer: both queries share the per-span count.
// Its rows are clipped at span bounds, so a reader that re-windows them must
// recompute the count rather than read the clipped dataset; each output must
// equal the single-node engine's.
TEST(SharedSuite, TemporalSharedProducerMatchesSingleNode) {
  auto make_query = [](int64_t threshold, bool annotated) {
    Query input = Query::Input("ClickLog", testutil::ClickSchema());
    if (annotated) {
      input = input.Exchange(PartitionSpec::ByTime(
          /*span_width=*/2 * temporal::kHour, /*overlap=*/temporal::kHour));
    }
    return input.Window(30 * temporal::kMinute)
        .Count("Cnt")
        .WhereCmp("Cnt", temporal::CmpOp::kGt, Value(threshold))
        .Window(30 * temporal::kMinute)
        .Count("Cnt");
  };
  const std::vector<Event> clicks =
      testutil::MakeClicks(3000, 24 * temporal::kHour, 5, /*seed=*/23);
  std::vector<std::pair<std::string, temporal::PlanNodePtr>> queries;
  for (int64_t threshold : {3, 5}) {
    queries.emplace_back("over_" + std::to_string(threshold),
                         make_query(threshold, true).node());
  }

  mr::LocalCluster cluster(/*num_machines=*/8);
  std::map<std::string, mr::Dataset> store;
  store["ClickLog"] = mr::Dataset::FromRows(
      temporal::PointRowSchema(testutil::ClickSchema()),
      temporal::RowsFromEvents(clicks, false).ValueOrDie());
  auto run = RunPlanSuite(&cluster, queries, &store);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run.ValueOrDie().shared.empty());
  for (size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE(queries[q].first);
    auto single = temporal::Executor::Execute(
        make_query(q == 0 ? 3 : 5, false).node(), {{"ClickLog", clicks}});
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_TRUE(temporal::SameTemporalRelation(single.ValueOrDie(),
                                               run.ValueOrDie().outputs[q]));
  }
}

TEST(SharedSuite, BitIdenticalUnderChaosSeeds) {
  const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());

  auto clean = RunSuite(queries);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  for (uint64_t seed : {uint64_t{7}, uint64_t{19}}) {
    mr::ChaosInjector injector(mr::FaultPlan::AllKinds(
        seed, /*p=*/0.12, /*straggler_seconds=*/0.01));
    auto chaotic = RunSuite(queries, SuiteOptions(), &injector);
    ASSERT_TRUE(chaotic.ok())
        << "seed " << seed << ": " << chaotic.status().ToString();
    EXPECT_GT(injector.total_injected(), 0) << "seed " << seed;
    ExpectOutputsIdentical(clean.ValueOrDie().outputs, chaotic.ValueOrDie());
  }
}

// Kill the merged job after every stage in turn (every query output is a
// protected dataset in the checkpoint-cut check) and resume from the
// checkpoint: the restored-prefix run must still produce the clean suite's
// outputs exactly. Stages finish out of order but commit in order, so each
// kill leaves exactly its prefix of committed stages.
TEST(SharedSuite, KillAndResumeBitIdentical) {
  const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());

  auto clean = RunSuite(queries);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const int num_stages = static_cast<int>(clean.ValueOrDie().num_stages);
  ASSERT_GT(num_stages, 2);

  for (int kill_after = 1; kill_after <= num_stages; ++kill_after) {
    SCOPED_TRACE("kill after " + std::to_string(kill_after) + " stages");
    mr::CheckpointStore checkpoint;
    {
      SuiteOptions opts;
      opts.timr.job.checkpoint = &checkpoint;
      opts.timr.job.chaos_kill_after_stages = kill_after;
      auto killed = RunSuite(queries, opts);
      ASSERT_FALSE(killed.ok());
      EXPECT_NE(killed.status().message().find("chaos kill"),
                std::string::npos);
    }
    ASSERT_EQ(checkpoint.num_stages(), static_cast<size_t>(kill_after));

    SuiteOptions opts;
    opts.timr.job.checkpoint = &checkpoint;
    auto resumed = RunSuite(queries, opts);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    int recovered = 0;
    for (const auto& s : resumed.ValueOrDie().job_stats.stages) {
      if (s.recovered_from_checkpoint) ++recovered;
    }
    EXPECT_EQ(recovered, kill_after);
    ExpectOutputsIdentical(clean.ValueOrDie().outputs, resumed.ValueOrDie());
  }
}

bool AnyStagesOverlap(const mr::JobStats& stats) {
  for (size_t i = 0; i < stats.stages.size(); ++i) {
    for (size_t j = i + 1; j < stats.stages.size(); ++j) {
      const mr::StageStats& a = stats.stages[i];
      const mr::StageStats& b = stats.stages[j];
      if (a.start_seconds < b.end_seconds && b.start_seconds < a.end_seconds) {
        return true;
      }
    }
  }
  return false;
}

// The suite's stages that read shared datasets but not each other run side
// by side on a 4-thread cluster, and every output is byte-identical to a
// 1-thread cluster's run, whose stages run one after another in index order.
TEST(SharedSuite, IndependentStagesOverlapWithIdenticalOutput) {
  const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());
  std::vector<SuiteRunResult> runs;
  for (int threads : {1, 4}) {
    mr::LocalCluster cluster(/*num_machines=*/8, threads);
    auto store = SuiteStore();
    auto run = RunPlanSuite(&cluster, queries, &store);
    ASSERT_TRUE(run.ok()) << threads << ": " << run.status().ToString();
    runs.push_back(std::move(run).ValueOrDie());
  }
  const mr::JobStats& serial = runs[0].job_stats;
  ASSERT_EQ(serial.stages.size(), runs[0].num_stages);
  for (size_t i = 1; i < serial.stages.size(); ++i) {
    EXPECT_GE(serial.stages[i].start_seconds, serial.stages[i - 1].end_seconds)
        << serial.stages[i].name;
  }
  ASSERT_EQ(runs[1].job_stats.stages.size(), runs[1].num_stages);
  EXPECT_TRUE(AnyStagesOverlap(runs[1].job_stats))
      << runs[1].job_stats.ToString();
  ExpectOutputsIdentical(runs[0].outputs, runs[1]);
}

// bt_standard's cut is a chain: each stage reads its predecessor's output,
// so even on a 4-thread cluster its stages never overlap.
TEST(SharedSuite, BtStandardStagesNeverOverlap) {
  mr::LocalCluster cluster(/*num_machines=*/8, 4);
  auto store = SuiteStore();
  const auto plan = bt::BtFeaturePipeline(testutil::SmallBtConfig(),
                                          bt::Annotation::kStandard);
  auto run = framework::RunPlan(&cluster, plan.node(), &store);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const mr::JobStats& stats = run.ValueOrDie().job_stats;
  ASSERT_GT(stats.stages.size(), 2u);
  EXPECT_FALSE(AnyStagesOverlap(stats)) << stats.ToString();
}

// Adaptive skew-aware repartitioning composes with shared-fragment suite
// execution: on a Zipf-skewed log the merged BT suite splits at least one hot
// keyed shuffle while still sharing fragments, and every per-query output
// matches the skew-off merged run byte-for-byte.
TEST(SharedSuite, AdaptiveSkewOnOffBitIdentical) {
  const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());
  const workload::BtLog log =
      workload::GenerateBtLog(testutil::SkewedWorkload());

  auto run_suite = [&](const SuiteOptions& options) {
    mr::LocalCluster cluster(/*num_machines=*/8);
    std::map<std::string, mr::Dataset> store;
    Status s = bt::LoadBtSuiteStore(log.events, &store);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return RunPlanSuite(&cluster, queries, &store, options);
  };

  auto off = run_suite(SuiteOptions());
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  SuiteOptions skew;
  skew.timr.job.skew.adaptive_repartition = true;
  skew.timr.job.skew.skew_ratio_threshold = 2.0;
  skew.timr.job.skew.hot_key_fanout = 4;
  skew.timr.job.skew.min_partition_rows = 64;
  skew.timr.job.skew.sample_shift = 3;
  auto on = run_suite(skew);
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  int splits = 0;
  for (const auto& s : on.ValueOrDie().job_stats.stages) {
    splits += s.partitions_split;
  }
  EXPECT_GT(splits, 0);
  EXPECT_FALSE(on.ValueOrDie().shared.empty());

  ExpectOutputsIdentical(off.ValueOrDie().outputs, on.ValueOrDie());
}

TEST(SharedSuite, RejectsDuplicateQueryNames) {
  auto all = bt::BtCqSuite(testutil::SmallBtConfig());
  std::vector<std::pair<std::string, temporal::PlanNodePtr>> dup;
  dup.emplace_back("same", all[0].second);
  dup.emplace_back("same", all[1].second);
  auto run = RunSuite(dup);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("duplicate query name"),
            std::string::npos);
}

}  // namespace
}  // namespace timr
