// Tests for the static analysis passes (src/analysis/) and the runtime
// conformance checking behind TimrOptions::validate_streams.
//
// The four seeded corruptions from the verification plan each get a targeted
// test: wrong exchange key, too-narrow temporal span, cyclic fragment order,
// and a CTI regression at runtime. Every plan the repo actually runs (the BT
// pipeline in all annotation modes, the optimizer's outputs) must pass clean.

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/fragment_checks.h"
#include "analysis/plan_checks.h"
#include "bt/queries.h"
#include "bt/schema.h"
#include "mr/cluster.h"
#include "temporal/conformance.h"
#include "temporal/convert.h"
#include "temporal/executor.h"
#include "temporal/query.h"
#include "timr/fragments.h"
#include "timr/optimizer.h"
#include "timr/timr.h"

namespace timr::analysis {
namespace {

using framework::Fragment;
using framework::FragmentedPlan;
using framework::MakeFragments;
using temporal::AggregateSpec;
using temporal::ConformanceCheckOp;
using temporal::Event;
using temporal::EventBatch;
using temporal::kHour;
using temporal::OpKind;
using temporal::PartitionSpec;
using temporal::PlanNode;
using temporal::PlanNodePtr;
using temporal::Query;

const Schema kClickSchema = Schema::Of(
    {{"UserId", ValueType::kInt64}, {"AdId", ValueType::kInt64}});

Query ClickInput() { return Query::Input("Clicks", kClickSchema); }

bool HasErrorContaining(const AnalysisReport& report, const std::string& check,
                        const std::string& needle) {
  for (const Diagnostic& d : report.ForCheck(check)) {
    if (d.severity == Severity::kError &&
        d.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// "schema"
// ---------------------------------------------------------------------------

TEST(SchemaCheck, AcceptsWellFormedPlan) {
  auto plan = ClickInput()
                  .GroupApply({"AdId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  EXPECT_TRUE(CheckPlanSchemas(plan).ToStatus().ok());
}

// The Query builder CHECK-validates eagerly, so malformed nodes are built by
// hand — exactly what a buggy rewrite or deserializer would produce.
TEST(SchemaCheck, RejectsAggregateOverMissingColumn) {
  auto agg = std::make_shared<PlanNode>();
  agg->kind = OpKind::kAggregate;
  agg->children = {ClickInput().node()};
  agg->agg = AggregateSpec::Sum("NoSuchColumn");
  AnalysisReport report = CheckPlanSchemas(agg);
  EXPECT_TRUE(HasErrorContaining(report, "schema", "NoSuchColumn"))
      << report.ToString();
}

TEST(SchemaCheck, RejectsAggregateOverStringColumn) {
  Schema s = Schema::Of({{"Name", ValueType::kString}});
  auto agg = std::make_shared<PlanNode>();
  agg->kind = OpKind::kAggregate;
  agg->children = {Query::Input("S", s).node()};
  agg->agg = AggregateSpec::Sum("Name");
  AnalysisReport report = CheckPlanSchemas(agg);
  EXPECT_TRUE(HasErrorContaining(report, "schema", "numeric"))
      << report.ToString();
}

TEST(SchemaCheck, RejectsJoinKeyArityMismatch) {
  auto join = std::make_shared<PlanNode>();
  join->kind = OpKind::kTemporalJoin;
  join->children = {ClickInput().node(), ClickInput().node()};
  join->left_keys = {"UserId", "AdId"};
  join->right_keys = {"UserId"};
  AnalysisReport report = CheckPlanSchemas(join);
  EXPECT_TRUE(HasErrorContaining(report, "schema", "left key"))
      << report.ToString();
}

TEST(SchemaCheck, RejectsJoinKeyTypeMismatch) {
  Schema right = Schema::Of({{"UserId", ValueType::kString}});
  auto join = std::make_shared<PlanNode>();
  join->kind = OpKind::kTemporalJoin;
  join->children = {ClickInput().node(), Query::Input("R", right).node()};
  join->left_keys = {"UserId"};
  join->right_keys = {"UserId"};
  AnalysisReport report = CheckPlanSchemas(join);
  EXPECT_TRUE(HasErrorContaining(report, "schema", "never compare equal"))
      << report.ToString();
}

TEST(SchemaCheck, RejectsExchangeOnMissingColumn) {
  auto ex = std::make_shared<PlanNode>();
  ex->kind = OpKind::kExchange;
  ex->children = {ClickInput().node()};
  ex->exchange = PartitionSpec::ByKeys({"Ghost"});
  // Make the plan rooted above the exchange so the root rule doesn't fire.
  auto sel = std::make_shared<PlanNode>();
  sel->kind = OpKind::kSelect;
  sel->pred = [](const Row&) { return true; };
  sel->children = {ex};
  AnalysisReport report = CheckPlanSchemas(sel);
  EXPECT_TRUE(HasErrorContaining(report, "schema", "Ghost"))
      << report.ToString();
}

TEST(SchemaCheck, RejectsWrongArity) {
  auto uni = std::make_shared<PlanNode>();
  uni->kind = OpKind::kUnion;
  uni->children = {ClickInput().node()};  // needs two
  AnalysisReport report = CheckPlanSchemas(uni);
  EXPECT_TRUE(HasErrorContaining(report, "schema", "expects 2"))
      << report.ToString();
}

TEST(SchemaCheck, WarnsOnReservedColumnName) {
  Schema s = Schema::Of({{"Time", ValueType::kInt64}});
  AnalysisReport report = CheckPlanSchemas(Query::Input("S", s).node());
  EXPECT_FALSE(report.HasErrors());
  ASSERT_EQ(report.warning_count(), 1u) << report.ToString();
  EXPECT_NE(report.diagnostics[0].message.find("reserved"), std::string::npos);
}

// ---------------------------------------------------------------------------
// "exchange-placement" / "temporal-span" (seeded corruptions 1 and 2)
// ---------------------------------------------------------------------------

TEST(ExchangePlacement, RejectsKeysOutsideGroupingKey) {
  auto plan = ClickInput()
                  .Exchange(PartitionSpec::ByKeys({"AdId"}))
                  .GroupApply({"UserId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  AnalysisReport report = CheckExchangePlacement(plan);
  ASSERT_TRUE(HasErrorContaining(report, "exchange-placement", "subset"))
      << report.ToString();
  // The diagnostic names both the offending exchange and the constraining op.
  const Diagnostic d = report.ForCheck("exchange-placement")[0];
  EXPECT_NE(d.subject.find("{AdId}"), std::string::npos) << d.ToString();
  EXPECT_NE(d.message.find("GroupApply{UserId}"), std::string::npos)
      << d.ToString();
}

TEST(ExchangePlacement, AcceptsSubsetKeys) {
  // {UserId} is a subset of the grouping key {UserId, AdId}: every group is
  // fully contained in one partition (paper §III-A step 2).
  auto plan = ClickInput()
                  .Exchange(PartitionSpec::ByKeys({"UserId"}))
                  .GroupApply({"UserId", "AdId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  EXPECT_TRUE(CheckExchangePlacement(plan).ToStatus().ok());
}

TEST(ExchangePlacement, RejectsKeyedExchangeUnderGlobalAggregate) {
  auto plan = ClickInput()
                  .Exchange(PartitionSpec::ByKeys({"UserId"}))
                  .Window(kHour)
                  .Aggregate(AggregateSpec::Count("Cnt"))
                  .node();
  AnalysisReport report = CheckExchangePlacement(plan);
  EXPECT_TRUE(HasErrorContaining(report, "exchange-placement", "global"))
      << report.ToString();
}

TEST(ExchangePlacement, RejectsNarrowTemporalSpan) {
  auto plan = ClickInput()
                  .Exchange(PartitionSpec::ByTime(12 * kHour, kHour / 2))
                  .Window(6 * kHour)
                  .Aggregate(AggregateSpec::Count("Cnt"))
                  .node();
  AnalysisReport report = CheckExchangePlacement(plan);
  ASSERT_TRUE(HasErrorContaining(report, "temporal-span", "overlap"))
      << report.ToString();
  EXPECT_NE(report.ForCheck("temporal-span")[0].message.find("21600"),
            std::string::npos)
      << "diagnostic should quote the downstream window";
}

TEST(ExchangePlacement, AcceptsCoveringTemporalSpan) {
  auto plan = ClickInput()
                  .Exchange(PartitionSpec::ByTime(12 * kHour, 6 * kHour))
                  .Window(6 * kHour)
                  .Aggregate(AggregateSpec::Count("Cnt"))
                  .node();
  EXPECT_TRUE(CheckExchangePlacement(plan).ToStatus().ok());
}

TEST(ExchangePlacement, RejectsConflictingSpecsIntoOneFragment) {
  // Two different-keyed exchanges feeding the same Union violate footnote 1
  // (MakeFragments would reject this too; the checker names the nodes).
  Query source = ClickInput();
  Query left = source.Exchange(PartitionSpec::ByKeys({"UserId"}));
  Query right = source.Exchange(PartitionSpec::ByKeys({"AdId"}));
  auto plan = Query::Union(left, right)
                  .GroupApply({"UserId", "AdId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  AnalysisReport report = CheckExchangePlacement(plan);
  EXPECT_TRUE(HasErrorContaining(report, "exchange-placement", "footnote 1"))
      << report.ToString();
}

TEST(ExchangePlacement, TranslatesConstraintThroughJoinKeys) {
  // The join's right side renames the key column; a constraint above the join
  // must translate through left_keys[i] == right_keys[i] before it applies.
  Schema right_schema = Schema::Of(
      {{"Uid", ValueType::kInt64}, {"KwCount", ValueType::kInt64}});
  Query right = Query::Input("Profiles", right_schema)
                    .Exchange(PartitionSpec::ByKeys({"AdId"}));  // wrong
  Query left = ClickInput().Exchange(PartitionSpec::ByKeys({"UserId"}));
  auto plan = Query::TemporalJoin(left, right, {"UserId"}, {"Uid"})
                  .GroupApply({"UserId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  AnalysisReport report = CheckExchangePlacement(plan);
  // {AdId} on the right side violates the translated {Uid} constraint.
  EXPECT_TRUE(HasErrorContaining(report, "exchange-placement", "subset"))
      << report.ToString();
}

TEST(ExchangePlacement, RejectsRootExchange) {
  auto plan = ClickInput().Exchange(PartitionSpec::ByKeys({"UserId"})).node();
  AnalysisReport report = CheckExchangePlacement(plan);
  EXPECT_TRUE(HasErrorContaining(report, "exchange-placement", "root"))
      << report.ToString();
}

TEST(ExchangePlacement, RejectsExchangeInsideGroupSubplan) {
  auto plan = ClickInput()
                  .GroupApply({"UserId"},
                              [](Query g) {
                                return g.Exchange(
                                           PartitionSpec::ByKeys({"AdId"}))
                                    .Window(kHour)
                                    .Count();
                              })
                  .node();
  AnalysisReport report = CheckExchangePlacement(plan);
  EXPECT_TRUE(HasErrorContaining(report, "exchange-placement", "sub-plan"))
      << report.ToString();
}

// ---------------------------------------------------------------------------
// "split-exchange" (adaptive skew-aware repartitioning placement)
// ---------------------------------------------------------------------------

TEST(SplitExchange, AcceptsAdaptiveSplitOnKeyedExchange) {
  PartitionSpec spec = PartitionSpec::ByKeys({"UserId"});
  spec.adaptive_split = true;
  auto plan = ClickInput()
                  .Exchange(spec)
                  .GroupApply({"UserId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  EXPECT_TRUE(CheckSplitExchange(plan).ToStatus().ok());
  // And the full analyzer pipeline stays clean too.
  EXPECT_FALSE(AnalyzePlan(plan).HasErrors());
}

TEST(SplitExchange, RejectsAdaptiveSplitOnTemporalExchange) {
  // Overlapping temporal spans replicate boundary rows; hot-key splitting has
  // no lossless coalesce there, so opting in is a plan error.
  PartitionSpec spec = PartitionSpec::ByTime(12 * kHour, 6 * kHour);
  spec.adaptive_split = true;
  auto plan = ClickInput()
                  .Exchange(spec)
                  .Window(6 * kHour)
                  .Aggregate(AggregateSpec::Count("Cnt"))
                  .node();
  AnalysisReport report = CheckSplitExchange(plan);
  EXPECT_TRUE(HasErrorContaining(report, "split-exchange", "temporal"))
      << report.ToString();
}

TEST(SplitExchange, RejectsAdaptiveSplitOnSingletonExchange) {
  PartitionSpec spec = PartitionSpec::ByKeys({});
  spec.adaptive_split = true;
  auto plan = ClickInput()
                  .Exchange(spec)
                  .Window(kHour)
                  .Aggregate(AggregateSpec::Count("Cnt"))
                  .node();
  AnalysisReport report = CheckSplitExchange(plan);
  EXPECT_TRUE(HasErrorContaining(report, "split-exchange", "no keys"))
      << report.ToString();
}

// ---------------------------------------------------------------------------
// "determinism"
// ---------------------------------------------------------------------------

PlanNodePtr UdoOverUnion(bool order_insensitive) {
  Query a = ClickInput();
  Query b = Query::Input("Clicks2", kClickSchema);
  return Query::Union(a, b)
      .Udo(
          kHour, kHour,
          [](temporal::Timestamp, temporal::Timestamp,
             const std::vector<Event>& active) {
            std::vector<Row> out;
            if (!active.empty()) out.push_back(active.front().payload);
            return out;
          },
          kClickSchema, order_insensitive)
      .node();
}

TEST(DeterminismAudit, FlagsUndeclaredUdoOverMerge) {
  AnalysisReport report = CheckDeterminism(UdoOverUnion(false));
  ASSERT_EQ(report.warning_count(), 1u) << report.ToString();
  EXPECT_EQ(report.diagnostics[0].check, "determinism");
  EXPECT_FALSE(report.HasErrors()) << "audit findings are warnings";
}

TEST(DeterminismAudit, AcceptsDeclaredOrderInsensitiveUdo) {
  EXPECT_EQ(CheckDeterminism(UdoOverUnion(true)).diagnostics.size(), 0u);
}

TEST(DeterminismAudit, ExchangeBoundaryResetsOrderConcern) {
  // A shuffle re-sorts into the canonical order, so a UDO above an exchange
  // above a merge is fine.
  Query a = ClickInput();
  Query b = Query::Input("Clicks2", kClickSchema);
  auto plan = Query::Union(a, b)
                  .Exchange(PartitionSpec::ByKeys({"UserId"}))
                  .Udo(
                      kHour, kHour,
                      [](temporal::Timestamp, temporal::Timestamp,
                         const std::vector<Event>& active) {
                        std::vector<Row> out;
                        if (!active.empty()) out.push_back(active.front().payload);
                        return out;
                      },
                      kClickSchema)
                  .node();
  EXPECT_EQ(CheckDeterminism(plan).diagnostics.size(), 0u);
}

// ---------------------------------------------------------------------------
// "fragment-cut" (seeded corruption 3)
// ---------------------------------------------------------------------------

PlanNodePtr InputLeaf(const std::string& dataset, const Schema& schema) {
  auto n = std::make_shared<PlanNode>();
  n->kind = OpKind::kInput;
  n->name = dataset;
  n->input_schema = schema;
  return n;
}

TEST(FragmentCheck, AcceptsCutterOutput) {
  auto plan = bt::BtFeaturePipeline(bt::BtQueryConfig(),
                                    bt::Annotation::kStandard);
  auto frags = MakeFragments(plan.node());
  ASSERT_TRUE(frags.ok()) << frags.status().ToString();
  AnalysisReport report = CheckFragments(frags.ValueOrDie());
  EXPECT_TRUE(report.ToStatus().ok()) << report.ToString();
}

TEST(FragmentCheck, RejectsCyclicFragmentOrder) {
  Fragment consumer;
  consumer.name = "frag_1";
  consumer.root = InputLeaf("frag_0", kClickSchema);
  consumer.key = PartitionSpec::ByKeys({});
  consumer.inputs = {"frag_0"};
  consumer.input_is_external = {false};
  Fragment producer;
  producer.name = "frag_0";
  producer.root = InputLeaf("Clicks", kClickSchema);
  producer.key = PartitionSpec::ByKeys({});
  producer.inputs = {"Clicks"};
  producer.input_is_external = {true};
  FragmentedPlan plan;
  plan.fragments = {consumer, producer};  // inverted on purpose
  plan.output_dataset = "frag_0";
  AnalysisReport report = CheckFragments(plan);
  ASSERT_TRUE(HasErrorContaining(report, "fragment-cut", "cyclic"))
      << report.ToString();
  EXPECT_NE(report.ForCheck("fragment-cut")[0].subject.find("frag_1"),
            std::string::npos)
      << "diagnostic should name the offending fragment";
}

TEST(FragmentCheck, RejectsLeftoverExchangeInFragmentBody) {
  Fragment frag;
  frag.name = "frag_0";
  frag.root = ClickInput()
                  .Exchange(PartitionSpec::ByKeys({"UserId"}))
                  .Where([](const Row&) { return true; })
                  .node();
  frag.key = PartitionSpec::ByKeys({"UserId"});
  frag.inputs = {"Clicks"};
  frag.input_is_external = {true};
  FragmentedPlan plan;
  plan.fragments = {frag};
  plan.output_dataset = "frag_0";
  AnalysisReport report = CheckFragments(plan);
  EXPECT_TRUE(HasErrorContaining(report, "fragment-cut", "exchange-free"))
      << report.ToString();
}

TEST(FragmentCheck, RejectsOverlapBelowFragmentWindow) {
  Fragment frag;
  frag.name = "frag_0";
  frag.root = ClickInput()
                  .Window(6 * kHour)
                  .Aggregate(AggregateSpec::Count("Cnt"))
                  .node();
  frag.key = PartitionSpec::ByTime(12 * kHour, kHour);  // overlap < window
  frag.inputs = {"Clicks"};
  frag.input_is_external = {true};
  FragmentedPlan plan;
  plan.fragments = {frag};
  plan.output_dataset = "frag_0";
  AnalysisReport report = CheckFragments(plan);
  EXPECT_TRUE(HasErrorContaining(report, "fragment-cut", "max window"))
      << report.ToString();
}

TEST(FragmentCheck, RejectsUndeclaredInput) {
  Fragment frag;
  frag.name = "frag_0";
  frag.root = ClickInput().node();
  frag.key = PartitionSpec::ByKeys({});
  frag.inputs = {};  // plan reads "Clicks" but declares nothing
  FragmentedPlan plan;
  plan.fragments = {frag};
  plan.output_dataset = "frag_0";
  AnalysisReport report = CheckFragments(plan);
  EXPECT_TRUE(HasErrorContaining(report, "fragment-cut", "not declared"))
      << report.ToString();
}

TEST(StageCheck, AcceptsCompiledStage) {
  auto plan = ClickInput()
                  .Exchange(PartitionSpec::ByKeys({"AdId"}))
                  .GroupApply({"AdId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  auto frags = MakeFragments(plan);
  ASSERT_TRUE(frags.ok());
  const Fragment& frag = frags.ValueOrDie().fragments[0];
  auto stage = framework::CompileFragment(
      frag, {temporal::PointRowSchema(kClickSchema)}, 4,
      framework::TimrOptions(), {0, 0}, nullptr);
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  AnalysisReport report =
      CheckStage(frags.ValueOrDie(), 0, stage.ValueOrDie());
  EXPECT_TRUE(report.ToStatus().ok()) << report.ToString();
}

TEST(StageCheck, RejectsConsumingExternalSource) {
  auto plan = ClickInput()
                  .Exchange(PartitionSpec::ByKeys({"AdId"}))
                  .GroupApply({"AdId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  auto frags = MakeFragments(plan);
  ASSERT_TRUE(frags.ok());
  auto stage = framework::CompileFragment(
      frags.ValueOrDie().fragments[0],
      {temporal::PointRowSchema(kClickSchema)}, 4, framework::TimrOptions(),
      {0, 0}, nullptr);
  ASSERT_TRUE(stage.ok());
  mr::MRStage bad = stage.ValueOrDie();
  bad.consumable_inputs = {0};  // "Clicks" is an external source
  AnalysisReport report = CheckStage(frags.ValueOrDie(), 0, bad);
  EXPECT_TRUE(HasErrorContaining(report, "fragment-cut", "external"))
      << report.ToString();
}

TEST(StageCheck, RejectsConsumingDatasetReadLater) {
  // frag_0's output is read by both frag_1 and frag_2; frag_1 consuming it
  // would starve frag_2.
  Fragment base;
  base.name = "frag_0";
  base.root = ClickInput().node();
  base.key = PartitionSpec::ByKeys({});
  base.inputs = {"Clicks"};
  base.input_is_external = {true};
  auto reader = [](const std::string& name) {
    Fragment f;
    f.name = name;
    f.root = InputLeaf("frag_0", kClickSchema);
    f.key = PartitionSpec::ByKeys({});
    f.inputs = {"frag_0"};
    f.input_is_external = {false};
    return f;
  };
  FragmentedPlan plan;
  plan.fragments = {base, reader("frag_1"), reader("frag_2")};
  plan.output_dataset = "frag_2";

  mr::MRStage stage;
  stage.name = "frag_1";
  stage.inputs = {"frag_0"};
  stage.output = "frag_1";
  stage.num_partitions = 1;
  stage.partition_fn = mr::SinglePartition();
  stage.reducer = [](int, const std::vector<std::vector<Row>>&,
                     std::vector<Row>*) { return Status::OK(); };
  stage.consumable_inputs = {0};
  AnalysisReport report = CheckStage(plan, 1, stage);
  EXPECT_TRUE(HasErrorContaining(report, "fragment-cut", "last use"))
      << report.ToString();
}

// ---------------------------------------------------------------------------
// Runtime conformance (seeded corruption 4) and instrumentation.
// ---------------------------------------------------------------------------

TEST(ConformanceOp, CleanStreamPassesThrough) {
  ConformanceCheckOp check("edge");
  temporal::CollectorSink sink;
  check.AddOutput(&sink);
  check.OnBatch(EventBatch::Of(Event(1, 10, {Value(1)})));
  check.OnBatch(EventBatch::OfCti(5));
  check.OnBatch(EventBatch::Of(Event(5, 8, {Value(2)})));
  check.OnBatch(EventBatch::OfCti(temporal::kMaxTime));
  EXPECT_TRUE(check.violations().empty());
  EXPECT_EQ(sink.TakeEvents().size(), 2u);
}

TEST(ConformanceOp, RecordsEventBeforeCti) {
  ConformanceCheckOp check("frag_1/input:Clicks");
  temporal::CollectorSink sink;
  check.AddOutput(&sink);
  check.OnBatch(EventBatch::OfCti(10));
  check.OnBatch(EventBatch::Of(Event(5, 20, {Value(1)})));
  ASSERT_EQ(check.violations().size(), 1u);
  EXPECT_NE(check.violations()[0].find("precedes the last CTI"),
            std::string::npos);
  EXPECT_NE(check.violations()[0].find("frag_1/input:Clicks"),
            std::string::npos)
      << "violation must carry the operator's provenance label";
  EXPECT_TRUE(sink.TakeEvents().empty()) << "violating events are dropped";
}

TEST(ConformanceOp, RecordsCtiRegression) {
  ConformanceCheckOp check("edge");
  check.OnBatch(EventBatch::OfCti(10));
  check.OnBatch(EventBatch::OfCti(3));
  ASSERT_EQ(check.violations().size(), 1u);
  EXPECT_NE(check.violations()[0].find("CTI regressed from 10 to 3"),
            std::string::npos);
}

TEST(ConformanceOp, RecordsInvertedLifetime) {
  ConformanceCheckOp check("edge");
  // Member assignment: the Event constructor DCHECKs re > le.
  Event inverted;
  inverted.le = 10;
  inverted.re = 10;
  inverted.payload = {Value(1)};
  check.OnBatch(EventBatch::Of(std::move(inverted)));
  ASSERT_EQ(check.violations().size(), 1u);
  EXPECT_NE(check.violations()[0].find("empty or inverted"),
            std::string::npos);
}

TEST(Instrumentation, WrapsInputsAndRoot) {
  // Multicast source: one input leaf feeding both join sides must get exactly
  // one checker; plus one checker at the root.
  Query source = ClickInput();
  Query counts = source.GroupApply(
      {"UserId"}, [](Query g) { return g.Window(kHour).Count("Cnt"); });
  auto plan = Query::TemporalJoin(source, counts, {"UserId"}, {"UserId"})
                  .node();
  PlanNodePtr instrumented = InstrumentFragmentPlan("frag_0", plan);
  int checks = 0;
  for (PlanNode* node : temporal::CollectNodes(instrumented)) {
    if (node->kind == OpKind::kConformanceCheck) ++checks;
  }
  EXPECT_EQ(checks, 2);  // one shared input + the root
  ASSERT_EQ(instrumented->kind, OpKind::kConformanceCheck);
  EXPECT_EQ(instrumented->name, "frag_0/output");

  // Instrumentation must not change results or the original plan.
  std::vector<Event> events;
  for (int i = 0; i < 50; ++i) {
    events.push_back(Event::Point(i * 100, {Value(i % 5), Value(i % 3)}));
  }
  auto plain = temporal::Executor::Execute(plan, {{"Clicks", events}});
  auto checked =
      temporal::Executor::Execute(instrumented, {{"Clicks", events}});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_TRUE(temporal::SameTemporalRelation(plain.ValueOrDie(),
                                             checked.ValueOrDie()));
  for (PlanNode* node : temporal::CollectNodes(plan)) {
    EXPECT_NE(node->kind, OpKind::kConformanceCheck);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: Timr::RunPlan with validate_streams.
// ---------------------------------------------------------------------------

std::vector<Event> SomeClicks() {
  std::vector<Event> events;
  for (int i = 0; i < 200; ++i) {
    events.push_back(Event::Point(i * 60, {Value(i % 7), Value(i % 4)}));
  }
  return events;
}

PlanNodePtr CountPerAd() {
  return ClickInput()
      .Exchange(PartitionSpec::ByKeys({"AdId"}))
      .GroupApply({"AdId"},
                  [](Query g) { return g.Window(kHour).Count("Cnt"); })
      .node();
}

TEST(RunPlanValidation, ValidatedRunMatchesUnvalidated) {
  mr::LocalCluster cluster(4, 2);
  framework::TimrOptions with;
  with.validate_streams = true;
  framework::TimrOptions without;
  without.validate_streams = false;
  auto a = framework::RunPlanOnEvents(&cluster, CountPerAd(),
                                      {{"Clicks", {kClickSchema, SomeClicks()}}},
                                      with);
  auto b = framework::RunPlanOnEvents(&cluster, CountPerAd(),
                                      {{"Clicks", {kClickSchema, SomeClicks()}}},
                                      without);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(temporal::SameTemporalRelation(a.ValueOrDie().output,
                                             b.ValueOrDie().output));
}

TEST(RunPlanValidation, RejectsCorruptExchangeKeyBeforeRunning) {
  auto bad = ClickInput()
                 .Exchange(PartitionSpec::ByKeys({"AdId"}))
                 .GroupApply({"UserId"},
                             [](Query g) { return g.Window(kHour).Count(); })
                 .node();
  mr::LocalCluster cluster(4, 2);
  auto res = framework::RunPlanOnEvents(
      &cluster, bad, {{"Clicks", {kClickSchema, SomeClicks()}}});
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().ToString().find("exchange-placement"),
            std::string::npos)
      << res.status().ToString();
  // With validation off the bad plan runs (and silently splits groups) —
  // exactly the failure mode the static pass exists to prevent.
  framework::TimrOptions off;
  off.validate_streams = false;
  auto unchecked = framework::RunPlanOnEvents(
      &cluster, bad, {{"Clicks", {kClickSchema, SomeClicks()}}}, off);
  EXPECT_TRUE(unchecked.ok()) << unchecked.status().ToString();
}

// Corrupted intermediate data (an interval row whose REnd <= Time) must fail
// the consuming stage, not produce wrong output. The row pump
// (EventsFromRows) rejects it before the engine even starts — the
// ConformanceCheck operators behind it cover whatever the conversion layer
// cannot see (CTI discipline, operator output order).
TEST(RunPlanValidation, RejectsCorruptedRowsAtFragmentInput) {
  Schema row_schema = temporal::IntervalRowSchema(kClickSchema);
  std::vector<Row> rows = {
      {Value(100), Value(50), Value(1), Value(2)},  // REnd 50 < Time 100
  };
  std::map<std::string, mr::Dataset> store;
  store["Clicks"] =
      mr::Dataset::FromRows(std::move(row_schema), std::move(rows));
  auto plan = ClickInput()
                  .GroupApply({"AdId"},
                              [](Query g) { return g.Window(kHour).Count(); })
                  .node();
  mr::LocalCluster cluster(2, 2);
  auto res = framework::RunPlan(&cluster, plan, &store);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().ToString().find("empty lifetime"), std::string::npos)
      << res.status().ToString();
}

// The runtime half of validate_streams, end to end through the executor. An
// event below its source's CTI is refused at the edge (PushEvent returns
// Status::Invalid naming the source) and so never reaches the checker; a
// violation the edge does not police, an inverted lifetime, surfaces in
// Executor::ConformanceViolations with the checked edge's label.
TEST(Instrumentation, ExecutorReportsCtiViolationWithProvenance) {
  auto plan = ClickInput()
                  .Where([](const Row&) { return true; })
                  .node();
  PlanNodePtr instrumented = InstrumentFragmentPlan("frag_0", plan);
  auto exec = temporal::Executor::Create(instrumented);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec.ValueOrDie()->PushCti("Clicks", 100).ok());
  const Status below_cti = exec.ValueOrDie()->PushEvent(
      "Clicks", Event(5, 50, {Value(1), Value(2)}));
  EXPECT_EQ(below_cti.code(), StatusCode::kInvalid);
  EXPECT_NE(below_cti.ToString().find("Clicks"), std::string::npos)
      << below_cti.ToString();
  Event inverted;  // member assignment: the constructor DCHECKs re > le
  inverted.le = 120;
  inverted.re = 110;
  inverted.payload = {Value(1), Value(2)};
  ASSERT_TRUE(exec.ValueOrDie()->PushEvent("Clicks", inverted).ok());
  exec.ValueOrDie()->Finish();
  const std::vector<std::string> violations =
      exec.ValueOrDie()->ConformanceViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("frag_0/input:Clicks"), std::string::npos)
      << violations[0];
  EXPECT_NE(violations[0].find("empty or inverted lifetime"),
            std::string::npos)
      << violations[0];
}

// Every plan the repository ships must lint clean (warnings allowed).
TEST(Acceptance, AllBtPlansPassAnalysis) {
  for (auto mode : {bt::Annotation::kNone, bt::Annotation::kStandard,
                    bt::Annotation::kNaive}) {
    auto plan = bt::BtFeaturePipeline(bt::BtQueryConfig(), mode).node();
    AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.ToStatus().ok())
        << "mode " << static_cast<int>(mode) << ": " << report.ToString();
  }
}

}  // namespace
}  // namespace timr::analysis
