// Tests for the property-inference / fingerprinting / sharing layer
// (src/analysis) and its feedback into execution (timr/optimizer.h exchange
// elision, checkpoint-cut validation, sorted-shuffle hint):
//
//  - dataflow rules: partitioning lattice, ordering, lifetime bounds,
//    statefulness, determinism class;
//  - Merkle fingerprints: canonicalization, independent-build equality,
//    opaque-closure impurity, UDO consistency;
//  - the cross-query CSE report over the BT CQ suite (ROADMAP item 5(a));
//  - exchange elision: structure, cross-check, and bit-identical output
//    through a real TiMR run (including the full BT pipeline);
//  - checkpoint-cut validity and stale-property detection;
//  - columnar-eligibility agreement: the analysis prediction must equal the
//    executor's observed ingest mode for every property-test plan and the BT
//    pipeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fingerprint.h"
#include "analysis/fragment_checks.h"
#include "analysis/properties.h"
#include "analysis/sharing.h"
#include "bt/queries.h"
#include "bt_test_util.h"
#include "mr/checkpoint.h"
#include "mr/cluster.h"
#include "property_plans.h"
#include "temporal/executor.h"
#include "timr/fragments.h"
#include "timr/optimizer.h"
#include "timr/timr.h"

namespace timr {
namespace {

using analysis::AnalysisReport;
using analysis::DeterminismClass;
using analysis::InferProperties;
using analysis::LifetimeBounds;
using analysis::NodeProperties;
using analysis::Ordering;
using analysis::Partitioning;
using analysis::PropertyMap;
using analysis::PropertyOptions;
using temporal::AlterLifetimeSpec;
using temporal::CmpOp;
using temporal::Event;
using temporal::kTick;
using temporal::PartitionSpec;
using temporal::PlanNodePtr;
using temporal::ProjectExpr;
using temporal::ProjectSpec;
using temporal::Query;
using temporal::Timestamp;
using testutil::MakePropertyPlan;
using testutil::PropertyPlanNames;
using testutil::PropertyPlanSchema;

Query KvInput(const std::string& name = "S") {
  return Query::Input(name, PropertyPlanSchema());
}

// ---------------------------------------------------------------------------
// Property inference: the dataflow rules.
// ---------------------------------------------------------------------------

TEST(PropertyInference, ExchangeEstablishesKeysAndCanonicalOrder) {
  Query q = KvInput().Exchange(PartitionSpec::ByKeys({"K"}));
  PropertyMap map = InferProperties(q.node());
  const NodeProperties& p = map.at(q.node().get());
  EXPECT_EQ(p.partitioning, Partitioning::Keys({"K"}));
  EXPECT_EQ(p.ordering, Ordering::kCanonical);
  EXPECT_EQ(p.determinism, DeterminismClass::kPure);
  // The source below the exchange knows nothing.
  const NodeProperties& src = map.at(q.node()->children[0].get());
  EXPECT_EQ(src.partitioning.kind, Partitioning::Kind::kArbitrary);
  EXPECT_EQ(src.ordering, Ordering::kLeOrdered);
}

// A keyed exchange that opts into adaptive hot-key splitting still delivers
// Keys partitioning: the split is whole-key (every row of a key lands in one
// virtual partition) and virtual partitions are coalesced back in canonical
// order before any consumer sees them — so downstream elision and
// exchange-placement reasoning stay sound.
TEST(PropertyInference, AdaptiveSplitExchangeStillEstablishesKeys) {
  PartitionSpec spec = PartitionSpec::ByKeys({"K"});
  spec.adaptive_split = true;
  Query q = KvInput().Exchange(spec);
  const NodeProperties p = InferProperties(q.node()).at(q.node().get());
  EXPECT_EQ(p.partitioning, Partitioning::Keys({"K"}));
  EXPECT_EQ(p.ordering, Ordering::kCanonical);
}

TEST(PropertyInference, EmptyKeyExchangeMeansSingleton) {
  Query q = KvInput().Exchange(PartitionSpec::ByKeys({}));
  PropertyMap map = InferProperties(q.node());
  EXPECT_EQ(map.at(q.node().get()).partitioning, Partitioning::Singleton());
}

TEST(PropertyInference, StructuredSelectPreservesEverything) {
  Query q = KvInput()
                .Exchange(PartitionSpec::ByKeys({"K"}))
                .WhereCmp("V", CmpOp::kGt, Value(int64_t{5}));
  const NodeProperties p = InferProperties(q.node()).at(q.node().get());
  EXPECT_EQ(p.partitioning, Partitioning::Keys({"K"}));
  EXPECT_EQ(p.ordering, Ordering::kCanonical);  // a filter keeps the order
  EXPECT_EQ(p.determinism, DeterminismClass::kPure);
  EXPECT_FALSE(p.stateful);
}

TEST(PropertyInference, OpaqueClosuresDowngradeDeterminism) {
  Query sel = KvInput().Where([](const Row& r) { return r[1].AsInt64() > 5; });
  EXPECT_EQ(InferProperties(sel.node()).at(sel.node().get()).determinism,
            DeterminismClass::kOpaqueDeterministic);

  Query udo_sensitive = KvInput().Udo(
      10, 5,
      [](Timestamp, Timestamp, const std::vector<Event>&) {
        return std::vector<Row>{};
      },
      Schema::Of({{"N", ValueType::kInt64}}), /*order_insensitive=*/false);
  EXPECT_EQ(
      InferProperties(udo_sensitive.node()).at(udo_sensitive.node().get())
          .determinism,
      DeterminismClass::kOrderSensitive);

  Query udo_insensitive = KvInput().Udo(
      10, 5,
      [](Timestamp, Timestamp, const std::vector<Event>&) {
        return std::vector<Row>{};
      },
      Schema::Of({{"N", ValueType::kInt64}}), /*order_insensitive=*/true);
  EXPECT_EQ(
      InferProperties(udo_insensitive.node()).at(udo_insensitive.node().get())
          .determinism,
      DeterminismClass::kOpaqueDeterministic);
}

TEST(PropertyInference, StructuredProjectionRenamesSurvivingKeys) {
  ProjectSpec spec;
  spec.exprs.push_back(ProjectExpr::Column("Key", 0));  // copies K
  spec.exprs.push_back(ProjectExpr::Column("Val", 1));
  Query q = KvInput()
                .Exchange(PartitionSpec::ByKeys({"K"}))
                .Project(std::move(spec));
  const NodeProperties p = InferProperties(q.node()).at(q.node().get());
  EXPECT_EQ(p.partitioning, Partitioning::Keys({"Key"}));
  // Payload rewritten: canonical (payload-inclusive) order no longer holds.
  EXPECT_EQ(p.ordering, Ordering::kLeOrdered);

  // An opaque projection destroys the key fact entirely.
  Schema out = Schema::Of({{"K", ValueType::kInt64}});
  Query opaque = KvInput()
                     .Exchange(PartitionSpec::ByKeys({"K"}))
                     .Project([](const Row& r) { return Row{r[0]}; }, out);
  const NodeProperties po = InferProperties(opaque.node()).at(opaque.node().get());
  EXPECT_EQ(po.partitioning.kind, Partitioning::Kind::kArbitrary);
  EXPECT_EQ(po.determinism, DeterminismClass::kOpaqueDeterministic);
}

TEST(PropertyInference, LifetimeBoundsFollowWindowing) {
  Query raw = KvInput();
  EXPECT_EQ(InferProperties(raw.node()).at(raw.node().get()).lifetime,
            (LifetimeBounds{kTick, temporal::kMaxTime}));

  Query win = KvInput().Window(10);
  const NodeProperties pw = InferProperties(win.node()).at(win.node().get());
  EXPECT_EQ(pw.lifetime, (LifetimeBounds{10, 10}));
  EXPECT_EQ(pw.max_window_below, 10);

  Query hop = KvInput().HoppingWindow(50, 10);
  EXPECT_EQ(InferProperties(hop.node()).at(hop.node().get()).lifetime,
            (LifetimeBounds{10, 60}));

  Query pt = KvInput().Window(10).ToPointEvents();
  EXPECT_EQ(InferProperties(pt.node()).at(pt.node().get()).lifetime,
            (LifetimeBounds{kTick, kTick}));

  // Aggregate snapshots lie inside some active event's lifetime.
  Query agg = KvInput().Window(25).Count();
  EXPECT_EQ(InferProperties(agg.node()).at(agg.node().get()).lifetime,
            (LifetimeBounds{kTick, 25}));
}

TEST(PropertyInference, GroupApplyPreservesCoarserKeyPartitioning) {
  Query q = KvInput()
                .Exchange(PartitionSpec::ByKeys({"K"}))
                .GroupApply({"K", "V"},
                            [](Query g) { return g.Window(30).Count(); });
  const NodeProperties p = InferProperties(q.node()).at(q.node().get());
  // {K} ⊆ {K, V}: groups never move between partitions, the fact survives.
  EXPECT_EQ(p.partitioning, Partitioning::Keys({"K"}));
  EXPECT_TRUE(p.stateful);
  EXPECT_TRUE(p.stateful_below);
  EXPECT_EQ(p.max_window_below, 30);

  // Partitioned by a non-grouping column: the fact does not survive.
  Query other = KvInput()
                    .Exchange(PartitionSpec::ByKeys({"V"}))
                    .GroupApply({"K"},
                                [](Query g) { return g.Window(30).Count(); });
  EXPECT_EQ(InferProperties(other.node()).at(other.node().get())
                .partitioning.kind,
            Partitioning::Kind::kArbitrary);
}

TEST(PropertyInference, SingletonSurvivesAggregationPipelines) {
  Query q = KvInput().Exchange(PartitionSpec::ByKeys({})).Window(10).Count();
  EXPECT_EQ(InferProperties(q.node()).at(q.node().get()).partitioning,
            Partitioning::Singleton());
  // Without the singleton exchange the aggregate's output keys are unknowable.
  Query free = KvInput().Window(10).Count();
  EXPECT_EQ(InferProperties(free.node()).at(free.node().get())
                .partitioning.kind,
            Partitioning::Kind::kArbitrary);
}

TEST(PropertyInference, TemporalPartitioningDiesAtLifetimeChanges) {
  Query ex = KvInput().Exchange(PartitionSpec::ByTime(100, 10));
  const NodeProperties pe = InferProperties(ex.node()).at(ex.node().get());
  EXPECT_EQ(pe.partitioning, Partitioning::TemporalSpans(100, 10));

  Query w = ex.Window(5);
  EXPECT_EQ(InferProperties(w.node()).at(w.node().get()).partitioning.kind,
            Partitioning::Kind::kArbitrary);
}

TEST(PropertyInference, CanonicalInputsOptionSeedsSourceOrdering) {
  Query q = KvInput();
  PropertyOptions opts;
  opts.canonical_inputs = true;
  EXPECT_EQ(InferProperties(q.node(), opts).at(q.node().get()).ordering,
            Ordering::kCanonical);
  EXPECT_EQ(InferProperties(q.node()).at(q.node().get()).ordering,
            Ordering::kLeOrdered);
}

// ---------------------------------------------------------------------------
// Fingerprints and structural equivalence.
// ---------------------------------------------------------------------------

Query StructuredPipeline(int64_t literal) {
  return KvInput()
      .WhereCmp("V", CmpOp::kGt, Value(literal))
      .GroupApply({"K"}, [](Query g) { return g.Window(30).Count(); });
}

TEST(Fingerprint, IndependentBuildsGetEqualPureFingerprints) {
  Query a = StructuredPipeline(25);
  Query b = StructuredPipeline(25);
  ASSERT_NE(a.node().get(), b.node().get());
  auto fa = analysis::ComputeFingerprints(a.node());
  auto fb = analysis::ComputeFingerprints(b.node());
  const auto& ra = fa.at(a.node().get());
  const auto& rb = fb.at(b.node().get());
  EXPECT_TRUE(ra.pure);
  EXPECT_TRUE(rb.pure);
  EXPECT_EQ(ra.hash, rb.hash);
  EXPECT_EQ(ra.num_ops, rb.num_ops);
  EXPECT_TRUE(analysis::StructurallyEquivalent(a.node().get(), b.node().get()));
}

TEST(Fingerprint, LiteralDifferencesChangeTheHash) {
  Query a = StructuredPipeline(25);
  Query b = StructuredPipeline(26);
  auto fa = analysis::ComputeFingerprints(a.node());
  auto fb = analysis::ComputeFingerprints(b.node());
  EXPECT_NE(fa.at(a.node().get()).hash, fb.at(b.node().get()).hash);
  EXPECT_FALSE(
      analysis::StructurallyEquivalent(a.node().get(), b.node().get()));
}

TEST(Fingerprint, ConjunctOrderIsCanonicalized) {
  temporal::SelectSpec ab;
  ab.conjuncts.push_back({0, CmpOp::kGt, Value(int64_t{1})});
  ab.conjuncts.push_back({1, CmpOp::kLt, Value(int64_t{9})});
  temporal::SelectSpec ba;
  ba.conjuncts.push_back({1, CmpOp::kLt, Value(int64_t{9})});
  ba.conjuncts.push_back({0, CmpOp::kGt, Value(int64_t{1})});
  Query qa = KvInput().Where(std::move(ab));
  Query qb = KvInput().Where(std::move(ba));
  auto fa = analysis::ComputeFingerprints(qa.node());
  auto fb = analysis::ComputeFingerprints(qb.node());
  EXPECT_EQ(fa.at(qa.node().get()).hash, fb.at(qb.node().get()).hash);
  EXPECT_TRUE(
      analysis::StructurallyEquivalent(qa.node().get(), qb.node().get()));
}

TEST(Fingerprint, OpaqueClosuresAreImpureAndSelfOnly) {
  auto build = [] {
    return KvInput().Where([](const Row& r) { return r[1].AsInt64() > 5; });
  };
  Query a = build();
  Query b = build();
  auto fa = analysis::ComputeFingerprints(a.node());
  auto fb = analysis::ComputeFingerprints(b.node());
  EXPECT_FALSE(fa.at(a.node().get()).pure);
  EXPECT_FALSE(fb.at(b.node().get()).pure);
  // Identity salt: textually identical closures never claim equivalence...
  EXPECT_NE(fa.at(a.node().get()).hash, fb.at(b.node().get()).hash);
  EXPECT_FALSE(
      analysis::StructurallyEquivalent(a.node().get(), b.node().get()));
  // ...but a node is always equivalent to itself (multicast sharing).
  EXPECT_TRUE(analysis::StructurallyEquivalent(a.node().get(), a.node().get()));
}

TEST(Fingerprint, UdoConsistencyFlagsContradictoryDeclarations) {
  auto fn = [](Timestamp, Timestamp, const std::vector<Event>&) {
    return std::vector<Row>{};
  };
  const Schema out = Schema::Of({{"N", ValueType::kInt64}});
  Query src = KvInput();  // shared feed: both UDOs see the same sub-DAG
  Query disagree = Query::Union(src.Udo(10, 5, fn, out, true),
                                src.Udo(10, 5, fn, out, false));
  AnalysisReport report = analysis::CheckUdoConsistency(disagree.node());
  EXPECT_FALSE(report.ForCheck("udo-consistency").empty());
  EXPECT_FALSE(report.HasErrors());  // warnings only

  Query agree = Query::Union(src.Udo(10, 5, fn, out, true),
                             src.Udo(10, 5, fn, out, true));
  EXPECT_TRUE(analysis::CheckUdoConsistency(agree.node())
                  .ForCheck("udo-consistency")
                  .empty());
}

// ---------------------------------------------------------------------------
// Cross-query CSE report (ROADMAP 5a input).
// ---------------------------------------------------------------------------

TEST(ShareReport, DisjointQueriesShareNothing) {
  std::vector<std::pair<std::string, PlanNodePtr>> queries;
  queries.emplace_back(
      "a", KvInput("A").WhereCmp("V", CmpOp::kGt, Value(int64_t{1})).node());
  queries.emplace_back(
      "b", KvInput("B").WhereCmp("V", CmpOp::kGt, Value(int64_t{2})).node());
  EXPECT_TRUE(analysis::BuildShareReport(queries).fragments.empty());
}

TEST(ShareReport, IdenticalQueriesShareTheirWholePlan) {
  std::vector<std::pair<std::string, PlanNodePtr>> queries;
  queries.emplace_back("a", StructuredPipeline(25).node());
  queries.emplace_back("b", StructuredPipeline(25).node());
  auto report = analysis::BuildShareReport(queries);
  ASSERT_EQ(report.fragments.size(), 1u);
  EXPECT_EQ(report.fragments[0].queries,
            (std::vector<std::string>{"a", "b"}));
  // The maximal fragment is the full pipeline, not some shared sub-prefix.
  auto fp = analysis::ComputeFingerprints(queries[0].second);
  EXPECT_EQ(report.fragments[0].hash, fp.at(queries[0].second.get()).hash);
}

TEST(ShareReport, BtSuiteExposesTheSharedPrefixes) {
  auto report = analysis::BuildShareReport(bt::BtCqSuite());
  ASSERT_FALSE(report.fragments.empty());

  auto has = [](const std::vector<std::string>& qs, const std::string& name) {
    for (const auto& q : qs) {
      if (q == name) return true;
    }
    return false;
  };
  bool bot_elim_prefix = false;   // bot elimination reused across consumers
  bool ubp_prefix = false;        // UBP sub-DAG shared into train_data
  for (const auto& frag : report.fragments) {
    // Invariants of every reported fragment.
    EXPECT_GE(frag.queries.size(), 2u);
    EXPECT_GE(frag.num_ops, 2u);
    EXPECT_GE(frag.occurrences, frag.queries.size());
    if (has(frag.queries, "bot_elimination") && has(frag.queries, "train_data")) {
      bot_elim_prefix = true;
    }
    if (has(frag.queries, "ubp") && has(frag.queries, "train_data")) {
      ubp_prefix = true;
    }
  }
  EXPECT_TRUE(bot_elim_prefix)
      << "bot-elimination prefix not reported as shared:\n"
      << report.ToString();
  EXPECT_TRUE(ubp_prefix) << "UBP prefix not reported as shared:\n"
                          << report.ToString();

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"shared_fragments\""), std::string::npos);
  EXPECT_NE(json.find("\"queries\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exchange elision: structure and execution feedback.
// ---------------------------------------------------------------------------

/// Input --Exchange{K}--> GroupApply{K} --Exchange{K}--> GroupApply{K}: the
/// second shuffle re-partitions a stream already partitioned by {K}.
Query RedundantSecondExchange() {
  return KvInput()
      .Exchange(PartitionSpec::ByKeys({"K"}))
      .GroupApply({"K"}, [](Query g) { return g.Window(10).Count("C1"); })
      .Exchange(PartitionSpec::ByKeys({"K"}))
      .GroupApply({"K"}, [](Query g) { return g.Window(10).Count("C2"); });
}

TEST(ExchangeElision, RemovesProvablyRedundantExchange) {
  Query q = RedundantSecondExchange();
  auto before = framework::MakeFragments(q.node());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.ValueOrDie().fragments.size(), 2u);

  auto elision = framework::ElideRedundantExchanges(q.node());
  ASSERT_TRUE(elision.ok()) << elision.status().ToString();
  EXPECT_EQ(elision.ValueOrDie().elided.size(), 1u);

  auto after = framework::MakeFragments(elision.ValueOrDie().plan);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().fragments.size(), 1u);
}

TEST(ExchangeElision, KeepsRequiredExchanges) {
  // The only exchange feeds an arbitrary-partitioned source: required.
  Query q = KvInput()
                .Exchange(PartitionSpec::ByKeys({"K"}))
                .GroupApply({"K"}, [](Query g) { return g.Window(10).Count(); });
  auto elision = framework::ElideRedundantExchanges(q.node());
  ASSERT_TRUE(elision.ok()) << elision.status().ToString();
  EXPECT_TRUE(elision.ValueOrDie().elided.empty());
  // The untouched clone is structurally identical to the input.
  auto fa = analysis::ComputeFingerprints(q.node());
  auto fb = analysis::ComputeFingerprints(elision.ValueOrDie().plan);
  EXPECT_EQ(fa.at(q.node().get()).hash,
            fb.at(elision.ValueOrDie().plan.get()).hash);
}

TEST(ExchangeElision, BtStandardPlanHasRedundantMaterializationExchanges) {
  auto elision = framework::ElideRedundantExchanges(
      bt::BtFeaturePipeline(testutil::SmallBtConfig(),
                            bt::Annotation::kStandard)
          .node());
  ASSERT_TRUE(elision.ok()) << elision.status().ToString();
  EXPECT_GE(elision.ValueOrDie().elided.size(), 1u)
      << "expected at least one provably-redundant exchange in the standard "
         "BT annotation";
}

TEST(ExchangeElision, RunPlanOutputIsBitIdentical) {
  // Deterministic synthetic point events (no RNG: fixed congruence).
  std::vector<Event> events;
  for (int64_t i = 0; i < 600; ++i) {
    const int64_t k = (i * 7) % 9;
    const int64_t v = (i * 13) % 101;
    const Timestamp t = (i * 37) % 480 + 1;
    events.push_back(Event::Point(t, Row{Value(k), Value(v)}));
  }
  std::map<std::string, std::pair<Schema, std::vector<Event>>> inputs;
  inputs["S"] = {PropertyPlanSchema(), events};

  // The unelided reference runs the plan's cut as annotated; RunPlan elides.
  mr::LocalCluster cluster(4, 2);
  std::map<std::string, mr::Dataset> store;
  store["S"] = mr::Dataset::FromRows(
      temporal::PointRowSchema(PropertyPlanSchema()),
      temporal::RowsFromEvents(events, false).ValueOrDie());
  auto a = testutil::RunUnelided(&cluster, RedundantSecondExchange().node(),
                                 &store, framework::TimrOptions());
  auto b = framework::RunPlanOnEvents(&cluster,
                                      RedundantSecondExchange().node(), inputs);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.ValueOrDie().elided_exchanges.size(), 1u);
  EXPECT_EQ(a.ValueOrDie().fragments.fragments.size(), 2u);
  EXPECT_EQ(b.ValueOrDie().fragments.fragments.size(), 1u);
  testutil::ExpectEventsIdentical(a.ValueOrDie().output,
                                  b.ValueOrDie().output);
}

TEST(ExchangeElision, BtJobOutputIsBitIdenticalUnderElisionAndSortHint) {
  testutil::BtRunConfig base;
  testutil::BtRun a = testutil::RunBtJob(base, testutil::RunUnelided);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();

  testutil::BtRun b = testutil::RunBtJob(base);
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  testutil::ExpectEventsIdentical(a.output, b.output);

  // Dropping the sorted-shuffle hint must only cost the defensive re-sort,
  // never change output.
  testutil::BtRunConfig resort;
  resort.options.assume_sorted_shuffle = false;
  testutil::BtRun c = testutil::RunBtJob(resort);
  ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  testutil::ExpectEventsIdentical(a.output, c.output);
}

// ---------------------------------------------------------------------------
// Checkpoint-cut validity and stale-property detection.
// ---------------------------------------------------------------------------

TEST(CheckpointCut, AcceptsAnAlignedPrefix) {
  auto plan = framework::MakeFragments(RedundantSecondExchange().node());
  ASSERT_TRUE(plan.ok());
  const framework::FragmentedPlan& frags = plan.ValueOrDie();
  ASSERT_EQ(frags.fragments.size(), 2u);

  mr::CheckpointStore store;
  ASSERT_TRUE(store.SaveStage(0, frags.fragments[0].name, {}, {}).ok());
  EXPECT_FALSE(analysis::CheckCheckpointCut(frags, store, 1).HasErrors());
  // Resuming from the very beginning is trivially fine too.
  EXPECT_FALSE(analysis::CheckCheckpointCut(frags, store, 0).HasErrors());
}

TEST(CheckpointCut, RejectsMisalignedOrOverReleasedCuts) {
  auto plan = framework::MakeFragments(RedundantSecondExchange().node());
  ASSERT_TRUE(plan.ok());
  const framework::FragmentedPlan& frags = plan.ValueOrDie();

  mr::CheckpointStore misaligned;
  ASSERT_TRUE(misaligned.SaveStage(0, "some_other_cut", {}, {}).ok());
  AnalysisReport r1 = analysis::CheckCheckpointCut(frags, misaligned, 1);
  EXPECT_TRUE(r1.HasErrors());
  EXPECT_FALSE(r1.ForCheck("checkpoint-cut").empty());

  // Stage 0 claims to have released its own output, which fragment 1 (past
  // the resume point) still reads.
  mr::CheckpointStore released;
  ASSERT_TRUE(released
                  .SaveStage(0, frags.fragments[0].name, {},
                             {frags.fragments[0].name})
                  .ok());
  EXPECT_TRUE(analysis::CheckCheckpointCut(frags, released, 1).HasErrors());

  // Resume index beyond the checkpointed prefix.
  EXPECT_TRUE(analysis::CheckCheckpointCut(frags, released, 2).HasErrors());
}

TEST(StaleProperties, DetectsPlanMutationAfterInference) {
  Query q = KvInput().Window(10).Count();
  PropertyMap cached = InferProperties(q.node());
  EXPECT_FALSE(
      analysis::ValidatePropertySnapshot(q.node(), cached).HasErrors());

  // Mutate the plan underneath the cached snapshot: widen the window.
  q.node()->children[0]->alter = AlterLifetimeSpec::Window(20);
  AnalysisReport report = analysis::ValidatePropertySnapshot(q.node(), cached);
  EXPECT_TRUE(report.HasErrors());
  EXPECT_FALSE(report.ForCheck("stale-properties").empty());
}

// ---------------------------------------------------------------------------
// Columnar eligibility: warnings and executor agreement.
// ---------------------------------------------------------------------------

TEST(ColumnarDegradation, WarnsOnOpaqueClosuresOnly) {
  AnalysisReport opaque =
      analysis::CheckColumnarDegradation(MakePropertyPlan("select").node());
  EXPECT_FALSE(opaque.ForCheck("columnar-degradation").empty());
  EXPECT_FALSE(opaque.HasErrors());  // degradation is never fatal

  AnalysisReport spec = analysis::CheckColumnarDegradation(
      MakePropertyPlan("select_spec").node());
  EXPECT_TRUE(spec.diagnostics.empty());
}

/// The satellite acceptance check: for every kInput node the analysis's
/// columnar-ingest prediction must equal the executor's observed build-time
/// decision — the two must share one gating function, not two copies.
void ExpectColumnarAgreement(const std::string& label,
                             const PlanNodePtr& root) {
  PropertyMap props = InferProperties(root);
  auto exec = temporal::Executor::Create(root);
  ASSERT_TRUE(exec.ok()) << label << ": " << exec.status().ToString();
  ASSERT_FALSE(props.columnar_ingest.empty()) << label;
  for (const auto& [node, predicted] : props.columnar_ingest) {
    auto observed = exec.ValueOrDie()->InputPrefersColumnar(node->name);
    ASSERT_TRUE(observed.ok())
        << label << "/" << node->name << ": " << observed.status().ToString();
    EXPECT_EQ(predicted, observed.ValueOrDie())
        << label << ": prediction disagrees with the executor for input "
        << node->name;
  }
}

TEST(ColumnarAgreement, PredictionMatchesExecutorForAllPropertyPlans) {
  for (const std::string& name : PropertyPlanNames()) {
    ExpectColumnarAgreement(name, MakePropertyPlan(name).node());
  }
}

TEST(ColumnarAgreement, PredictionMatchesExecutorForTheBtPipeline) {
  // The exchange-free form runs on a single embedded engine, so the whole
  // pipeline's ingest decision is observable on one executor.
  ExpectColumnarAgreement(
      "bt_unannotated",
      bt::BtFeaturePipeline(testutil::SmallBtConfig(), bt::Annotation::kNone)
          .node());
}

}  // namespace
}  // namespace timr
