// timr_lint: run the static analysis passes (analysis/analyzer.h,
// analysis/properties.h, analysis/fingerprint.h) over a registry of named
// plans and print the diagnostics.
//
//   timr_lint                 lint every registered plan, print a summary
//   timr_lint <name>...       lint the named plans, print full reports
//   timr_lint --list          list registered plans
//   timr_lint --json          machine-readable per-target results on stdout
//   timr_lint --share-report  cross-query CSE report over the BT CQ suite
//                             (analysis/sharing.h) as JSON on stdout
//   timr_lint --skew-report   per-query skew-mitigation audit over the BT CQ
//                             suite: every keyed exchange, whether it opts
//                             into adaptive splitting, and a note for the
//                             ones a hot key could stall; JSON on stdout
//   timr_lint --runtime-report
//                             exchanges of the BT CQ suite ranked by
//                             estimated inter-process shuffle cost: wire
//                             bytes per input row under the mr/rpc.h
//                             tagged-cell row encoding, times the temporal
//                             replication factor; JSON on stdout
//   timr_lint --columnar-allowlist <file>
//                             override the expected-warning allowlist
//                             (default: columnar_allowlist.txt next to the
//                             binary; missing file = empty allowlist)
//
// Exit status (CI gates on it):
//   0  every target behaved as expected, no unexpected warnings
//   1  residual warnings on clean plans that are not allowlisted
//   2  errors: a clean plan drew an error, a seeded corruption was NOT
//      rejected, or a shipped plan regressed to the columnar row fallback
//      without an allowlist entry
//
// The corrupt_* entries are deliberately broken plans/artifacts that must be
// rejected with a diagnostic naming the offending node; everything else
// (including the full BT pipeline in all annotation modes) must pass.
//
// Each plan target also reports how many fragments of its cut read each
// external source (JSON: "source_readers"). bt_standard must read BtLog from
// one fragment, as annotated and as RunPlan cuts it after exchange elision: a
// second reader recomputes the bot-free stream.
//
// The allowlist file holds one "<target>:<subject>" entry per line ('#'
// comments); it acknowledges known row-path fallbacks (e.g. the z-score
// Project, which needs TwoProportionZ) so any *new* degradation fails CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/fingerprint.h"
#include "analysis/properties.h"
#include "analysis/sharing.h"
#include "bt/queries.h"
#include "bt/schema.h"
#include "mr/checkpoint.h"
#include "temporal/conformance.h"
#include "temporal/query.h"
#include "timr/fragments.h"
#include "timr/optimizer.h"

namespace {

using timr::Schema;
using timr::ValueType;
using timr::analysis::AnalysisReport;
using timr::analysis::Severity;
using timr::temporal::kHour;
using timr::temporal::OpKind;
using timr::temporal::PartitionSpec;
using timr::temporal::PlanNode;
using timr::temporal::PlanNodePtr;
using timr::temporal::Query;

struct LintTarget {
  std::string name;
  std::string description;
  bool expect_errors;
  std::function<AnalysisReport()> run;
  std::function<PlanNodePtr()> plan = nullptr;  // set for plan targets
};

const Schema kClickSchema = Schema::Of({{"UserId", ValueType::kInt64},
                                        {"AdId", ValueType::kInt64}});

Query ClickInput() { return Query::Input("Clicks", kClickSchema); }

/// Paper Example 1: per-ad running click count over a 6h window, annotated
/// with the {AdId} exchange of §III-A step 2.
PlanNodePtr RunningClickCount() {
  return ClickInput()
      .Exchange(PartitionSpec::ByKeys({"AdId"}))
      .GroupApply({"AdId"},
                  [](Query g) { return g.Window(6 * kHour).Count("Cnt"); })
      .node();
}

/// Two keyed fragments: {UserId, AdId} then coarser... deliberately the
/// *valid* direction (finer first is the one that breaks). The second
/// exchange is provably redundant (its input is already {UserId}-partitioned)
/// and property-driven elision collapses this to a single fragment.
PlanNodePtr TwoFragmentPipeline() {
  return ClickInput()
      .Exchange(PartitionSpec::ByKeys({"UserId"}))
      .GroupApply({"UserId", "AdId"},
                  [](Query g) { return g.Window(kHour).Count("PerAd"); })
      .Exchange(PartitionSpec::ByKeys({"UserId"}))
      .GroupApply({"UserId"},
                  [](Query g) { return g.Window(kHour).Count("Total"); })
      .node();
}

/// Seeded corruption 1: the exchange partitions by {AdId} but the downstream
/// GroupApply groups by {UserId} — a partition would see only a slice of each
/// user's events (violates paper §III-A step 2).
PlanNodePtr CorruptExchangeKey() {
  return ClickInput()
      .Exchange(PartitionSpec::ByKeys({"AdId"}))
      .GroupApply({"UserId"},
                  [](Query g) { return g.Window(kHour).Count("Cnt"); })
      .node();
}

/// Seeded corruption 2: temporal partitioning whose overlap (30min) is
/// narrower than the 6h window applied downstream — span-boundary events
/// would be lost (violates paper §III-B).
PlanNodePtr CorruptNarrowSpan() {
  return ClickInput()
      .Exchange(PartitionSpec::ByTime(12 * kHour, kHour / 2))
      .Window(6 * kHour)
      .Aggregate(timr::temporal::AggregateSpec::Count("Cnt"))
      .node();
}

/// Seeded corruption 3: a hand-built FragmentedPlan whose fragment order is
/// inverted — frag_1 reads frag_0's output, but frag_0 is listed *after* it
/// (an unordered/cyclic fragment DAG the cutter could never emit).
timr::framework::FragmentedPlan CorruptCyclicFragments() {
  using timr::framework::Fragment;
  auto input_leaf = [](const std::string& dataset) {
    auto n = std::make_shared<PlanNode>();
    n->kind = OpKind::kInput;
    n->name = dataset;
    n->input_schema = kClickSchema;
    return n;
  };
  Fragment consumer;
  consumer.name = "frag_1";
  consumer.root = input_leaf("frag_0");
  consumer.key = PartitionSpec::ByKeys({});
  consumer.inputs = {"frag_0"};
  consumer.input_is_external = {false};
  Fragment producer;
  producer.name = "frag_0";
  producer.root = input_leaf("Clicks");
  producer.key = PartitionSpec::ByKeys({});
  producer.inputs = {"Clicks"};
  producer.input_is_external = {true};
  timr::framework::FragmentedPlan plan;
  plan.fragments = {consumer, producer};  // wrong order on purpose
  plan.output_dataset = "frag_0";
  return plan;
}

/// Seeded corruption: adaptive hot-key splitting requested on a temporal
/// exchange. Overlapping spans replicate boundary rows, so sub-partitioned
/// hot keys have no lossless coalesce — analysis::CheckSplitExchange must
/// reject the placement before the job runs.
PlanNodePtr CorruptSplitExchange() {
  PartitionSpec spec = PartitionSpec::ByTime(12 * kHour, 6 * kHour);
  spec.adaptive_split = true;
  return ClickInput()
      .Exchange(spec)
      .Window(6 * kHour)
      .Aggregate(timr::temporal::AggregateSpec::Count("Cnt"))
      .node();
}

/// Seeded corruption 4: a stream whose CTI regresses and whose events travel
/// back before the last CTI, fed straight through a ConformanceCheck operator
/// (the runtime half of validate_streams).
AnalysisReport LintCtiRegression() {
  timr::temporal::ConformanceCheckOp check("corrupt/input:Clicks");
  timr::temporal::CollectorSink sink;
  check.AddOutput(&sink);
  using timr::temporal::Event;
  using timr::temporal::EventBatch;
  check.OnBatch(EventBatch::Of(Event(1, 10, {})));
  check.OnBatch(EventBatch::OfCti(8));
  check.OnBatch(EventBatch::Of(Event(5, 12, {})));  // LE 5 < CTI 8
  check.OnBatch(EventBatch::OfCti(3));              // CTI regression
  AnalysisReport report;
  for (const std::string& v : check.violations()) {
    timr::analysis::Diagnostic d;
    d.severity = Severity::kError;
    d.check = "conformance";
    d.message = v;  // already prefixed with the checked edge's label
    report.diagnostics.push_back(std::move(d));
  }
  return report;
}

/// Seeded corruption 5: a claimed fingerprint equality between two plans that
/// are NOT structurally equivalent — a simulated hash collision. The deep
/// comparator (the collision guard behind every fingerprint-based sharing
/// decision) must refute the claim.
AnalysisReport LintFingerprintCollision() {
  using timr::analysis::ComputeFingerprints;
  using timr::analysis::StructurallyEquivalent;
  const PlanNodePtr a =
      ClickInput().WhereCmp("AdId", timr::temporal::CmpOp::kEq, timr::Value(int64_t{7})).node();
  const PlanNodePtr b =
      ClickInput().WhereCmp("AdId", timr::temporal::CmpOp::kEq, timr::Value(int64_t{8})).node();
  const auto fa = ComputeFingerprints(a);
  const auto fb = ComputeFingerprints(b);
  AnalysisReport report;
  auto reject = [&report](const char* subject, std::string message) {
    report.diagnostics.push_back(timr::analysis::Diagnostic{
        Severity::kError, nullptr, subject, "fingerprint", std::move(message)});
  };
  // The corruption: assert the two fingerprints are interchangeable. Every
  // consumer must vet such a claim with the structural comparator, which
  // rejects it here (different literals).
  if (!StructurallyEquivalent(a.get(), b.get())) {
    reject("Select(AdId==7) vs Select(AdId==8)",
           "claimed fingerprint equality refuted by structural comparison: "
           "the plans differ in the compare literal");
  }
  // Sanity the other way: if the honest hashes also collided, that would be a
  // real hash-function failure worth its own error.
  if (fa.at(a.get()).hash == fb.at(b.get()).hash) {
    reject("Select(AdId==7) vs Select(AdId==8)",
           "distinct plans produced identical fingerprints (hash collision)");
  }
  return report;
}

/// Seeded corruption 6: a PropertyMap cached across a plan mutation. The
/// window is widened after inference, so the cached lifetime/max-window facts
/// are stale and ValidatePropertySnapshot must say so.
AnalysisReport LintStaleProperties() {
  const PlanNodePtr plan =
      ClickInput().Window(kHour).Count("Cnt").node();
  const timr::analysis::PropertyMap cached =
      timr::analysis::InferProperties(plan);
  // The corruption: mutate the plan while keeping the old map.
  PlanNode* alter = plan->children[0].get();
  alter->alter = timr::temporal::AlterLifetimeSpec::Window(2 * kHour);
  return timr::analysis::ValidatePropertySnapshot(plan, cached);
}

/// Estimated wire bytes per row crossing `exchange`, under the tagged-cell
/// row encoding workers ship shuffle partitions with (mr/rpc.h): an 8-byte
/// cell count, a 1-byte type tag per cell, 8 bytes per scalar, and
/// length-prefixed bytes for strings (16 assumed — the BT vocabulary's
/// typical keyword length). Rows on the wire carry the two interval
/// timestamps alongside the payload columns (temporal/convert.h's
/// IntervalRowSchema layout), so those are costed as two extra int64 cells.
timr::Result<size_t> EstimateWireRowBytes(const PlanNode* exchange) {
  if (exchange->children.empty()) {
    return timr::Status::Invalid(
        "runtime-report: exchange node has no input to cost");
  }
  const auto schema = exchange->children[0]->OutputSchema();
  if (!schema.ok()) return schema.status();
  size_t bytes = 8 + 2 * 9;  // cell count + Vs/Ve interval cells
  for (const auto& field : schema.ValueOrDie().fields()) {
    bytes += field.type == ValueType::kString ? size_t{25} : size_t{9};
  }
  return bytes;
}

/// Seeded corruption: the runtime-cost estimator pointed at an exchange with
/// no input — there is no schema to cost, and silently pricing it at zero
/// would rank a real shuffle below nothing. The estimator must refuse.
AnalysisReport LintCorruptRuntimeCost() {
  auto orphan = std::make_shared<PlanNode>();
  orphan->kind = OpKind::kExchange;
  orphan->exchange = PartitionSpec::ByKeys({"UserId"});
  AnalysisReport report;
  const auto est = EstimateWireRowBytes(orphan.get());
  if (!est.ok()) {
    report.diagnostics.push_back(timr::analysis::Diagnostic{
        Severity::kError, nullptr, "Exchange{UserId} (no input)",
        "runtime-report", est.status().ToString()});
  }
  return report;
}

/// Seeded corruption 7: a checkpoint whose cut does not match the resuming
/// plan — stage 0 released the dataset a post-resume fragment still reads,
/// and stage 1 was recorded under a different cut's name.
AnalysisReport LintCorruptCheckpointCut() {
  auto fragmented = timr::framework::MakeFragments(TwoFragmentPipeline());
  TIMR_CHECK(fragmented.ok()) << fragmented.status().ToString();
  const timr::framework::FragmentedPlan plan = fragmented.ValueOrDie();
  TIMR_CHECK(plan.fragments.size() == 2);
  timr::mr::CheckpointStore store;
  // Stage 0 claims to have released its own output — which fragment 1 (past
  // the resume point) still reads.
  TIMR_CHECK(store
                 .SaveStage(0, plan.fragments[0].name, {},
                            {plan.fragments[0].name})
                 .ok());
  // Stage 1 was checkpointed under a name from some other plan's cut.
  TIMR_CHECK(store.SaveStage(1, "some_other_cut", {}, {}).ok());
  AnalysisReport report =
      timr::analysis::CheckCheckpointCut(plan, store, /*resume_from=*/1);
  report.Absorb(
      timr::analysis::CheckCheckpointCut(plan, store, /*resume_from=*/2));
  return report;
}

/// Static passes plus the property/fingerprint layer plus fragment extraction
/// and fragment checks, i.e. everything Timr::RunPlan would verify before
/// touching data — and, when the plan carries exchanges, the property-driven
/// elision path (whose internal placement cross-check turns a property-
/// inference bug into a hard error here rather than a wrong plan at run time).
AnalysisReport LintPlanAndFragments(const PlanNodePtr& plan) {
  AnalysisReport report = timr::analysis::AnalyzePlan(plan);
  if (report.HasErrors()) return report;

  // Property-layer passes: a freshly inferred snapshot must validate against
  // itself (pass self-test), and the warning-level audits run on every plan.
  report.Absorb(timr::analysis::ValidatePropertySnapshot(
      plan, timr::analysis::InferProperties(plan)));
  report.Absorb(timr::analysis::CheckColumnarDegradation(plan));
  report.Absorb(timr::analysis::CheckUdoConsistency(plan));

  auto lint_fragments = [&report](const PlanNodePtr& root) {
    auto fragmented = timr::framework::MakeFragments(root);
    if (!fragmented.ok()) {
      timr::analysis::Diagnostic d;
      d.subject = "<plan>";
      d.check = "fragment-cut";
      d.message =
          "fragment extraction failed: " + fragmented.status().ToString();
      report.diagnostics.push_back(std::move(d));
      return;
    }
    report.Absorb(timr::analysis::CheckFragments(fragmented.ValueOrDie()));
  };
  lint_fragments(plan);

  auto elided = timr::framework::ElideRedundantExchanges(plan);
  if (!elided.ok()) {
    timr::analysis::Diagnostic d;
    d.subject = "<plan>";
    d.check = "exchange-placement";
    d.message = "exchange elision failed: " + elided.status().ToString();
    report.diagnostics.push_back(std::move(d));
  } else if (!elided.ValueOrDie().elided.empty()) {
    lint_fragments(elided.ValueOrDie().plan);
  }
  return report;
}

/// How many fragments of `plan`'s cut read each external source (empty when
/// the cut fails; the fragment-cut check reports that).
std::map<std::string, size_t> SourceReaders(const PlanNodePtr& plan) {
  std::map<std::string, size_t> readers;
  auto cut = timr::framework::MakeFragments(plan);
  if (!cut.ok()) return readers;
  for (const auto& f : cut.ValueOrDie().fragments) {
    for (size_t i = 0; i < f.inputs.size(); ++i) {
      if (f.input_is_external[i]) ++readers[f.inputs[i]];
    }
  }
  return readers;
}

/// An error per source read by more than `limit` fragments: each extra
/// reader recomputes a sub-plan over the source.
AnalysisReport CheckSourceReaders(const PlanNodePtr& plan, size_t limit) {
  AnalysisReport report;
  for (const auto& [source, n] : SourceReaders(plan)) {
    if (n <= limit) continue;
    report.diagnostics.push_back(timr::analysis::Diagnostic{
        Severity::kError, nullptr, source, "source-reads",
        "read by " + std::to_string(n) + " fragments (limit " +
            std::to_string(limit) + "): a sub-plan over it is computed more "
            "than once"});
  }
  return report;
}

/// Seeded corruption: one per-ad count built twice, as a tree instead of a
/// shared node, so two fragments each read Clicks and compute the count.
PlanNodePtr RecomputedSource() {
  auto counts = [] {
    return ClickInput()
        .Exchange(PartitionSpec::ByKeys({"AdId"}))
        .GroupApply({"AdId"},
                    [](Query g) { return g.Window(6 * kHour).Count("Cnt"); });
  };
  Query busy = counts().WhereCmp("Cnt", timr::temporal::CmpOp::kGt,
                                 timr::Value(int64_t{2}));
  return Query::TemporalJoin(
             counts().Exchange(PartitionSpec::ByKeys({"AdId"})),
             busy.Exchange(PartitionSpec::ByKeys({"AdId"})), {"AdId"},
             {"AdId"})
      .node();
}

PlanNodePtr BtPipeline(timr::bt::Annotation annotation) {
  return timr::bt::BtFeaturePipeline(timr::bt::BtQueryConfig(), annotation)
      .node();
}

PlanNodePtr Elided(const PlanNodePtr& plan) {
  auto result = timr::framework::ElideRedundantExchanges(plan);
  TIMR_CHECK(result.ok()) << result.status().ToString();
  return result.ValueOrDie().plan;
}

PlanNodePtr BtOptimized() {
  auto plan = BtPipeline(timr::bt::Annotation::kNone);
  auto result = timr::framework::OptimizeAnnotation(
      plan, timr::framework::PlanStats(), timr::framework::OptimizerOptions());
  TIMR_CHECK(result.ok()) << result.status().ToString();
  return result.ValueOrDie().annotated_plan;
}

std::vector<LintTarget> Registry() {
  std::vector<LintTarget> targets;
  // `max_source_readers` > 0 caps the fragments reading any one source.
  auto add_plan = [&](std::string name, std::string description,
                      bool expect_errors, std::function<PlanNodePtr()> make,
                      size_t max_source_readers = 0) {
    targets.push_back(LintTarget{
        std::move(name), std::move(description), expect_errors,
        [make, max_source_readers] {
          const PlanNodePtr plan = make();
          AnalysisReport report = LintPlanAndFragments(plan);
          if (max_source_readers > 0) {
            report.Absorb(CheckSourceReaders(plan, max_source_readers));
          }
          return report;
        },
        make});
  };
  add_plan("running_click_count", "paper Example 1 with its {AdId} exchange",
           false, RunningClickCount);
  add_plan("two_fragment", "two stacked keyed fragments", false,
           TwoFragmentPipeline);
  // The standard plan computes the bot-free stream once: one BtLog reader.
  add_plan("bt_standard", "full BT pipeline, optimizer-style annotation",
           false, [] { return BtPipeline(timr::bt::Annotation::kStandard); },
           /*max_source_readers=*/1);
  // RunPlan elides redundant exchanges before it cuts: the plan it runs
  // still reads BtLog once.
  add_plan("bt_standard_elided", "bt_standard as RunPlan cuts it (elided)",
           false,
           [] { return Elided(BtPipeline(timr::bt::Annotation::kStandard)); },
           /*max_source_readers=*/1);
  add_plan("bt_naive", "full BT pipeline, Example 3's naive annotation", false,
           [] { return BtPipeline(timr::bt::Annotation::kNaive); });
  add_plan("bt_unannotated", "full BT pipeline, single-node form", false,
           [] { return BtPipeline(timr::bt::Annotation::kNone); });
  add_plan("bt_optimized", "full BT pipeline annotated by Algorithm 1", false,
           BtOptimized);
  add_plan("corrupt_exchange_key",
           "exchange keys disjoint from downstream grouping key", true,
           CorruptExchangeKey);
  add_plan("corrupt_narrow_span",
           "temporal overlap narrower than the downstream window", true,
           CorruptNarrowSpan);
  add_plan("corrupt_split_exchange",
           "adaptive_split on a temporal exchange (no lossless coalesce)",
           true, CorruptSplitExchange);
  add_plan("corrupt_recomputed_source",
           "a sub-plan built twice reads its source from two fragments", true,
           RecomputedSource, /*max_source_readers=*/1);
  targets.push_back(LintTarget{
      "corrupt_cyclic_fragments", "fragment DAG not in topological order",
      true, [] {
        return timr::analysis::CheckFragments(CorruptCyclicFragments());
      }});
  targets.push_back(LintTarget{"corrupt_cti_regression",
                               "stream with a regressing CTI", true,
                               LintCtiRegression});
  targets.push_back(LintTarget{"corrupt_fingerprint_collision",
                               "claimed fingerprint equality between "
                               "structurally different plans",
                               true, LintFingerprintCollision});
  targets.push_back(LintTarget{"corrupt_stale_properties",
                               "property snapshot cached across a plan "
                               "mutation",
                               true, LintStaleProperties});
  targets.push_back(LintTarget{"corrupt_checkpoint_cut",
                               "checkpoint misaligned with the resuming "
                               "plan's fragment cuts",
                               true, LintCorruptCheckpointCut});
  targets.push_back(LintTarget{"corrupt_runtime_cost",
                               "shuffle-cost estimate requested for an "
                               "exchange with no input",
                               true, LintCorruptRuntimeCost});
  return targets;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// "<target>:<subject>" entries acknowledging known warnings, one per line.
std::set<std::string> LoadAllowlist(const std::string& path) {
  std::set<std::string> allow;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
      line.pop_back();
    }
    size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    allow.insert(line.substr(start));
  }
  return allow;
}

struct TargetOutcome {
  bool as_expected = true;        // errors iff expected
  size_t residual_warnings = 0;   // warnings not in the allowlist
  size_t gate_failures = 0;       // unallowlisted columnar degradations
};

TargetOutcome Assess(const LintTarget& target, const AnalysisReport& report,
                     const std::set<std::string>& allowlist) {
  TargetOutcome out;
  out.as_expected = report.HasErrors() == target.expect_errors;
  if (target.expect_errors) return out;  // corruption targets: only the flip
  for (const auto& d : report.diagnostics) {
    if (d.severity != Severity::kWarning) continue;
    if (allowlist.count(target.name + ":" + d.subject) > 0) continue;
    if (d.check == "columnar-degradation") {
      ++out.gate_failures;  // shipped plan fell off the columnar path
    } else {
      ++out.residual_warnings;
    }
  }
  return out;
}

void PrintTargetJson(std::ostream& os, const LintTarget& target,
                     const AnalysisReport& report, const TargetOutcome& out,
                     bool last) {
  os << "  {\"name\": \"" << JsonEscape(target.name) << "\", "
     << "\"expect_errors\": " << (target.expect_errors ? "true" : "false")
     << ", \"as_expected\": " << (out.as_expected ? "true" : "false")
     << ", \"errors\": " << report.error_count()
     << ", \"warnings\": " << report.warning_count()
     << ", \"unallowlisted_columnar\": " << out.gate_failures;
  if (target.plan) {
    os << ", \"source_readers\": {";
    bool first = true;
    for (const auto& [source, n] : SourceReaders(target.plan())) {
      os << (first ? "" : ", ") << "\"" << JsonEscape(source) << "\": " << n;
      first = false;
    }
    os << "}";
  }
  os << ", \"diagnostics\": [";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const auto& d = report.diagnostics[i];
    if (i > 0) os << ", ";
    os << "{\"severity\": \"" << timr::analysis::SeverityName(d.severity)
       << "\", \"check\": \"" << JsonEscape(d.check) << "\", \"subject\": \""
       << JsonEscape(d.subject) << "\", \"message\": \""
       << JsonEscape(d.message) << "\"}";
  }
  os << "]}" << (last ? "" : ",") << "\n";
}

/// --skew-report: per-query audit of the shipped BT CQ suite for skew
/// exposure. Lists every keyed exchange and whether it opts into adaptive
/// skew-aware splitting; keyed exchanges without a split policy get a note —
/// they are exactly the shuffles one hot key can stall, and enabling
/// TimrOptions::job.skew (job-wide) or PartitionSpec::adaptive_split (per
/// exchange) mitigates that without changing output bytes.
std::string BuildSkewReportJson() {
  std::ostringstream os;
  size_t keyed = 0, with_policy = 0;
  os << "{\"queries\": [\n";
  const auto suite = timr::bt::BtCqSuite();
  for (size_t q = 0; q < suite.size(); ++q) {
    const auto& [name, plan] = suite[q];
    os << "  {\"query\": \"" << JsonEscape(name)
       << "\", \"keyed_exchanges\": [";
    bool first = true;
    for (const PlanNode* node : timr::temporal::CollectNodes(plan)) {
      if (node->kind != OpKind::kExchange) continue;
      if (node->exchange.kind != PartitionSpec::Kind::kKeys ||
          node->exchange.keys.empty()) {
        continue;
      }
      ++keyed;
      if (node->exchange.adaptive_split) ++with_policy;
      if (!first) os << ", ";
      first = false;
      os << "{\"spec\": \"" << JsonEscape(node->exchange.ToString())
         << "\", \"adaptive_split\": "
         << (node->exchange.adaptive_split ? "true" : "false");
      if (!node->exchange.adaptive_split) {
        os << ", \"note\": \"keyed exchange without a split policy: one hot "
              "key serializes this shuffle; enable TimrOptions::job.skew or "
              "PartitionSpec::adaptive_split to mitigate\"";
      }
      os << "}";
    }
    os << "]}" << (q + 1 == suite.size() ? "" : ",") << "\n";
  }
  os << "],\n\"keyed_exchanges\": " << keyed
     << ", \"with_split_policy\": " << with_policy << "}";
  return os.str();
}

/// --runtime-report: the BT CQ suite's exchanges ranked by estimated
/// inter-process shuffle cost. In multi-process mode (mr/driver.h) every
/// exchange ships its rows through the driver↔worker RPC twice — map buckets
/// up, reduce output back — so the ranking says which stages dominate the
/// wire and deserve partitioning attention first. Cost per input row is the
/// tagged-cell wire width times the temporal replication factor
/// ((span+overlap)/span for overlapping spans, 1 for keyed exchanges).
std::string BuildRuntimeReportJson() {
  struct Entry {
    std::string query;
    std::string spec;
    size_t row_bytes = 0;
    double replication = 1.0;
    double cost = 0.0;
  };
  std::vector<Entry> entries;
  size_t unestimated = 0;
  const auto suite = timr::bt::BtCqSuite();
  for (const auto& [name, plan] : suite) {
    for (const PlanNode* node : timr::temporal::CollectNodes(plan)) {
      if (node->kind != OpKind::kExchange) continue;
      const auto est = EstimateWireRowBytes(node);
      if (!est.ok()) {
        ++unestimated;
        continue;
      }
      Entry e;
      e.query = name;
      e.spec = node->exchange.ToString();
      e.row_bytes = est.ValueOrDie();
      if (node->exchange.kind == PartitionSpec::Kind::kTemporal &&
          node->exchange.span_width > 0) {
        e.replication =
            static_cast<double>(node->exchange.span_width +
                                node->exchange.overlap) /
            static_cast<double>(node->exchange.span_width);
      }
      e.cost = static_cast<double>(e.row_bytes) * e.replication;
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.query != b.query) return a.query < b.query;
    return a.spec < b.spec;
  });
  std::ostringstream os;
  os << "{\"stages\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    os << "  {\"query\": \"" << JsonEscape(e.query) << "\", \"exchange\": \""
       << JsonEscape(e.spec) << "\", \"wire_bytes_per_row\": " << e.row_bytes
       << ", \"replication\": " << e.replication
       << ", \"bytes_per_input_row\": " << e.cost << "}"
       << (i + 1 == entries.size() ? "" : ",") << "\n";
  }
  os << "],\n\"exchanges\": " << entries.size()
     << ", \"unestimated\": " << unestimated << "}";
  return os.str();
}

/// `extra_sections`, when non-empty, are folded into the JSON output as
/// siblings of the lint results — one well-formed document, not several
/// concatenated top-level values.
int RunTargets(const std::vector<LintTarget>& targets,
               const std::vector<std::string>& names,
               const std::set<std::string>& allowlist, bool json,
               const std::vector<std::pair<std::string, std::string>>&
                   extra_sections = {}) {
  std::vector<const LintTarget*> selected;
  for (const auto& target : targets) {
    if (names.empty() ||
        std::find(names.begin(), names.end(), target.name) != names.end()) {
      selected.push_back(&target);
    }
  }
  if (selected.empty()) {
    std::cerr << "no such plan; use --list\n";
    return 2;
  }

  size_t mismatches = 0, gate_failures = 0, residual_warnings = 0;
  if (json) {
    if (!extra_sections.empty()) {
      std::cout << "{\n";
      for (const auto& [key, value] : extra_sections) {
        std::cout << "\"" << key << "\": " << value << ",\n";
      }
      std::cout << "\"targets\": [\n";
    } else {
      std::cout << "[\n";
    }
  }
  for (size_t i = 0; i < selected.size(); ++i) {
    const LintTarget& target = *selected[i];
    const AnalysisReport report = target.run();
    const TargetOutcome out = Assess(target, report, allowlist);
    mismatches += out.as_expected ? 0 : 1;
    gate_failures += out.gate_failures;
    residual_warnings += out.residual_warnings;
    if (json) {
      PrintTargetJson(std::cout, target, report, out,
                      i + 1 == selected.size());
      continue;
    }
    const bool ok =
        out.as_expected && out.gate_failures == 0 && out.residual_warnings == 0;
    std::cout << (ok ? "PASS" : "FAIL") << "  " << target.name << " ("
              << report.error_count() << " error(s), "
              << report.warning_count() << " warning(s)"
              << (target.expect_errors ? ", errors expected" : "") << ")";
    if (target.plan) {
      for (const auto& [source, n] : SourceReaders(target.plan())) {
        std::cout << " " << source << " read by " << n << " fragment(s)";
      }
    }
    std::cout << "\n";
    if (!names.empty() || !ok) {
      for (const auto& d : report.diagnostics) {
        const bool allowed =
            d.severity == Severity::kWarning &&
            allowlist.count(target.name + ":" + d.subject) > 0;
        std::cout << "      " << d.ToString()
                  << (allowed ? "  [allowlisted]" : "") << "\n";
      }
    }
  }
  if (json) std::cout << (extra_sections.empty() ? "]\n" : "]\n}\n");

  if (mismatches > 0 && !json) {
    std::cout << mismatches << " plan(s) did not lint as expected\n";
  }
  if (gate_failures > 0 && !json) {
    std::cout << gate_failures
              << " columnar degradation(s) without an allowlist entry (add "
                 "\"<plan>:<subject>\" to the allowlist only if the row "
                 "fallback is intended)\n";
  }
  if (mismatches > 0 || gate_failures > 0) return 2;
  return residual_warnings > 0 ? 1 : 0;
}

std::string DefaultAllowlistPath(const char* argv0) {
  const std::string self(argv0);
  const size_t slash = self.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/columnar_allowlist.txt";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  std::string allowlist_path = DefaultAllowlistPath(argv[0]);
  bool json = false;
  bool list = false;
  bool share_report = false;
  bool skew_report = false;
  bool runtime_report = false;
  // Two passes: flags first, so flag order never changes behavior
  // (--share-report --json and --json --share-report are the same request).
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--share-report") == 0) {
      share_report = true;
    } else if (std::strcmp(arg, "--skew-report") == 0) {
      skew_report = true;
    } else if (std::strcmp(arg, "--runtime-report") == 0) {
      runtime_report = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--columnar-allowlist") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--columnar-allowlist needs a file argument\n";
        return 2;
      }
      allowlist_path = argv[++i];
    } else {
      names.emplace_back(arg);
    }
  }
  if (list) {
    for (const auto& t : Registry()) {
      std::cout << t.name << "  -  " << t.description
                << (t.expect_errors ? " [seeded corruption]" : "") << "\n";
    }
    return 0;
  }
  std::vector<std::pair<std::string, std::string>> extra_sections;
  if (share_report) {
    // The cross-query CSE report over every shipped BT CQ, as JSON (the CI
    // artifact; the input RunPlanSuite consumes via SelectSharedFragments).
    extra_sections.emplace_back(
        "share_report",
        timr::analysis::BuildShareReport(timr::bt::BtCqSuite()).ToJson());
  }
  if (skew_report) {
    extra_sections.emplace_back("skew_report", BuildSkewReportJson());
  }
  if (runtime_report) {
    extra_sections.emplace_back("runtime_report", BuildRuntimeReportJson());
  }
  if (!extra_sections.empty() && !json) {
    // Bare report(s): always exit 0 — an empty-but-clean report is a valid
    // answer, not a lint failure.
    for (const auto& [key, value] : extra_sections) {
      std::cout << value << "\n";
    }
    return 0;
  }
  return RunTargets(Registry(), names, LoadAllowlist(allowlist_path), json,
                    extra_sections);
}
