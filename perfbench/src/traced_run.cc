#include "traced_run.h"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "analysis/fragment_checks.h"
#include "analysis/sharing.h"
#include "mr/rpc.h"
#include "temporal/convert.h"
#include "temporal/executor.h"
#include "timr/fragments.h"

namespace perfbench {

using timr::Result;
using timr::Row;
using timr::Schema;
using timr::Status;
using timr::framework::Fragment;
using timr::framework::FragmentedPlan;
using timr::framework::TimrOptions;
using timr::temporal::Event;
using timr::temporal::PartitionSpec;
using timr::temporal::PlanNode;
using timr::temporal::PlanNodePtr;
using timr::temporal::Timestamp;
namespace mr = timr::mr;
namespace temporal = timr::temporal;

namespace {

/// The owned output interval of temporal span `i` (the clip TiMR's reducer
/// applies, paper §III-B).
std::pair<Timestamp, Timestamp> OwnedInterval(Timestamp base, Timestamp width,
                                              int num_spans, int i) {
  const Timestamp lo = base + width * i;
  const Timestamp hi = i + 1 == num_spans ? temporal::kMaxTime : base + width * (i + 1);
  return {lo, hi};
}

/// TiMR's reducer (timr.cc CompileFragment) with a span around each call.
mr::ReducerFn TracedPump(const TraceContext& ctx, uint64_t stage_span,
                         const Fragment& fragment,
                         const std::vector<Schema>& row_schemas,
                         const TimrOptions& options, int num_partitions,
                         Timestamp span_base) {
  const PlanNodePtr plan =
      options.validate_streams
          ? timr::analysis::InstrumentFragmentPlan(fragment.name, fragment.root)
          : fragment.root;
  const bool temporal_key = fragment.key.kind == PartitionSpec::Kind::kTemporal;
  const Timestamp span_width = std::max<Timestamp>(1, fragment.key.span_width);
  return [ctx, stage_span, plan, names = fragment.inputs, row_schemas, options,
          num_partitions, temporal_key, span_base,
          span_width](int partition, const std::vector<std::vector<Row>>& inputs,
                      std::vector<Row>* output) -> Status {
    std::map<std::string, std::vector<Event>> event_inputs;
    {
      Span s(ctx.tracer, "temporal.decode", stage_span, ctx.job);
      for (size_t i = 0; i < inputs.size(); ++i) {
        TIMR_ASSIGN_OR_RETURN(event_inputs[names[i]],
                              temporal::EventsFromRows(row_schemas[i], inputs[i]));
      }
    }
    std::unique_ptr<temporal::Executor> exec;
    {
      Span s(ctx.tracer, "temporal.create", stage_span, ctx.job);
      TIMR_ASSIGN_OR_RETURN(exec, temporal::Executor::Create(plan));
      if (options.engine_batch_size != 0) exec->set_batch_size(options.engine_batch_size);
      exec->set_columnar(options.engine_columnar);
      exec->set_cti_thinning(options.cti_thinning);
      exec->set_assume_sorted_inputs(options.assume_sorted_shuffle);
    }
    std::vector<Event> result;
    {
      Span s(ctx.tracer, "temporal.engine", stage_span, ctx.job);
      TIMR_ASSIGN_OR_RETURN(result, exec->RunBatch(std::move(event_inputs)));
      s.set_count(exec->TotalEventsConsumed());
    }
    const std::vector<std::string> violations = exec->ConformanceViolations();
    if (!violations.empty()) {
      std::ostringstream os;
      os << "stream conformance violated in partition " << partition << ":";
      for (const std::string& v : violations) os << "\n  " << v;
      return Status::ExecutionError(os.str());
    }
    if (temporal_key) {
      auto [lo, hi] = OwnedInterval(span_base, span_width, num_partitions, partition);
      std::vector<Event> clipped;
      clipped.reserve(result.size());
      for (Event& e : result) {
        const Timestamp le = std::max(e.le, lo);
        const Timestamp re = std::min(e.re, hi);
        if (le < re) clipped.push_back(Event(le, re, std::move(e.payload)));
      }
      result = std::move(clipped);
    }
    Span s(ctx.tracer, "temporal.encode", stage_span, ctx.job);
    TIMR_ASSIGN_OR_RETURN(*output, temporal::RowsFromEvents(result, true));
    return Status::OK();
  };
}

/// Round-trip every partition of `d` through the RPC row codec.
Status ProbeWire(const TraceContext& ctx, const mr::Dataset& d) {
  for (size_t p = 0; p < d.num_partitions(); ++p) {
    const std::vector<Row>& rows = d.partition(p);
    if (rows.empty()) continue;
    std::string buf;
    {
      Span s(ctx.tracer, "mr.rpc.encode", ctx.parent, ctx.job, /*probe=*/true);
      mr::rpc::WireWriter w;
      w.Rows(rows);
      buf = w.Take();
      s.set_count(buf.size());
    }
    Span s(ctx.tracer, "mr.rpc.decode", ctx.parent, ctx.job, /*probe=*/true);
    mr::rpc::WireReader r(buf);
    std::vector<Row> back;
    if (!r.Rows(&back) || back.size() != rows.size()) {
      return Status::ExecutionError("perfbench: wire codec round trip failed");
    }
  }
  return Status::OK();
}

/// The stage loop shared by RunPlan and RunPlanSuite, minus checkpointing.
Status RunFragments(const TraceContext& ctx, mr::LocalCluster* cluster,
                    const FragmentedPlan& plan,
                    const std::set<std::string>& protected_outputs, bool suite,
                    std::map<std::string, mr::Dataset>* store,
                    const TimrOptions& options, mr::JobStats* job_stats) {
  cluster->set_fault_tolerance(options.fault_tolerance);
  cluster->set_process_options(options.process);
  std::map<std::string, size_t> last_use;
  for (size_t f = 0; f < plan.fragments.size(); ++f) {
    for (const std::string& name : plan.fragments[f].inputs) last_use[name] = f;
  }
  for (size_t f = 0; f < plan.fragments.size(); ++f) {
    const Fragment& fragment = plan.fragments[f];
    std::vector<Schema> row_schemas;
    std::vector<const mr::Dataset*> datasets;
    for (const std::string& name : fragment.inputs) {
      auto it = store->find(name);
      if (it == store->end()) return Status::KeyError("dataset not found: " + name);
      row_schemas.push_back(it->second.schema());
      datasets.push_back(&it->second);
    }
    mr::MRStage stage;
    std::pair<Timestamp, Timestamp> range{0, 0};
    {
      Span s(ctx.tracer, "timr.compile", ctx.parent, ctx.job);
      if (fragment.key.kind == PartitionSpec::Kind::kTemporal) {
        TIMR_ASSIGN_OR_RETURN(range, timr::framework::ScanTimeRange(datasets));
      }
      timr::framework::FragmentStats fstats;
      TIMR_ASSIGN_OR_RETURN(
          stage, timr::framework::CompileFragment(fragment, row_schemas,
                                                  cluster->num_machines(), options,
                                                  range, &fstats));
    }
    for (size_t i = 0; i < fragment.inputs.size(); ++i) {
      const std::string& name = fragment.inputs[i];
      if (!fragment.input_is_external[i] && last_use.at(name) == f &&
          protected_outputs.count(name) == 0) {
        stage.consumable_inputs.push_back(static_cast<int>(i));
      }
    }
    if (options.validate_streams) {
      Span s(ctx.tracer, "analysis.verify", ctx.parent, ctx.job);
      TIMR_RETURN_NOT_OK(
          (suite ? timr::analysis::CheckStage(plan, f, stage, protected_outputs)
                 : timr::analysis::CheckStage(plan, f, stage))
              .ToStatus());
    }
    // Only process mode ships datasets over the wire.
    const bool wire = options.process.workers > 0;
    if (wire) {
      for (const mr::Dataset* d : datasets) TIMR_RETURN_NOT_OK(ProbeWire(ctx, *d));
    }
    mr::StageStats sstats;
    {
      Span s(ctx.tracer, "mr.stage", ctx.parent, ctx.job);
      stage.reducer = TracedPump(ctx, s.id(), fragment, row_schemas, options,
                                 stage.num_partitions, range.first);
      TIMR_RETURN_NOT_OK(cluster->RunStage(stage, store, &sstats));
    }
    if (wire) TIMR_RETURN_NOT_OK(ProbeWire(ctx, store->at(stage.output)));
    job_stats->stages.push_back(std::move(sstats));
  }
  return Status::OK();
}

Result<std::vector<Event>> DecodeOutput(const TraceContext& ctx,
                                        const mr::Dataset& out, bool canonical) {
  Span s(ctx.tracer, "temporal.decode", ctx.parent, ctx.job);
  TIMR_ASSIGN_OR_RETURN(std::vector<Event> events,
                        temporal::EventsFromRows(out.schema(), out.Gather()));
  if (canonical) temporal::SortEventsCanonical(&events);
  return events;
}

// ---- the merged-DAG rewrite of RunPlanSuite (timr/suite.cc) ----

struct SubstTarget {
  std::string dataset;
  Schema schema;
};
using SubstMap = std::unordered_map<const PlanNode*, SubstTarget>;

PlanNodePtr CloneWithSubstitution(
    const PlanNode* node, const SubstMap& subst,
    std::unordered_map<const PlanNode*, PlanNodePtr>* memo) {
  if (node == nullptr) return nullptr;
  if (auto it = memo->find(node); it != memo->end()) return it->second;
  if (auto sub = subst.find(node); sub != subst.end()) {
    auto leaf = std::make_shared<PlanNode>();
    leaf->kind = temporal::OpKind::kInput;
    leaf->name = sub->second.dataset;
    leaf->input_schema = sub->second.schema;
    (*memo)[node] = leaf;
    return leaf;
  }
  auto copy = std::make_shared<PlanNode>(*node);
  (*memo)[node] = copy;
  for (auto& c : copy->children) c = CloneWithSubstitution(c.get(), subst, memo);
  copy->subplan = CloneWithSubstitution(node->subplan.get(), subst, memo);
  return copy;
}

PlanNodePtr CloneWithSubstitution(const PlanNode* root, const SubstMap& subst) {
  std::unordered_map<const PlanNode*, PlanNodePtr> memo;
  return CloneWithSubstitution(root, subst, &memo);
}

void PrefixFragments(FragmentedPlan* plan, const std::string& prefix) {
  std::map<std::string, std::string> rename;
  for (size_t i = 0; i < plan->fragments.size(); ++i) {
    const bool last = i + 1 == plan->fragments.size();
    rename[plan->fragments[i].name] =
        last ? prefix : prefix + "__" + plan->fragments[i].name;
  }
  for (Fragment& frag : plan->fragments) {
    frag.name = rename.at(frag.name);
    for (std::string& input : frag.inputs) {
      if (auto it = rename.find(input); it != rename.end()) input = it->second;
    }
    for (PlanNode* leaf : temporal::CollectInputs(frag.root)) {
      if (auto it = rename.find(leaf->name); it != rename.end()) leaf->name = it->second;
    }
  }
  plan->output_dataset = rename.at(plan->output_dataset);
}

}  // namespace

Result<TracedRunResult> TracedRunPlan(const TraceContext& ctx,
                                      mr::LocalCluster* cluster,
                                      const PlanNodePtr& annotated_root,
                                      std::map<std::string, mr::Dataset>* store,
                                      const TimrOptions& options) {
  if (options.validate_streams) {
    Span s(ctx.tracer, "analysis.verify", ctx.parent, ctx.job);
    TIMR_RETURN_NOT_OK(timr::analysis::VerifyPlanForExecution(annotated_root));
  }
  FragmentedPlan plan;
  {
    Span s(ctx.tracer, "timr.fragment", ctx.parent, ctx.job);
    TIMR_ASSIGN_OR_RETURN(plan, timr::framework::MakeFragments(annotated_root));
  }
  if (options.validate_streams) {
    Span s(ctx.tracer, "analysis.verify", ctx.parent, ctx.job);
    TIMR_RETURN_NOT_OK(timr::analysis::CheckFragments(plan).ToStatus());
  }
  TracedRunResult result;
  TIMR_RETURN_NOT_OK(RunFragments(ctx, cluster, plan, {plan.output_dataset},
                                  /*suite=*/false, store, options,
                                  &result.job_stats));
  TIMR_ASSIGN_OR_RETURN(std::vector<Event> out,
                        DecodeOutput(ctx, store->at(plan.output_dataset), false));
  result.outputs.push_back(std::move(out));
  return result;
}

Result<TracedRunResult> TracedRunSuite(
    const TraceContext& ctx, mr::LocalCluster* cluster,
    const std::vector<std::pair<std::string, PlanNodePtr>>& queries,
    std::map<std::string, mr::Dataset>* store,
    const timr::framework::SuiteOptions& options) {
  const TimrOptions& topt = options.timr;
  if (topt.validate_streams) {
    Span s(ctx.tracer, "analysis.verify", ctx.parent, ctx.job);
    for (const auto& [name, root] : queries) {
      TIMR_RETURN_NOT_OK(timr::analysis::VerifyPlanForExecution(root));
    }
  }
  std::vector<timr::analysis::ExecutableFragment> selected;
  if (options.share_fragments) {
    Span s(ctx.tracer, "analysis.share_select", ctx.parent, ctx.job);
    selected = timr::analysis::SelectSharedFragments(queries);
  }

  FragmentedPlan combined;
  std::vector<std::string> query_outputs;
  {
    Span s(ctx.tracer, "timr.fragment", ctx.parent, ctx.job);
    SubstMap subst;
    for (size_t k = 0; k < selected.size(); ++k) {
      const std::string dataset = "__shared_" + std::to_string(k);
      TIMR_ASSIGN_OR_RETURN(
          FragmentedPlan sp,
          timr::framework::MakeFragments(CloneWithSubstitution(selected[k].rep, subst)));
      PrefixFragments(&sp, dataset);
      for (Fragment& f : sp.fragments) combined.fragments.push_back(std::move(f));
      TIMR_ASSIGN_OR_RETURN(Schema payload, selected[k].rep->OutputSchema());
      for (const timr::analysis::SharedOccurrence& occ : selected[k].occurrences) {
        subst[occ.node] = SubstTarget{dataset, payload};
      }
    }
    for (const auto& [name, root] : queries) {
      TIMR_ASSIGN_OR_RETURN(
          FragmentedPlan qp,
          timr::framework::MakeFragments(CloneWithSubstitution(root.get(), subst)));
      PrefixFragments(&qp, "q_" + name);
      for (Fragment& f : qp.fragments) combined.fragments.push_back(std::move(f));
      query_outputs.push_back(qp.output_dataset);
    }
    combined.output_dataset = combined.fragments.back().name;
    std::set<std::string> produced;
    for (const Fragment& f : combined.fragments) produced.insert(f.name);
    for (Fragment& f : combined.fragments) {
      for (size_t i = 0; i < f.inputs.size(); ++i) {
        f.input_is_external[i] = produced.count(f.inputs[i]) == 0;
      }
    }
  }
  if (topt.validate_streams) {
    Span s(ctx.tracer, "analysis.verify", ctx.parent, ctx.job);
    TIMR_RETURN_NOT_OK(timr::analysis::CheckFragments(combined).ToStatus());
  }

  TracedRunResult result;
  const std::set<std::string> protected_outputs(query_outputs.begin(),
                                                query_outputs.end());
  TIMR_RETURN_NOT_OK(RunFragments(ctx, cluster, combined, protected_outputs,
                                  /*suite=*/true, store, topt, &result.job_stats));
  for (const std::string& dataset : query_outputs) {
    TIMR_ASSIGN_OR_RETURN(std::vector<Event> out,
                          DecodeOutput(ctx, store->at(dataset), true));
    result.outputs.push_back(std::move(out));
  }
  return result;
}

}  // namespace perfbench
