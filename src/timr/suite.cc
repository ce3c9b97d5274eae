#include "timr/suite.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "analysis/sharing.h"
#include "temporal/convert.h"
#include "timr/optimizer.h"

namespace timr::framework {

using temporal::Event;
using temporal::PlanNode;
using temporal::PlanNodePtr;

namespace {

using SharedNodes = std::unordered_map<const PlanNode*, PlanNodePtr>;

PlanNodePtr CopySharingImpl(const PlanNode* node, const SharedNodes& shared,
                            SharedNodes* memo) {
  if (auto it = shared.find(node); it != shared.end()) return it->second;
  if (auto it = memo->find(node); it != memo->end()) return it->second;
  auto copy = std::make_shared<PlanNode>(*node);
  (*memo)[node] = copy;
  for (auto& c : copy->children) c = CopySharingImpl(c.get(), shared, memo);
  return copy;
}

/// Copies the plan at `root`, keeping its DAG shape, with every occurrence
/// site in `shared` replaced by its shared node. Sites are never inside a
/// group sub-plan (SelectSharedFragments), so sub-plans are not copied.
PlanNodePtr CopySharing(const PlanNode* root, const SharedNodes& shared) {
  SharedNodes memo;
  return CopySharingImpl(root, shared, &memo);
}

}  // namespace

Result<SuiteRunResult> RunPlanSet(
    mr::LocalCluster* cluster,
    const std::vector<std::pair<std::string, PlanNodePtr>>& plans,
    std::map<std::string, mr::Dataset>* store, const TimrOptions& options,
    bool share) {
  SuiteRunResult result;
  std::vector<std::pair<std::string, PlanNodePtr>> verified;
  for (const auto& [name, plan] : plans) {
    // Fail fast on malformed plans: the static passes name the offending
    // node, while a bad run would surface as wrong output or a deep engine
    // abort.
    if (options.validate_streams) {
      TIMR_RETURN_NOT_OK(analysis::VerifyPlanForExecution(plan));
    }
    TIMR_ASSIGN_OR_RETURN(ElisionResult elision, ElideRedundantExchanges(plan));
    for (const std::string& e : elision.elided) {
      result.elided_exchanges.push_back(plans.size() == 1 ? e
                                                          : name + ": " + e);
    }
    verified.emplace_back(name, std::move(elision.plan));
  }

  // Each accepted sub-plan becomes one shared copy of its representative,
  // which replaces every occurrence site. Smaller ones come first, so a
  // larger representative's copy already holds the nested shared nodes.
  std::vector<analysis::ExecutableFragment> selected;
  if (share) selected = analysis::SelectSharedFragments(verified);
  SharedNodes shared;
  std::vector<PlanNodePtr> shared_copies;
  for (const analysis::ExecutableFragment& frag : selected) {
    PlanNodePtr copy = CopySharing(frag.rep, shared);
    for (const analysis::SharedOccurrence& occ : frag.occurrences) {
      shared[occ.node] = copy;
    }
    shared_copies.push_back(std::move(copy));
  }
  std::vector<PlanNodePtr> roots;
  std::unordered_map<const PlanNode*, std::string> names;
  for (const auto& [name, root] : verified) {
    roots.push_back(shared.empty() ? root : CopySharing(root.get(), shared));
    names.emplace(roots.back().get(), name);
  }
  for (size_t k = 0; k < shared_copies.size(); ++k) {
    names.emplace(shared_copies[k].get(), "__shared_" + std::to_string(k));
  }
  TIMR_ASSIGN_OR_RETURN(result.fragments, MakeFragments(roots, names));
  std::set<std::string> outputs;
  for (const PlanNodePtr& root : roots) outputs.insert(names.at(root.get()));
  TIMR_RETURN_NOT_OK(RunFragments(cluster, result.fragments, outputs, store,
                                  options, &result.job_stats,
                                  &result.fragment_stats));
  result.num_stages = result.fragments.fragments.size();

  for (size_t k = 0; k < selected.size(); ++k) {
    SharedFragmentStats s;
    s.hash = selected[k].hash;
    s.num_ops = selected[k].num_ops;
    s.occurrences = selected[k].occurrences.size();
    const std::string& dataset = names.at(shared_copies[k].get());
    for (size_t f = 0; f < result.num_stages; ++f) {
      const Fragment& fragment = result.fragments.fragments[f];
      if (fragment.name == dataset) {
        s.dataset = dataset;
        s.rows_out = result.job_stats.stages[f].rows_out;
      }
      s.num_consumers += static_cast<size_t>(
          std::count(fragment.inputs.begin(), fragment.inputs.end(), dataset));
    }
    if (s.num_consumers >= 2) result.rows_executed_once += s.rows_out;
    result.shared.push_back(std::move(s));
  }

  for (const PlanNodePtr& root : roots) {
    const mr::Dataset& out = store->at(names.at(root.get()));
    TIMR_ASSIGN_OR_RETURN(std::vector<Event> events,
                          temporal::EventsFromRows(out.schema(), out.Gather()));
    result.outputs.push_back(std::move(events));
  }
  return result;
}

Result<SuiteRunResult> RunPlanSuite(
    mr::LocalCluster* cluster,
    const std::vector<std::pair<std::string, PlanNodePtr>>& queries,
    std::map<std::string, mr::Dataset>* store, const SuiteOptions& options) {
  if (queries.empty()) {
    return Status::Invalid("RunPlanSuite: empty query list");
  }
  std::vector<std::pair<std::string, PlanNodePtr>> plans;
  std::vector<std::string> query_names;
  std::set<std::string> seen;
  for (const auto& [name, root] : queries) {
    if (!seen.insert(name).second) {
      return Status::Invalid("RunPlanSuite: duplicate query name: " + name);
    }
    query_names.push_back(name);
    plans.emplace_back("q_" + name, root);
  }
  TIMR_ASSIGN_OR_RETURN(SuiteRunResult result,
                        RunPlanSet(cluster, plans, store, options.timr,
                                   options.share_fragments));
  result.query_names = std::move(query_names);
  // Materializing a sharing boundary may interleave ties at equal LE
  // differently than the inline computation; the canonical sort makes
  // equal-as-relations outputs byte-identical (see suite.h).
  for (std::vector<Event>& events : result.outputs) {
    temporal::SortEventsCanonical(&events);
  }
  return result;
}

}  // namespace timr::framework
