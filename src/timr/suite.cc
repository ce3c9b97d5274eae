#include "timr/suite.h"

#include <set>
#include <unordered_map>

#include "analysis/sharing.h"
#include "temporal/convert.h"

namespace timr::framework {

using temporal::Event;
using temporal::OpKind;
using temporal::PlanNode;
using temporal::PlanNodePtr;

namespace {

/// What an occurrence site is rewritten into: a read of the shared fragment's
/// output dataset, carrying the sub-plan's payload schema (the same leaf shape
/// FragmentCutter creates for an exchange-cut boundary).
struct SubstTarget {
  std::string dataset;
  Schema schema;
};

using SubstMap = std::unordered_map<const PlanNode*, SubstTarget>;

PlanNodePtr CloneWithSubstitutionImpl(
    const PlanNode* node, const SubstMap& subst,
    std::unordered_map<const PlanNode*, PlanNodePtr>* memo) {
  if (node == nullptr) return nullptr;
  auto it = memo->find(node);
  if (it != memo->end()) return it->second;
  auto sub = subst.find(node);
  if (sub != subst.end()) {
    auto leaf = std::make_shared<PlanNode>();
    leaf->kind = OpKind::kInput;
    leaf->name = sub->second.dataset;
    leaf->input_schema = sub->second.schema;
    (*memo)[node] = leaf;
    return leaf;
  }
  auto copy = std::make_shared<PlanNode>(*node);
  (*memo)[node] = copy;
  for (auto& c : copy->children) {
    c = CloneWithSubstitutionImpl(c.get(), subst, memo);
  }
  copy->subplan =
      CloneWithSubstitutionImpl(node->subplan.get(), subst, memo);
  return copy;
}

/// Memoized top-down clone replacing every occurrence site in `subst` with a
/// kInput leaf reading the shared dataset. DAG sharing within the plan is
/// preserved (one clone per source node). Substitution sites are top-context
/// by construction (SelectSharedFragments), so no read leaf can end up inside
/// a GroupApply sub-plan.
PlanNodePtr CloneWithSubstitution(const PlanNode* root, const SubstMap& subst) {
  std::unordered_map<const PlanNode*, PlanNodePtr> memo;
  return CloneWithSubstitutionImpl(root, subst, &memo);
}

/// MakeFragments names fragments "frag_<i>" starting at 0 per call; a merged
/// suite concatenates many such plans, so every sub-plan's fragments are
/// renamed under a unique prefix before concatenation. The final fragment —
/// the sub-plan's output — takes the bare prefix as its name. Patches
/// fragment names, declared inputs, and the kInput leaves that reference
/// renamed datasets (leaves naming external sources or other sub-plans'
/// datasets are untouched: "frag_<i>" names are cutter-internal and cannot
/// collide with them).
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
      auto it = rename.find(input);
      if (it != rename.end()) input = it->second;
    }
    for (PlanNode* leaf : temporal::CollectInputs(frag.root)) {
      auto it = rename.find(leaf->name);
      if (it != rename.end()) leaf->name = it->second;
    }
  }
  plan->output_dataset = rename.at(plan->output_dataset);
}

}  // namespace

Result<SuiteRunResult> RunPlanSuite(
    mr::LocalCluster* cluster,
    const std::vector<std::pair<std::string, PlanNodePtr>>& queries,
    std::map<std::string, mr::Dataset>* store, const SuiteOptions& options) {
  if (queries.empty()) {
    return Status::Invalid("RunPlanSuite: empty query list");
  }
  SuiteRunResult result;

  // --- Per-query verification + exchange elision (same as RunPlan). -------
  std::vector<std::pair<std::string, PlanNodePtr>> roots;
  roots.reserve(queries.size());
  std::set<std::string> names;
  for (const auto& [name, annotated_root] : queries) {
    if (!names.insert(name).second) {
      return Status::Invalid("RunPlanSuite: duplicate query name: " + name);
    }
    TIMR_ASSIGN_OR_RETURN(
        PlanNodePtr root, VerifyAndElide(annotated_root, options.timr,
                                         name + ": ", &result.elided_exchanges));
    result.query_names.push_back(name);
    roots.emplace_back(name, std::move(root));
  }

  // --- Merge policy: pick the shared fragments, cost-ordered. -------------
  std::vector<analysis::ExecutableFragment> selected;
  if (options.share_fragments) {
    selected = analysis::SelectSharedFragments(roots);
  }

  // --- Rewrite into one merged fragment DAG. ------------------------------
  // Shared plans run first, smallest to largest (execution order from
  // SelectSharedFragments), so a nested shared fragment's dataset exists
  // before any enclosing shared plan — or query — reads it. The substitution
  // map accumulates as shared plans are built: an outer shared plan is cloned
  // with every inner occurrence already rewritten into a dataset read.
  FragmentedPlan combined;
  SubstMap subst;
  std::vector<std::string> shared_datasets;
  for (size_t k = 0; k < selected.size(); ++k) {
    const analysis::ExecutableFragment& frag = selected[k];
    const std::string dataset = "__shared_" + std::to_string(k);
    PlanNodePtr shared_root = CloneWithSubstitution(frag.rep, subst);
    TIMR_ASSIGN_OR_RETURN(FragmentedPlan sp, MakeFragments(shared_root));
    PrefixFragments(&sp, dataset);
    for (Fragment& f : sp.fragments) combined.fragments.push_back(std::move(f));
    shared_datasets.push_back(dataset);
    TIMR_ASSIGN_OR_RETURN(Schema payload, frag.rep->OutputSchema());
    for (const analysis::SharedOccurrence& occ : frag.occurrences) {
      subst[occ.node] = SubstTarget{dataset, payload};
    }
  }
  std::vector<std::string> query_outputs;
  query_outputs.reserve(roots.size());
  for (const auto& [name, root] : roots) {
    PlanNodePtr rewritten = CloneWithSubstitution(root.get(), subst);
    TIMR_ASSIGN_OR_RETURN(FragmentedPlan qp, MakeFragments(rewritten));
    PrefixFragments(&qp, "q_" + name);
    for (Fragment& f : qp.fragments) combined.fragments.push_back(std::move(f));
    query_outputs.push_back(qp.output_dataset);
  }
  combined.output_dataset = combined.fragments.back().name;

  // Re-derive the external flags over the *combined* fragment list: a dataset
  // another sub-plan produces (a shared fragment's output read by a query) was
  // cut as an in-place source read, but is an intermediate of the merged job.
  // (RunFragments rejects colliding fragment names.)
  std::set<std::string> produced;
  for (const Fragment& f : combined.fragments) produced.insert(f.name);
  for (Fragment& f : combined.fragments) {
    for (size_t i = 0; i < f.inputs.size(); ++i) {
      f.input_is_external[i] = produced.count(f.inputs[i]) == 0;
    }
  }

  // Every query's output dataset must survive the whole job — the merged
  // plan has one protected output per query, not just the final fragment's.
  TIMR_RETURN_NOT_OK(RunFragments(
      cluster, combined,
      std::set<std::string>(query_outputs.begin(), query_outputs.end()), store,
      options.timr, &result.job_stats, &result.fragment_stats));
  result.num_stages = combined.fragments.size();

  // --- Shared-fragment accounting. ----------------------------------------
  for (size_t k = 0; k < selected.size(); ++k) {
    SharedFragmentStats s;
    s.dataset = shared_datasets[k];
    s.hash = selected[k].hash;
    s.num_ops = selected[k].num_ops;
    s.occurrences = selected[k].occurrences.size();
    for (const Fragment& f : combined.fragments) {
      for (const std::string& input : f.inputs) {
        if (input == s.dataset) {
          ++s.num_consumers;
          break;
        }
      }
    }
    for (const mr::StageStats& stage : result.job_stats.stages) {
      if (stage.name == s.dataset) s.rows_out = stage.rows_out;
    }
    if (s.num_consumers >= 2) result.rows_executed_once += s.rows_out;
    result.shared.push_back(std::move(s));
  }

  // --- Gather per-query outputs, canonically ordered. ---------------------
  // Materializing a sharing boundary may interleave ties at equal LE
  // differently than the inline computation; the canonical sort makes
  // equal-as-relations outputs byte-identical (see suite.h).
  for (const std::string& dataset : query_outputs) {
    const mr::Dataset& out = store->at(dataset);
    TIMR_ASSIGN_OR_RETURN(std::vector<Event> events,
                          temporal::EventsFromRows(out.schema(), out.Gather()));
    temporal::SortEventsCanonical(&events);
    result.outputs.push_back(std::move(events));
  }
  return result;
}

}  // namespace timr::framework
