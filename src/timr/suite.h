// Multi-query suite execution with shared-fragment elimination (ROADMAP 5a).
//
// RunPlanSuite takes a set of named CQ plans (the BT pipeline's ~20 CQs),
// consumes the sharing analysis (analysis::SelectSharedFragments, the
// executable form of analysis::BuildShareReport), and rewrites them into ONE
// merged fragment DAG: every verified-equivalent maximal sub-plan is
// instantiated once as a shared MR stage whose output dataset fans out to all
// consumer queries (per Sharon's shared online aggregation). Inside each
// reducer the engine multiplexes multi-consumer operators through TeeOp
// (temporal/tee.h) with copy-on-write batch views; across stages the sharing
// is a plain multi-reader dataset — the last-use/consumable analysis releases
// it only at its final reader, and every per-query output dataset is
// protected from release for the whole job.
//
// Per-query outputs are identical to independent RunPlan runs as temporal
// relations; to make them *byte*-identical regardless of how ties at equal LE
// interleave across the materialized sharing boundary, RunPlanSuite returns
// every query's output in canonical (le, re, payload) order. Compare against
// a SortEventsCanonical'd independent run.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mr/cluster.h"
#include "temporal/event.h"
#include "temporal/plan.h"
#include "timr/timr.h"

namespace timr::framework {

struct SuiteOptions {
  /// Execution options, as for RunPlan (both run through RunFragments);
  /// timr.job applies to the merged DAG's stage sequence.
  TimrOptions timr;

  /// Master switch for the rewrite. Off, the suite still runs as one merged
  /// job but with every query's fragments independent — the bit-identity
  /// tests compare the two settings.
  bool share_fragments = true;
};

/// \brief One shared fragment the merged DAG executed once.
struct SharedFragmentStats {
  std::string dataset;     // the shared stage's output dataset name
  uint64_t hash = 0;       // canonical fingerprint of the shared sub-plan
  size_t num_ops = 0;      // operator count of the shared sub-plan
  size_t occurrences = 0;  // occurrence sites substituted across all queries
  size_t num_consumers = 0;  // merged-DAG fragments reading the dataset
  size_t rows_out = 0;       // rows the shared stage produced (exactly once)
};

struct SuiteRunResult {
  std::vector<std::string> query_names;
  /// Per-query outputs, canonically sorted (parallel to query_names).
  std::vector<std::vector<temporal::Event>> outputs;
  /// Stage stats for the whole merged job, in execution order: shared
  /// fragments first (smallest to largest), then each query's fragments.
  mr::JobStats job_stats;
  std::vector<FragmentStats> fragment_stats;
  std::vector<SharedFragmentStats> shared;
  std::vector<std::string> elided_exchanges;
  size_t num_stages = 0;
  /// Rows produced by shared stages with >= 2 consumers: output every
  /// consumer would otherwise have recomputed, executed once instead.
  size_t rows_executed_once = 0;
};

/// Run the named queries as one merged job over the datasets in `store`
/// (external sources in point layout, exactly as RunPlan). Intermediate
/// datasets are added to the store under "__shared_<k>" (shared fragments)
/// and "q_<query>__frag_<i>" / "q_<query>" (per-query fragments; the final
/// one holds that query's output). Query names must be unique and must not
/// collide with dataset names already in the store.
Result<SuiteRunResult> RunPlanSuite(
    mr::LocalCluster* cluster,
    const std::vector<std::pair<std::string, temporal::PlanNodePtr>>& queries,
    std::map<std::string, mr::Dataset>* store,
    const SuiteOptions& options = SuiteOptions());

}  // namespace timr::framework
