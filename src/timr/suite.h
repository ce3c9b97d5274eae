// Multi-query suite execution with shared-fragment elimination (ROADMAP 5a).
//
// RunPlanSuite takes a set of named CQ plans (the BT pipeline's ~20 CQs) and
// runs them as ONE job through RunPlanSet, the path RunPlan takes too. The
// sharing analysis (analysis::SelectSharedFragments, the executable form of
// analysis::BuildShareReport) picks the verified-equivalent maximal sub-plans
// that repeat; each becomes one shared node in place of all its occurrence
// sites, and a single MakeFragments call cuts every query. By the cut's
// materialization rule (fragments.h) a shared node that several fragments
// reach runs once as its own stage whose dataset fans out to all of them
// (per Sharon's shared online aggregation). Inside each reducer the engine
// multiplexes multi-consumer operators through TeeOp (temporal/tee.h) with
// copy-on-write batch views; across stages the sharing is a plain
// multi-reader dataset — the last-use/consumable analysis releases it only at
// its final reader, and every per-query output dataset is protected from
// release for the whole job.
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

  /// Master switch for sharing. Off, the suite still runs as one merged job
  /// but with every query's fragments independent — the bit-identity tests
  /// compare the two settings.
  bool share_fragments = true;
};

/// \brief One sub-plan the sharing computes once for all its sites.
struct SharedFragmentStats {
  /// Dataset of the stage that materializes the shared node; empty when the
  /// cut runs it inline (a single reader, or a temporally keyed node that
  /// each reader recomputes).
  std::string dataset;
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
  /// The one cut over every query, in execution order.
  FragmentedPlan fragments;
  /// Stage stats for the whole merged job, parallel to fragments.fragments.
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
/// (external sources in point layout, exactly as RunPlan). A query's output
/// is added to the store as "q_<query>"; queries whose whole plans are one
/// shared sub-plan share one output, named after the first of them. Other
/// intermediate datasets are named "__shared_<k>" (a shared node's own
/// stage) or "frag_<i>". Query names must be unique, and no dataset already
/// in the store may be named like any of these.
Result<SuiteRunResult> RunPlanSuite(
    mr::LocalCluster* cluster,
    const std::vector<std::pair<std::string, temporal::PlanNodePtr>>& queries,
    std::map<std::string, mr::Dataset>* store,
    const SuiteOptions& options = SuiteOptions());

/// The path behind RunPlan and RunPlanSuite. Verifies each plan (when
/// options.validate_streams) and elides its redundant exchanges
/// (ElideRedundantExchanges). With `share`, every sub-plan
/// analysis::SelectSharedFragments accepts becomes one shared node that
/// replaces all its occurrence sites. One MakeFragments call then cuts every
/// plan, and RunFragments runs the fragments with each plan's output
/// protected. `plans` pairs each plan with its output dataset's name. Fills
/// every field but `query_names`; `outputs` are in engine order.
Result<SuiteRunResult> RunPlanSet(
    mr::LocalCluster* cluster,
    const std::vector<std::pair<std::string, temporal::PlanNodePtr>>& plans,
    std::map<std::string, mr::Dataset>* store, const TimrOptions& options,
    bool share);

}  // namespace timr::framework
