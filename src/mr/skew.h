// Adaptive-skew decision logic (SkewPolicy, stage.h) used by the stage
// pipeline. Every function here is a pure function of its arguments — never
// of thread count, timing, or which backend ran the map tasks — which is what
// keeps skew-split outputs bit-identical across modes (ROADMAP 5(b),
// DESIGN.md §5f).

#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mr/stage.h"
#include "mr/worker.h"

namespace timr::mr {

struct SplitDecision {
  int partition = 0;
  std::vector<uint64_t> hot_keys;        // (count desc, hash asc) order
  std::unordered_set<uint64_t> hot_set;  // same keys, for reroute lookup
};

/// Decide which partitions to split and which of their keys are hot, from the
/// merged (summed) hot-key sketch and the per-partition routed row counts.
/// Candidates are ordered by (count desc, key hash asc) — a total order, so
/// the selected set is deterministic even though the sketch map's iteration
/// order is not.
std::vector<SplitDecision> DecidePartitionSplits(
    const SkewPolicy& policy, const std::vector<size_t>& routed_rows,
    double median_rows, const std::unordered_map<uint64_t, uint64_t>& sketch,
    int parts);

/// Salt mixed into the virtual-slot assignment, derived from the stage name
/// only (never runtime state).
uint64_t StageSalt(const std::string& stage_name);

/// Move the refs of hot rows in `(*buckets)[d.partition]` into the virtual
/// buckets `(*buckets)[vbase + slot]`, where slot = HashMix(key_hash ^
/// stage_salt) % fanout. `rows` is the source partition the refs index into.
/// `buckets` must already have at least vbase + fanout entries. Refs whose
/// row's key is not hot stay in the base bucket, preserving relative order.
void RerouteHotRows(const KeyHashFn& key_hash, int input_index,
                    const std::vector<Row>& rows, uint64_t stage_salt,
                    int fanout, const SplitDecision& d, int vbase,
                    std::vector<std::vector<RowRef>>* buckets);

/// K-way merge of canonically sorted runs (RowTimeLess order) via a pairwise
/// merge tree; returns one canonically ordered run. Consumes the inputs.
std::vector<Row> MergeSortedRuns(std::vector<std::vector<Row>> runs);

}  // namespace timr::mr
