#include "mr/skew.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/hash.h"
#include "mr/runtime_util.h"

namespace timr::mr {

std::vector<SplitDecision> DecidePartitionSplits(
    const SkewPolicy& policy, const std::vector<size_t>& routed_rows,
    double median_rows, const std::unordered_map<uint64_t, uint64_t>& sketch,
    int parts) {
  std::vector<SplitDecision> decisions;
  for (int p = 0; p < parts; ++p) {
    if (routed_rows[p] < policy.min_partition_rows) continue;
    if (static_cast<double>(routed_rows[p]) <=
        policy.skew_ratio_threshold * median_rows) {
      continue;
    }
    std::vector<std::pair<uint64_t, uint64_t>> cand;  // (count, key hash)
    for (const auto& [h, c] : sketch) {
      if (c >= policy.min_hot_key_samples &&
          static_cast<int>(h % static_cast<uint64_t>(parts)) == p) {
        cand.emplace_back(c, h);
      }
    }
    if (cand.empty()) continue;
    // Full tie-broken sort: the merged sketch's iteration order is not
    // deterministic across thread counts, the selected set must be.
    std::sort(cand.begin(), cand.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    const size_t keep = std::min<size_t>(
        cand.size(), std::max(1, policy.max_hot_keys_per_partition));
    SplitDecision d;
    d.partition = p;
    d.hot_keys.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      d.hot_keys.push_back(cand[i].second);
      d.hot_set.insert(cand[i].second);
    }
    decisions.push_back(std::move(d));
  }
  return decisions;
}

uint64_t StageSalt(const std::string& stage_name) {
  return HashBytes(stage_name.data(), stage_name.size());
}

void RerouteHotRows(const KeyHashFn& key_hash, int input_index,
                    const std::vector<Row>& rows, uint64_t stage_salt,
                    int fanout, const SplitDecision& d, int vbase,
                    std::vector<std::vector<RowRef>>* buckets) {
  std::vector<RowRef>& src = (*buckets)[d.partition];
  if (src.empty()) return;
  std::vector<RowRef> keep;
  keep.reserve(src.size());
  for (const RowRef& ref : src) {
    const uint64_t h = key_hash(input_index, rows[ref.row]);
    if (d.hot_set.count(h) > 0) {
      const int slot = static_cast<int>(HashMix(h ^ stage_salt) %
                                        static_cast<uint64_t>(fanout));
      (*buckets)[vbase + slot].push_back(ref);
    } else {
      keep.push_back(ref);
    }
  }
  src = std::move(keep);
}

std::vector<Row> MergeSortedRuns(std::vector<std::vector<Row>> runs) {
  if (runs.empty()) return {};
  while (runs.size() > 1) {
    std::vector<std::vector<Row>> next;
    next.reserve(runs.size() / 2 + 1);
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      std::vector<Row> merged;
      merged.reserve(runs[i].size() + runs[i + 1].size());
      std::merge(std::make_move_iterator(runs[i].begin()),
                 std::make_move_iterator(runs[i].end()),
                 std::make_move_iterator(runs[i + 1].begin()),
                 std::make_move_iterator(runs[i + 1].end()),
                 std::back_inserter(merged), RowTimeLess);
      next.push_back(std::move(merged));
    }
    if (runs.size() % 2 == 1) next.push_back(std::move(runs.back()));
    runs = std::move(next);
  }
  return std::move(runs.front());
}

}  // namespace timr::mr
