// Adaptive skew-aware repartitioning bench (ROADMAP 5(b)): a keyed stage
// whose input plants several heavy keys colliding in one partition, run with
// the SkewPolicy off vs on, plus the full BT pipeline on a Zipf-skewed log.
// Byte-identical outputs are asserted in-bench *before* anything is timed.
//
// Because this host has far fewer cores than the modeled cluster, the speedup
// is taken on the simulated parallel makespan for the 16-machine model (see
// mr/cluster.h — benches report that simulated time); host wall is printed
// alongside. Targets: unmitigated partition skew >= 4x (rows and seconds,
// max/median), <= 2x after splitting, and >= 1.3x simulated-makespan speedup
// on the hot stage. Numbers land in EXPERIMENTS.md / BENCH_skew.json.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "mr/cluster.h"
#include "mr/stage.h"
#include "temporal/convert.h"
#include "temporal/event.h"
#include "timr/timr.h"

namespace {

using namespace timr;
namespace T = timr::temporal;

constexpr int kParts = 16;
constexpr int kFanout = 8;
constexpr char kStageName[] = "skew_groupby";

Schema SkewSchema() {
  return Schema::Of({{"Time", ValueType::kInt64},
                     {"Key", ValueType::kInt64},
                     {"Val", ValueType::kInt64}});
}

mr::SkewPolicy BenchSkewPolicy() {
  mr::SkewPolicy policy;
  policy.adaptive_repartition = true;
  policy.skew_ratio_threshold = 3.0;
  policy.hot_key_fanout = kFanout;
  policy.min_partition_rows = 4096;
  policy.sample_shift = 5;
  return policy;
}

/// Hot keys probed through the real routing hash AND the real virtual-slot
/// salt: all land in partition 0 of kParts, each in a distinct virtual slot
/// of kFanout. The collision is the scenario that matters — one hot key can
/// only move whole, but several colliding hot keys are exactly what the
/// salted split spreads across machines.
std::vector<int64_t> ProbeHotKeys(int num_hot) {
  auto hasher = mr::MakeKeyHasher({{1}});
  const uint64_t salt = HashBytes(kStageName, sizeof(kStageName) - 1);
  std::vector<bool> slot_used(kFanout, false);
  std::vector<int64_t> hot;
  for (int64_t k = 0; static_cast<int>(hot.size()) < num_hot; ++k) {
    Row probe = {Value(int64_t{0}), Value(k), Value(int64_t{0})};
    const uint64_t h = hasher(0, probe);
    if (h % static_cast<uint64_t>(kParts) != 0) continue;
    const int slot =
        static_cast<int>(HashMix(h ^ salt) % static_cast<uint64_t>(kFanout));
    if (slot_used[slot]) continue;
    slot_used[slot] = true;
    hot.push_back(k);
  }
  return hot;
}

/// num_hot heavy keys (rows_per_hot rows each, all routed to partition 0)
/// interleaved in time with a uniform background of singleton keys.
mr::Dataset MakeSkewedInput(int num_hot, int rows_per_hot,
                            int background_rows) {
  const std::vector<int64_t> hot = ProbeHotKeys(num_hot);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(num_hot) * rows_per_hot + background_rows);
  int64_t t = 0;
  for (int i = 0; i < rows_per_hot; ++i) {
    for (int64_t k : hot) {
      rows.push_back({Value(t++), Value(k), Value(static_cast<int64_t>(i))});
    }
  }
  for (int i = 0; i < background_rows; ++i) {
    rows.push_back({Value(t++), Value(static_cast<int64_t>(1000000 + i)),
                    Value(int64_t{0})});
  }
  return mr::Dataset::FromRows(SkewSchema(), std::move(rows));
}

mr::MRStage SkewStage(bool adaptive) {
  mr::MRStage stage;
  stage.name = kStageName;
  stage.inputs = {"in"};
  stage.output = "out";
  stage.output_schema = SkewSchema();
  stage.num_partitions = kParts;
  stage.partition_fn = mr::HashPartitioner({{1}});
  stage.key_hash_fn = mr::MakeKeyHasher({{1}});
  if (adaptive) stage.skew = BenchSkewPolicy();
  // Order-preserving per-row transform over the canonically sorted input
  // (~a feature hash per row — enough CPU for the makespan model to see);
  // sorted in, sorted out, so the split-run coalesce must reproduce the
  // unsplit run byte for byte.
  stage.reducer = [](int, const std::vector<std::vector<Row>>& inputs,
                     std::vector<Row>* output) {
    output->reserve(inputs[0].size());
    for (const Row& r : inputs[0]) {
      uint64_t acc = static_cast<uint64_t>(r[1].AsInt64());
      for (int i = 0; i < 64; ++i) acc = HashMix(acc + static_cast<uint64_t>(i));
      output->push_back(
          {r[0], r[1], Value(static_cast<int64_t>(acc & 0x7fffffff))});
    }
    return Status::OK();
  };
  return stage;
}

struct StageRun {
  mr::StageStats stats;
  double host_wall = 0;
};

StageRun RunOnce(const mr::Dataset& input, bool adaptive,
                 std::map<std::string, mr::Dataset>* keep_store = nullptr) {
  mr::LocalCluster cluster(kParts);
  std::map<std::string, mr::Dataset> store;
  store["in"] = input;
  StageRun r;
  Stopwatch host;
  Status s = cluster.RunStage(SkewStage(adaptive), &store, &r.stats);
  r.host_wall = host.ElapsedSeconds();
  TIMR_CHECK(s.ok()) << s.ToString();
  if (keep_store != nullptr) *keep_store = std::move(store);
  return r;
}

double RowsRatio(const mr::StageStats& s) {
  return s.partition_rows_median > 0
             ? static_cast<double>(s.partition_rows_max) /
                   s.partition_rows_median
             : 0;
}

double SecondsRatio(const mr::StageStats& s) {
  return s.partition_seconds_median > 0
             ? s.partition_seconds_max / s.partition_seconds_median
             : 0;
}

void AppendStageJson(const char* mode, const StageRun& run, double speedup) {
  benchutil::JsonLine("bench_skew")
      .Str("section", "hot_stage")
      .Str("mode", mode)
      .Num("host_wall_seconds", run.host_wall)
      .Num("simulated_seconds", run.stats.simulated_parallel_seconds)
      .Int("partition_rows_max", run.stats.partition_rows_max)
      .Num("partition_rows_median", run.stats.partition_rows_median)
      .Num("partition_rows_ratio", RowsRatio(run.stats))
      .Num("partition_seconds_max", run.stats.partition_seconds_max)
      .Num("partition_seconds_median", run.stats.partition_seconds_median)
      .Num("partition_seconds_ratio", SecondsRatio(run.stats))
      .Int("hot_keys_detected",
           static_cast<long long>(run.stats.hot_keys_detected))
      .Int("partitions_split",
           static_cast<long long>(run.stats.partitions_split))
      .Int("virtual_partitions",
           static_cast<long long>(run.stats.virtual_partitions))
      .Num("post_split_rows_ratio", run.stats.post_split_rows_ratio)
      .Num("simulated_speedup", speedup)
      .Append();
}

/// Part 1: the gated microbench. Eight heavy keys colliding in one partition
/// of sixteen; splitting spreads them across distinct virtual slots.
void HotStageSection() {
  const double scale = benchutil::BenchScale();
  const int rows_per_hot = static_cast<int>(12000 * scale);
  const int background = static_cast<int>(240000 * scale);
  const mr::Dataset input = MakeSkewedInput(8, rows_per_hot, background);
  std::printf("input: %zu rows, %d partitions, 8 hot keys x %d rows all in"
              " partition 0\n",
              input.TotalRows(), kParts, rows_per_hot);

  // Correctness first, before any timing: the split run's coalesced output
  // must be byte-identical, partition by partition, to the unsplit run's.
  std::map<std::string, mr::Dataset> off_store, on_store;
  StageRun off = RunOnce(input, false, &off_store);
  StageRun on = RunOnce(input, true, &on_store);
  TIMR_CHECK(on.stats.partitions_split >= 1);
  TIMR_CHECK(on.stats.hot_keys_detected >= 8);
  const mr::Dataset& a = off_store.at("out");
  const mr::Dataset& b = on_store.at("out");
  TIMR_CHECK(a.num_partitions() == b.num_partitions());
  for (size_t p = 0; p < a.num_partitions(); ++p) {
    TIMR_CHECK(a.partition(p) == b.partition(p))
        << "output partition " << p << " differs between split and unsplit";
  }
  benchutil::Note("outputs byte-identical (asserted per partition)");

  // The row-count gates are pure functions of the input — check them hard.
  TIMR_CHECK(RowsRatio(off.stats) >= 4.0)
      << "unmitigated rows skew " << RowsRatio(off.stats) << " < 4x";
  TIMR_CHECK(on.stats.post_split_rows_ratio <= 2.0)
      << "post-split rows skew " << on.stats.post_split_rows_ratio << " > 2x";

  // Timed rounds: keep the minimum per mode so host scheduling noise cancels.
  constexpr int kRounds = 3;
  for (int i = 0; i < kRounds; ++i) {
    StageRun o = RunOnce(input, false);
    StageRun s = RunOnce(input, true);
    std::printf("round %d: off sim %.4f s (host %.3f s), on sim %.4f s"
                " (host %.3f s)\n",
                i + 1, o.stats.simulated_parallel_seconds, o.host_wall,
                s.stats.simulated_parallel_seconds, s.host_wall);
    if (o.stats.simulated_parallel_seconds <
        off.stats.simulated_parallel_seconds) {
      o.host_wall = std::min(o.host_wall, off.host_wall);
      off = o;
    }
    if (s.stats.simulated_parallel_seconds <
        on.stats.simulated_parallel_seconds) {
      s.host_wall = std::min(s.host_wall, on.host_wall);
      on = s;
    }
  }

  const double speedup = off.stats.simulated_parallel_seconds /
                         on.stats.simulated_parallel_seconds;
  std::printf("\n%-26s %12s %12s %11s %11s\n", "", "sim (s)", "host (s)",
              "rows ratio", "sec ratio");
  std::printf("%-26s %12.4f %12.3f %11.2f %11.2f\n", "policy off",
              off.stats.simulated_parallel_seconds, off.host_wall,
              RowsRatio(off.stats), SecondsRatio(off.stats));
  std::printf("%-26s %12.4f %12.3f %11.2f %11.2f\n", "policy on (split)",
              on.stats.simulated_parallel_seconds, on.host_wall,
              on.stats.post_split_rows_ratio, SecondsRatio(on.stats));
  std::printf("%-26s %11.2fx  (target >= 1.3x on the simulated makespan)\n",
              "speedup", speedup);
  std::printf("detected %d hot keys, split %d partition(s) into %d virtual"
              " partitions\n",
              on.stats.hot_keys_detected, on.stats.partitions_split,
              on.stats.virtual_partitions);

  AppendStageJson("off", off, 1.0);
  AppendStageJson("on", on, speedup);
}

/// Part 2: end-to-end. The full BT feature pipeline over a Zipf-skewed log
/// (user_activity_zipf, bot multipliers neutralized), adaptive repartitioning
/// off vs on through TimrOptions — identical relations asserted, per-stage
/// split decisions reported. A single dominant user key can only move whole,
/// so this section is reported, not gated; the stats show what the splitter
/// found and did on a realistic keyed workload.
void BtPipelineSection() {
  workload::GeneratorConfig cfg = benchutil::BenchWorkload();
  cfg.user_activity_zipf = 1.2;
  cfg.bot_activity_multiplier = 1.0;
  cfg.bot_impression_multiplier = 1.0;
  auto log = workload::GenerateBtLog(cfg);
  const auto rows = T::RowsFromEvents(log.events, false).ValueOrDie();
  const auto plan =
      bt::BtFeaturePipeline(benchutil::BenchBtConfig(), bt::Annotation::kStandard)
          .node();
  std::printf("workload: %zu events, zipf_s=%.2f over %d users\n",
              log.events.size(), cfg.user_activity_zipf, cfg.num_users);

  struct BtRun {
    double host_wall = 0;
    mr::JobStats stats;
    std::vector<T::Event> output;
  };
  auto run_mode = [&](bool adaptive) {
    mr::LocalCluster cluster(/*num_machines=*/kParts);
    std::map<std::string, mr::Dataset> store;
    store[bt::kBtInput] =
        mr::Dataset::FromRows(T::PointRowSchema(bt::UnifiedSchema()), rows);
    framework::TimrOptions options;
    if (adaptive) options.job.skew = BenchSkewPolicy();
    BtRun r;
    Stopwatch host;
    auto run = framework::RunPlan(&cluster, plan, &store, options);
    r.host_wall = host.ElapsedSeconds();
    TIMR_CHECK(run.ok()) << run.status().ToString();
    r.stats = std::move(run.ValueOrDie().job_stats);
    r.output = std::move(run.ValueOrDie().output);
    T::SortEventsCanonical(&r.output);
    return r;
  };

  BtRun off = run_mode(false);
  BtRun on = run_mode(true);
  TIMR_CHECK(off.output.size() == on.output.size());
  for (size_t i = 0; i < off.output.size(); ++i) {
    TIMR_CHECK(off.output[i].le == on.output[i].le &&
               off.output[i].re == on.output[i].re &&
               off.output[i].payload == on.output[i].payload)
        << "BT output event " << i << " differs with splitting on";
  }
  benchutil::Note("BT outputs identical with splitting on vs off (asserted)");

  int splits = 0, hot_keys = 0;
  for (const auto& s : on.stats.stages) {
    splits += s.partitions_split;
    hot_keys += s.hot_keys_detected;
    if (s.partitions_split > 0) {
      std::printf("  %-22s rows ratio %5.2f -> %5.2f  (%d hot key(s), +%d"
                  " virtual)\n",
                  s.name.c_str(),
                  s.partition_rows_median > 0
                      ? static_cast<double>(s.partition_rows_max) /
                            s.partition_rows_median
                      : 0,
                  s.post_split_rows_ratio, s.hot_keys_detected,
                  s.virtual_partitions);
    }
  }
  TIMR_CHECK(splits >= 1) << "the Zipf-skewed BT job split nothing";
  std::printf("BT pipeline: off sim %.4f s, on sim %.4f s; %d partition(s)"
              " split, %d hot key(s)\n",
              off.stats.TotalSimulatedSeconds(),
              on.stats.TotalSimulatedSeconds(), splits, hot_keys);

  benchutil::JsonLine("bench_skew")
      .Str("section", "bt_pipeline")
      .Str("mode", "off")
      .Num("host_wall_seconds", off.host_wall)
      .Num("simulated_seconds", off.stats.TotalSimulatedSeconds())
      .Append();
  benchutil::JsonLine("bench_skew")
      .Str("section", "bt_pipeline")
      .Str("mode", "on")
      .Num("host_wall_seconds", on.host_wall)
      .Num("simulated_seconds", on.stats.TotalSimulatedSeconds())
      .Int("partitions_split", static_cast<long long>(splits))
      .Int("hot_keys_detected", static_cast<long long>(hot_keys))
      .Append();
  benchutil::AppendJobStatsJson("bench_skew_bt_on", on.stats);
}

}  // namespace

int main() {
  benchutil::Header(
      "Adaptive skew-aware repartitioning: hot keyed stage, policy off vs on"
      " (identical outputs asserted)");
  HotStageSection();
  benchutil::Header(
      "BT feature pipeline on a Zipf-skewed log, splitting off vs on");
  BtPipelineSection();
  return 0;
}
