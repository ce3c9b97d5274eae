// Shared helpers for the figure-reproduction harnesses.
//
// Each bench binary regenerates one table/figure of the paper's §V and prints
// it in a comparable layout. Scale with TIMR_BENCH_SCALE (default 1.0): the
// synthetic log grows linearly with it.
//
// Machine-readable mode: setting TIMR_BENCH_JSON=path makes every bench
// append one JSON object per measured line to that file, so a perf
// trajectory (BENCH_*.json) can be tracked across commits.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bt/queries.h"
#include "mr/cluster.h"
#include "workload/generator.h"

namespace timr::benchutil {

inline double BenchScale() {
  const char* s = std::getenv("TIMR_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

/// The "one week of logs" stand-in used by every BT bench (paper §V-A).
inline workload::GeneratorConfig BenchWorkload() {
  workload::GeneratorConfig cfg;
  cfg.num_users = static_cast<int>(2000 * BenchScale());
  cfg.vocab_size = 20000;
  cfg.duration = 7 * temporal::kDay;
  cfg.num_ad_classes = 10;
  return cfg;
}

inline bt::BtQueryConfig BenchBtConfig() {
  bt::BtQueryConfig cfg;
  cfg.selection_period = 8 * temporal::kDay;  // covers the whole log
  // Thresholds tuned to the generator's bot intensity (~25x search rate).
  cfg.bot_search_threshold = 60;
  cfg.bot_click_threshold = 30;
  return cfg;
}

inline void Header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void Note(const std::string& text) { std::printf("%s\n", text.c_str()); }

// ---------- Machine-readable bench output (TIMR_BENCH_JSON) ----------

// Run metadata, fixed when the bench build is configured (bench/CMakeLists).
#ifndef TIMR_GIT_SHA
#define TIMR_GIT_SHA "unknown"
#endif
#ifndef TIMR_BUILD_TYPE
#define TIMR_BUILD_TYPE "unknown"
#endif

/// One JSON line, appended to $TIMR_BENCH_JSON (no-op when unset). Every line
/// records the git sha, core count and build type it was measured with, so a
/// committed BENCH file says which code on which host it describes. Usage:
///   JsonLine("bench_fig15").Str("stage", name).Num("wall_seconds", s).Append();
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) {
    os_ << "{\"bench\":";
    Quote(bench);
    Num("scale", BenchScale());
    Str("git_sha", TIMR_GIT_SHA);
    Int("nproc", static_cast<long long>(std::thread::hardware_concurrency()));
    Str("build_type", TIMR_BUILD_TYPE);
  }

  JsonLine& Str(const std::string& key, const std::string& value) {
    Key(key);
    Quote(value);
    return *this;
  }

  JsonLine& Num(const std::string& key, double value) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    os_ << buf;
    return *this;
  }

  JsonLine& Int(const std::string& key, long long value) {
    Key(key);
    os_ << value;
    return *this;
  }

  JsonLine& Int(const std::string& key, size_t value) {
    return Int(key, static_cast<long long>(value));
  }

  void Append() {
    const char* path = std::getenv("TIMR_BENCH_JSON");
    if (path == nullptr || *path == '\0') return;
    std::ofstream f(path, std::ios::app);
    f << os_.str() << "}\n";
  }

 private:
  void Key(const std::string& key) {
    os_ << ',';
    Quote(key);
    os_ << ':';
  }

  void Quote(const std::string& s) {
    os_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << c;
    }
    os_ << '"';
  }

  std::ostringstream os_;
};

/// One JSON line per stage of a cluster job: row counts, host wall time, and
/// the per-phase breakdown (map/shuffle, sort, reduce) from StageStats.
inline void AppendJobStatsJson(const std::string& bench,
                               const mr::JobStats& stats) {
  for (const auto& s : stats.stages) {
    JsonLine(bench)
        .Str("stage", s.name)
        .Int("rows_in", s.rows_in)
        .Int("rows_shuffled", s.rows_shuffled)
        .Int("rows_out", s.rows_out)
        .Int("partitions", static_cast<long long>(s.partitions))
        .Num("wall_seconds", s.wall_seconds)
        .Num("map_shuffle_seconds", s.map_shuffle_seconds)
        .Num("sort_seconds", s.sort_seconds)
        .Num("reduce_seconds", s.reduce_seconds)
        .Num("simulated_seconds", s.simulated_parallel_seconds)
        .Num("partition_seconds_max", s.partition_seconds_max)
        .Num("partition_seconds_median", s.partition_seconds_median)
        .Int("partition_rows_max", s.partition_rows_max)
        .Num("partition_rows_median", s.partition_rows_median)
        .Int("hot_keys_detected", static_cast<long long>(s.hot_keys_detected))
        .Int("partitions_split", static_cast<long long>(s.partitions_split))
        .Int("virtual_partitions",
             static_cast<long long>(s.virtual_partitions))
        .Num("post_split_rows_ratio", s.post_split_rows_ratio)
        .Int("task_attempts", static_cast<long long>(s.task_attempts))
        .Int("retried_tasks", static_cast<long long>(s.retried_tasks))
        .Int("speculative_tasks", static_cast<long long>(s.speculative_tasks))
        .Int("speculative_won", static_cast<long long>(s.speculative_won))
        .Int("quarantined_rows", s.quarantined_rows)
        .Int("workers", static_cast<long long>(s.workers))
        .Int("worker_restarts", static_cast<long long>(s.worker_restarts))
        .Int("rpc_retries", static_cast<long long>(s.rpc_retries))
        .Int("heartbeat_timeouts",
             static_cast<long long>(s.heartbeat_timeouts))
        .Int("rpc_request_bytes", s.rpc_request_bytes)
        .Int("rpc_response_bytes", s.rpc_response_bytes)
        .Int("segment_bytes", s.segment_bytes)
        .Append();
  }
}

/// Print the per-phase wall-time table benches use to attribute stage cost.
inline void PrintPhaseTable(const mr::JobStats& stats) {
  std::printf("%-22s %10s %10s %10s %10s %12s\n", "stage", "wall (s)",
              "map (s)", "sort (s)", "reduce (s)", "rows shuffled");
  for (const auto& s : stats.stages) {
    std::printf("%-22s %10.4f %10.4f %10.4f %10.4f %12zu\n", s.name.c_str(),
                s.wall_seconds, s.map_shuffle_seconds, s.sort_seconds,
                s.reduce_seconds, s.rows_shuffled);
  }
}

}  // namespace timr::benchutil
