// Map-reduce substrate tests: partitioning, canonical shuffle order,
// multi-input stages, fault injection and retry policy, speculative
// execution, poison-row quarantine, checkpoint/resume, stats, and error
// paths. The Chaos suite at the bottom drives the full BT pipeline through
// randomized-but-replayable fault schedules and demands bit-identical output
// (paper §III-C.1).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bt/queries.h"
#include "bt/suite_runner.h"
#include "bt_test_util.h"
#include "common/rng.h"
#include "mr/checkpoint.h"
#include "mr/cluster.h"
#include "mr/driver.h"
#include "mr/fault.h"
#include "mr/runtime_util.h"
#include "timr/suite.h"

namespace timr::mr {
namespace {

Schema RowSchema() {
  return Schema::Of({{"Time", ValueType::kInt64},
                     {"Key", ValueType::kInt64},
                     {"Val", ValueType::kInt64}});
}

Dataset MakeData(std::vector<std::tuple<int64_t, int64_t, int64_t>> rows) {
  std::vector<Row> out;
  for (auto& [t, k, v] : rows) out.push_back({Value(t), Value(k), Value(v)});
  return Dataset::FromRows(RowSchema(), std::move(out));
}

/// Worker counts for tests that must hold on both task backends: the
/// in-process backend (0), and the worker-gang backend (2) where this build
/// supports it.
std::vector<int> BackendWorkers() {
  if (!ProcessModeSupported()) return {0};
  return {0, 2};
}

ProcessOptions Workers(int workers) {
  ProcessOptions p;
  p.workers = workers;
  return p;
}

MRStage IdentityStage(std::string in, std::string out, int key_col) {
  MRStage stage;
  stage.name = "identity";
  stage.inputs = {std::move(in)};
  stage.output = std::move(out);
  stage.output_schema = RowSchema();
  stage.partition_fn = HashPartitioner({{key_col}});
  stage.reducer = [](int, const std::vector<std::vector<Row>>& inputs,
                     std::vector<Row>* output) {
    *output = inputs[0];
    return Status::OK();
  };
  return stage;
}

TEST(Cluster, HashPartitioningGroupsKeysTogether) {
  LocalCluster cluster(4, 2);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 7, 0}, {2, 7, 1}, {3, 9, 2}, {4, 7, 3}});

  MRStage stage = IdentityStage("in", "out", 1);
  stage.reducer = [](int p, const std::vector<std::vector<Row>>& inputs,
                     std::vector<Row>* output) {
    // All rows of one key must land in the same partition: report
    // (partition, key) pairs.
    for (const Row& r : inputs[0]) {
      output->push_back({Value(int64_t{p}), r[1], Value(int64_t{0})});
    }
    return Status::OK();
  };
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  std::map<int64_t, std::set<int64_t>> partitions_of_key;
  for (const Row& r : store.at("out").Gather()) {
    partitions_of_key[r[1].AsInt64()].insert(r[0].AsInt64());
  }
  EXPECT_EQ(partitions_of_key[7].size(), 1u);
  EXPECT_EQ(partitions_of_key[9].size(), 1u);
  EXPECT_EQ(stats.rows_in, 4u);
  EXPECT_EQ(stats.rows_out, 4u);
}

TEST(Cluster, ReducerInputSortedByTimeCanonically) {
  LocalCluster cluster(1, 1);
  std::map<std::string, Dataset> store;
  // Deliberately unsorted, with a timestamp tie broken by row content.
  store["in"] = MakeData({{5, 1, 9}, {2, 1, 3}, {5, 1, 1}, {1, 1, 0}});

  MRStage stage = IdentityStage("in", "out", 1);
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  auto rows = store.at("out").Gather();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[1][0].AsInt64(), 2);
  EXPECT_EQ(rows[2][0].AsInt64(), 5);
  EXPECT_EQ(rows[2][2].AsInt64(), 1);  // tie: smaller payload first
  EXPECT_EQ(rows[3][2].AsInt64(), 9);
}

TEST(Cluster, MultiInputStageDeliversPerInputRows) {
  LocalCluster cluster(2, 2);
  std::map<std::string, Dataset> store;
  store["a"] = MakeData({{1, 1, 10}});
  store["b"] = MakeData({{2, 1, 20}, {3, 1, 30}});

  MRStage stage;
  stage.name = "multi";
  stage.inputs = {"a", "b"};
  stage.output = "out";
  stage.output_schema = RowSchema();
  stage.partition_fn = HashPartitioner({{1}, {1}});
  stage.reducer = [](int, const std::vector<std::vector<Row>>& inputs,
                     std::vector<Row>* output) {
    output->push_back({Value(int64_t{0}),
                       Value(static_cast<int64_t>(inputs[0].size())),
                       Value(static_cast<int64_t>(inputs[1].size()))});
    return Status::OK();
  };
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  int64_t a_total = 0, b_total = 0;
  for (const Row& r : store.at("out").Gather()) {
    a_total += r[1].AsInt64();
    b_total += r[2].AsInt64();
  }
  EXPECT_EQ(a_total, 1);
  EXPECT_EQ(b_total, 2);
}

TEST(Cluster, ReplicatingPartitionerDuplicatesRows) {
  LocalCluster cluster(3, 2);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 0}});

  MRStage stage = IdentityStage("in", "out", 1);
  stage.partition_fn = [](int, const Row&, int parts, std::vector<int>* t) {
    for (int i = 0; i < parts; ++i) t->push_back(i);  // broadcast
  };
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  EXPECT_EQ(stats.rows_shuffled, 6u);
  EXPECT_EQ(store.at("out").TotalRows(), 6u);
}

TEST(Cluster, FailureInjectionRetriesAndMatches) {
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 1}, {3, 3, 2}, {4, 4, 3}});

  LocalCluster cluster(4, 2);
  MRStage stage = IdentityStage("in", "out", 1);
  StageStats clean_stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &clean_stats).ok());
  auto clean = store.at("out").Gather();

  ScriptedFaultInjector injector;
  injector.InjectAt("identity", 0, 0, {FaultKind::kDiscardOutput});
  injector.InjectAt("identity", 3, 0, {FaultKind::kDiscardOutput});
  cluster.set_fault_injector(&injector);
  stage.output = "out2";
  StageStats retry_stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &retry_stats).ok());
  EXPECT_TRUE(injector.empty());
  EXPECT_EQ(retry_stats.retried_tasks, 2);
  EXPECT_EQ(retry_stats.speculative_tasks, 0);
  EXPECT_EQ(retry_stats.task_attempts, retry_stats.partitions + 2);
  EXPECT_EQ(store.at("out2").Gather(), clean);
}

TEST(Cluster, MissingInputDatasetIsKeyError) {
  LocalCluster cluster(2, 1);
  std::map<std::string, Dataset> store;
  StageStats stats;
  Status st = cluster.RunStage(IdentityStage("nope", "out", 1), &store, &stats);
  EXPECT_EQ(st.code(), StatusCode::kKeyError);
}

TEST(Cluster, OutOfRangePartitionTargetIsError) {
  LocalCluster cluster(2, 1);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}});
  MRStage stage = IdentityStage("in", "out", 1);
  stage.partition_fn = [](int, const Row&, int, std::vector<int>* t) {
    t->push_back(99);
  };
  StageStats stats;
  EXPECT_FALSE(cluster.RunStage(stage, &store, &stats).ok());
}

TEST(Cluster, ReducerErrorExhaustsRetriesIntoTaskFailed) {
  LocalCluster cluster(2, 1);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}});
  MRStage stage = IdentityStage("in", "out", 1);
  stage.reducer = [](int, const std::vector<std::vector<Row>>&,
                     std::vector<Row>*) {
    return Status::ExecutionError("boom");
  };
  StageStats stats;
  Status st = cluster.RunStage(stage, &store, &stats);
  // A persistent reducer error burns the whole retry budget, then fails the
  // job with a structured diagnostic naming stage, partition, and attempts.
  EXPECT_EQ(st.code(), StatusCode::kTaskFailed);
  EXPECT_NE(st.message().find("stage identity partition 0"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("after 3 attempts"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("boom"), std::string::npos) << st.ToString();
  // No partial output reaches the store.
  EXPECT_EQ(store.count("out"), 0u);
}

TEST(Cluster, JobRunsStagesInOrder) {
  LocalCluster cluster(2, 2);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 1}, {2, 2, 2}});
  MRStage s1 = IdentityStage("in", "mid", 1);
  s1.name = "s1";
  MRStage s2 = IdentityStage("mid", "out", 1);
  s2.name = "s2";
  auto stats = cluster.RunJob({s1, s2}, &store);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueOrDie().stages.size(), 2u);
  EXPECT_EQ(store.at("out").TotalRows(), 2u);
  EXPECT_GE(stats.ValueOrDie().TotalSimulatedSeconds(), 0.0);
}

// Two stages run on one pool from two threads: stage B must finish while
// stage A's reducer is still held, so no stage waits for another stage's
// tasks. A is released after 5 s at the latest, so a runtime that makes B
// wait fails here instead of hanging.
TEST(Cluster, StagesOnOnePoolDoNotWaitOnEachOther) {
  LocalCluster cluster(2, 4);
  std::map<std::string, Dataset> store;
  store["a_in"] = MakeData({{1, 1, 1}});
  store["b_in"] = MakeData({{1, 1, 1}, {2, 2, 2}});
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  bool a_done = false;
  MRStage a = IdentityStage("a_in", "a_out", 1);
  a.name = "a";
  a.num_partitions = 1;
  a.reducer = [&](int, const std::vector<std::vector<Row>>& inputs,
                  std::vector<Row>* output) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return released; });
    a_done = true;
    *output = inputs[0];
    return Status::OK();
  };
  MRStage b = IdentityStage("b_in", "b_out", 1);
  b.name = "b";

  Status a_status;
  StageStats a_stats;
  std::thread ta([&] { a_status = cluster.RunStage(a, &store, &a_stats); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  Status b_status;
  StageStats b_stats;
  std::thread tb([&] { b_status = cluster.RunStage(b, &store, &b_stats); });
  tb.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(a_done) << "stage b waited for stage a's reducer";
    released = true;
  }
  cv.notify_all();
  ta.join();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
  EXPECT_TRUE(b_status.ok()) << b_status.ToString();
  EXPECT_EQ(store.at("a_out").TotalRows(), 1u);
  EXPECT_EQ(store.at("b_out").TotalRows(), 2u);
}

// Independent stages run side by side, but a failed job reports its
// lowest-indexed failure, as a sequential run would: here stage 1 fails
// first while stage 0 is still running into its own failure.
TEST(Cluster, JobReportsLowestIndexedFailure) {
  LocalCluster cluster(2, 4);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 1}});
  const auto failing = [](std::string name, double delay_seconds) {
    MRStage stage = IdentityStage("in", name + "_out", 1);
    stage.name = std::move(name);
    stage.num_partitions = 1;
    stage.reducer = [delay_seconds](int, const std::vector<std::vector<Row>>&,
                                    std::vector<Row>*) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_seconds));
      return Status::ExecutionError("reducer failed");
    };
    return stage;
  };
  auto job = cluster.RunJob({failing("slow", 0.05), failing("fast", 0)},
                            &store);
  ASSERT_FALSE(job.ok());
  EXPECT_NE(job.status().message().find("stage slow"), std::string::npos)
      << job.status().ToString();
}

// Synthetic data big enough that the map phase splits into several morsels.
Dataset BigData(int n) {
  std::vector<Row> rows;
  uint64_t x = 88172645463325252ull;  // xorshift64: deterministic "random" keys
  for (int i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rows.push_back({Value(static_cast<int64_t>(x % 1000)),
                    Value(static_cast<int64_t>(x % 97)),
                    Value(static_cast<int64_t>(i))});
  }
  return Dataset::FromRows(RowSchema(), std::move(rows));
}

TEST(Cluster, ShuffleIsDeterministicAcrossThreadCounts) {
  // The same stage must produce bit-identical datasets and stats for any
  // host thread count — the repeatability guarantee the reducers rely on.
  auto run = [](int num_threads) {
    LocalCluster cluster(8, num_threads);
    std::map<std::string, Dataset> store;
    store["in"] = BigData(20000);
    MRStage stage = IdentityStage("in", "out", 1);
    // Replicate some rows so the multi-target path is exercised too.
    stage.partition_fn = [](int, const Row& row, int parts,
                            std::vector<int>* t) {
      const int64_t k = row[1].AsInt64();
      t->push_back(static_cast<int>(k % parts));
      if (k % 5 == 0) t->push_back(static_cast<int>((k + 1) % parts));
    };
    StageStats stats;
    Status st = cluster.RunStage(stage, &store, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return std::make_pair(std::move(store), stats);
  };

  auto [store1, stats1] = run(1);
  for (int threads : {2, 5, 0 /* hardware */}) {
    auto [storeN, statsN] = run(threads);
    EXPECT_EQ(statsN.rows_in, stats1.rows_in);
    EXPECT_EQ(statsN.rows_shuffled, stats1.rows_shuffled);
    EXPECT_EQ(statsN.rows_out, stats1.rows_out);
    const Dataset& a = store1.at("out");
    const Dataset& b = storeN.at("out");
    ASSERT_EQ(a.num_partitions(), b.num_partitions());
    for (size_t p = 0; p < a.num_partitions(); ++p) {
      EXPECT_EQ(a.partition(p), b.partition(p)) << "partition " << p
                                                << ", threads=" << threads;
    }
  }
}

TEST(Cluster, PerPhaseStatsArePopulated) {
  for (const int workers : BackendWorkers()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    LocalCluster cluster(4, 2);
    cluster.set_process_options(Workers(workers));
    std::map<std::string, Dataset> store;
    store["in"] = BigData(5000);
    StageStats stats;
    ASSERT_TRUE(
        cluster.RunStage(IdentityStage("in", "out", 1), &store, &stats).ok());
    EXPECT_GT(stats.wall_seconds, 0.0);
    EXPECT_GT(stats.map_shuffle_seconds, 0.0);
    EXPECT_GT(stats.sort_seconds, 0.0);
    EXPECT_GT(stats.reduce_seconds, 0.0);
    // Phases are disjoint sub-intervals of the stage's wall time.
    EXPECT_LE(stats.map_shuffle_seconds + stats.sort_seconds +
                  stats.reduce_seconds,
              stats.wall_seconds + 1e-6);
    JobStats job;
    job.stages.push_back(stats);
    EXPECT_NE(job.ToString().find("map="), std::string::npos);
    EXPECT_NE(job.ToString().find("sort="), std::string::npos);
    EXPECT_NE(job.ToString().find("reduce="), std::string::npos);
  }
}

TEST(Cluster, ConsumableInputIsMovedAndReleased) {
  LocalCluster cluster(4, 2);
  std::map<std::string, Dataset> store;
  store["in"] = BigData(4000);
  const auto expected = [&] {
    std::map<std::string, Dataset> copy_store;
    copy_store["in"] = store.at("in");
    LocalCluster c2(4, 1);
    StageStats s;
    MRStage stage = IdentityStage("in", "out", 1);
    EXPECT_TRUE(c2.RunStage(stage, &copy_store, &s).ok());
    return copy_store.at("out").Gather();
  }();

  MRStage stage = IdentityStage("in", "out", 1);
  stage.consumable_inputs = {0};
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  // Output is identical to the copying path...
  EXPECT_EQ(store.at("out").Gather(), expected);
  // ...and the consumed input's partitions were released.
  EXPECT_EQ(store.at("in").TotalRows(), 0u);
  EXPECT_EQ(store.at("in").num_partitions(), 1u);  // shape & schema survive
}

TEST(Cluster, ConsumableIgnoredForDuplicateInputName) {
  // A self-join reads the same dataset through two input indices: consuming
  // either would corrupt the other, so the hint must be ignored.
  LocalCluster cluster(2, 2);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 10}, {2, 2, 20}});

  MRStage stage;
  stage.name = "selfjoin";
  stage.inputs = {"in", "in"};
  stage.output = "out";
  stage.output_schema = RowSchema();
  stage.num_partitions = 1;
  stage.partition_fn = SinglePartition();
  stage.consumable_inputs = {0, 1};
  stage.reducer = [](int, const std::vector<std::vector<Row>>& inputs,
                     std::vector<Row>* output) {
    output->push_back({Value(int64_t{0}),
                       Value(static_cast<int64_t>(inputs[0].size())),
                       Value(static_cast<int64_t>(inputs[1].size()))});
    return Status::OK();
  };
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  const Row& r = store.at("out").partition(0)[0];
  EXPECT_EQ(r[1].AsInt64(), 2);  // both sides saw both rows
  EXPECT_EQ(r[2].AsInt64(), 2);
  EXPECT_EQ(store.at("in").TotalRows(), 2u);  // source intact
}

/// Runs `stage` over a copy of `input` with the input consumable, and again
/// with it not consumable; returns both outputs and checks the consumed copy
/// was released.
std::pair<Dataset, Dataset> RunConsumedAndKept(MRStage stage,
                                               const Dataset& input,
                                               int workers) {
  const auto run = [&](bool consumable) {
    std::map<std::string, Dataset> store;
    store["in"] = input;
    stage.consumable_inputs.clear();
    if (consumable) stage.consumable_inputs = {0};
    LocalCluster cluster(4, 2);
    cluster.set_process_options(Workers(workers));
    StageStats stats;
    const Status st = cluster.RunStage(stage, &store, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(store.at("in").TotalRows(), consumable ? 0u : input.TotalRows());
    return store.at("out");
  };
  Dataset consumed = run(true);
  return {std::move(consumed), run(false)};
}

TEST(Cluster, CopartitionedConsumableInputIsHandedOverWhole) {
  // An input already partitioned by the stage's key, each partition in
  // canonical order, routes every partition whole to one bucket in order:
  // the bucket takes the partition's rows over instead of copying them.
  // Partition 0 is left out of order, so its bucket is sorted and copied.
  constexpr int kParts = 4;
  const KeyHashFn hash = MakeKeyHasher({{1}});
  Dataset input(RowSchema(), kParts);
  const Dataset rows = BigData(4000);
  for (const Row& row : rows.partition(0)) {
    input.partition(hash(0, row) % kParts).push_back(row);
  }
  for (int p = 1; p < kParts; ++p) {
    std::sort(input.partition(p).begin(), input.partition(p).end(),
              RowTimeLess);
  }
  ASSERT_FALSE(std::is_sorted(input.partition(0).begin(),
                              input.partition(0).end(), RowTimeLess));
  MRStage stage = IdentityStage("in", "out", 1);
  stage.num_partitions = kParts;

  for (const int workers : BackendWorkers()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto [consumed, kept] = RunConsumedAndKept(stage, input, workers);
    EXPECT_EQ(consumed.Gather(), kept.Gather());
  }

  // In-process, the reducer sees the source rows' own cell buffers.
  std::map<std::string, Dataset> store;
  store["in"] = input;
  std::set<const Value*> handed;
  for (int p = 1; p < kParts; ++p) {
    for (const Row& row : store.at("in").partition(p)) handed.insert(row.data());
  }
  std::atomic<size_t> own{0};
  stage.consumable_inputs = {0};
  stage.reducer = [&](int, const std::vector<std::vector<Row>>& inputs,
                      std::vector<Row>* output) {
    for (const Row& row : inputs[0]) own += handed.count(row.data());
    *output = inputs[0];
    return Status::OK();
  };
  LocalCluster cluster(4, 2);
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  EXPECT_EQ(own.load(), handed.size());
  EXPECT_EQ(store.at("out").TotalRows(), input.TotalRows());
}

TEST(Cluster, ReplicatedRowsFromAConsumableInputReachEveryTarget) {
  // Temporal partitioning over a consumable input: each row goes to the span
  // holding its time, and a row within kOverlap of the next span also to that
  // span. Every target gets its own copy of a replicated row.
  constexpr int64_t kSpan = 250;
  constexpr int64_t kOverlap = 20;
  MRStage stage = IdentityStage("in", "out", 1);
  stage.num_partitions = 4;
  stage.partition_fn = [](int, const Row& row, int parts,
                          std::vector<int>* t) {
    const int64_t time = row[0].AsInt64();
    const int span = static_cast<int>(time / kSpan);
    t->push_back(span);
    if (time % kSpan >= kSpan - kOverlap && span + 1 < parts) {
      t->push_back(span + 1);
    }
  };
  stage.reducer = [](int p, const std::vector<std::vector<Row>>& inputs,
                     std::vector<Row>* output) {
    for (const Row& row : inputs[0]) {
      output->push_back({row[0], Value(int64_t{p}), row[2]});
    }
    return Status::OK();
  };
  const Dataset input = BigData(6000);
  size_t boundary_rows = 0;
  for (const Row& row : input.partition(0)) {
    const int64_t time = row[0].AsInt64();
    boundary_rows += time % kSpan >= kSpan - kOverlap && time < 3 * kSpan;
  }
  ASSERT_GT(boundary_rows, 0u);

  for (const int workers : BackendWorkers()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto [consumed, kept] = RunConsumedAndKept(stage, input, workers);
    EXPECT_EQ(consumed.Gather(), kept.Gather());
    EXPECT_EQ(consumed.TotalRows(), input.TotalRows() + boundary_rows);
    // Each source row (unique Val) reaches exactly its targets.
    std::map<int64_t, std::set<int64_t>> parts_of_row;
    for (const Row& row : consumed.Gather()) {
      parts_of_row[row[2].AsInt64()].insert(row[1].AsInt64());
    }
    ASSERT_EQ(parts_of_row.size(), input.TotalRows());
    for (const Row& row : input.partition(0)) {
      const int64_t time = row[0].AsInt64();
      std::set<int64_t> want = {time / kSpan};
      if (time % kSpan >= kSpan - kOverlap && time < 3 * kSpan) {
        want.insert(time / kSpan + 1);
      }
      EXPECT_EQ(parts_of_row[row[2].AsInt64()], want) << "time " << time;
    }
  }
}

TEST(Cluster, OutOfRangeTargetErrorsUnderParallelMap) {
  LocalCluster cluster(2, 4);
  std::map<std::string, Dataset> store;
  store["in"] = BigData(10000);
  MRStage stage = IdentityStage("in", "out", 1);
  stage.partition_fn = [](int, const Row& row, int, std::vector<int>* t) {
    t->push_back(row[2].AsInt64() == 7777 ? 99 : 0);
  };
  StageStats stats;
  Status st = cluster.RunStage(stage, &store, &stats);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
  EXPECT_NE(st.ToString().find("out of range"), std::string::npos);
}

TEST(Cluster, SinglePartitionFunnelsEverything) {
  LocalCluster cluster(8, 2);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 0}, {3, 3, 0}});
  MRStage stage = IdentityStage("in", "out", 1);
  stage.num_partitions = 1;
  stage.partition_fn = SinglePartition();
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  EXPECT_EQ(stats.partitions, 1);
  EXPECT_EQ(store.at("out").partition(0).size(), 3u);
}

// ---------------------------------------------------------------------------
// Fault handling: exception containment, retry policy, scripted fault kinds.
// ---------------------------------------------------------------------------

TEST(Fault, ThrowingReducerBecomesStatusNotAbort) {
  LocalCluster cluster(2, 2);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 0}});
  MRStage stage = IdentityStage("in", "out", 1);
  stage.reducer = [](int, const std::vector<std::vector<Row>>&,
                     std::vector<Row>*) -> Status {
    throw std::runtime_error("kaboom");
  };
  StageStats stats;
  Status st = cluster.RunStage(stage, &store, &stats);
  // The exception is converted to a Status at the task boundary; after the
  // retry budget it surfaces as kTaskFailed with the what() preserved.
  EXPECT_EQ(st.code(), StatusCode::kTaskFailed);
  EXPECT_NE(st.message().find("reducer threw: kaboom"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(store.count("out"), 0u);
  EXPECT_GE(stats.retried_tasks, 2);  // at least two re-runs on partition 0
}

TEST(Fault, TransientErrorsWithinBudgetRecover) {
  LocalCluster cluster(2, 2);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 0}, {3, 3, 0}});

  MRStage stage = IdentityStage("in", "out", 1);
  StageStats clean_stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &clean_stats).ok());
  auto clean = store.at("out").Gather();

  // Two transient failures on one task: attempts 0 and 1 fail, attempt 2 (the
  // last allowed) succeeds.
  ScriptedFaultInjector injector;
  injector.InjectAt("identity", 0, 0, {FaultKind::kTransientError, 0});
  injector.InjectAt("identity", 0, 1, {FaultKind::kTransientError, 0});
  cluster.set_fault_injector(&injector);
  stage.output = "out2";
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  EXPECT_TRUE(injector.empty());
  EXPECT_EQ(stats.retried_tasks, 2);
  EXPECT_EQ(store.at("out2").Gather(), clean);
}

TEST(Fault, ExhaustedBudgetFailsWithStructuredDiagnostic) {
  LocalCluster cluster(2, 2);
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 0}});

  ScriptedFaultInjector injector;
  for (int attempt = 0; attempt < 3; ++attempt) {
    injector.InjectAt("identity", 0, attempt, {FaultKind::kCrash, 0});
  }
  cluster.set_fault_injector(&injector);
  StageStats stats;
  Status st = cluster.RunStage(IdentityStage("in", "out", 1), &store, &stats);
  EXPECT_EQ(st.code(), StatusCode::kTaskFailed);
  EXPECT_NE(st.message().find("stage identity partition 0"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("after 3 attempts"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(store.count("out"), 0u);  // no partial output in the store
}

TEST(Fault, EveryFaultKindIsAbsorbedBitIdentically) {
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 1}, {3, 3, 2}, {4, 4, 3}});
  LocalCluster cluster(4, 2);
  MRStage stage = IdentityStage("in", "out", 1);
  // Route by Val so partition 0 is guaranteed a row: kCorruptInput needs a
  // non-empty bucket to corrupt.
  stage.partition_fn = [](int, const Row& row, int parts,
                          std::vector<int>* t) {
    t->push_back(static_cast<int>(row[2].AsInt64()) % parts);
  };
  StageStats clean_stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &clean_stats).ok());
  auto clean = store.at("out").Gather();

  struct Case {
    FaultKind kind;
    bool costs_retry;  // straggler delays but does not fail the attempt
  };
  const Case cases[] = {
      {FaultKind::kCrash, true},         {FaultKind::kTransientError, true},
      {FaultKind::kPartialOutput, true}, {FaultKind::kDiscardOutput, true},
      {FaultKind::kStraggler, false},    {FaultKind::kCorruptInput, true},
  };
  int out_index = 0;
  for (const Case& c : cases) {
    ScriptedFaultInjector injector;
    injector.InjectAt("identity", 0, 0, {c.kind, 0.01});
    cluster.set_fault_injector(&injector);
    stage.output = "out_" + std::to_string(out_index++);
    StageStats stats;
    Status st = cluster.RunStage(stage, &store, &stats);
    ASSERT_TRUE(st.ok()) << FaultKindName(c.kind) << ": " << st.ToString();
    EXPECT_TRUE(injector.empty()) << FaultKindName(c.kind);
    EXPECT_EQ(stats.retried_tasks, c.costs_retry ? 1 : 0)
        << FaultKindName(c.kind);
    EXPECT_EQ(store.at(stage.output).Gather(), clean) << FaultKindName(c.kind);
  }
  cluster.set_fault_injector(nullptr);
}

// ---------------------------------------------------------------------------
// Speculative execution.
// ---------------------------------------------------------------------------

TEST(Fault, SpeculativeBackupBeatsStraggler) {
  for (const int workers : BackendWorkers()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::map<std::string, Dataset> store;
    store["in"] = MakeData({{1, 0, 0}, {2, 1, 1}, {3, 2, 2}, {4, 3, 3}});
    LocalCluster cluster(4, /*num_threads=*/3);
    cluster.set_process_options(Workers(workers));
    MRStage stage = IdentityStage("in", "out", 1);
    stage.partition_fn = [](int, const Row& row, int parts,
                            std::vector<int>* t) {
      t->push_back(static_cast<int>(row[1].AsInt64()) % parts);
    };

    StageStats clean_stats;
    ASSERT_TRUE(cluster.RunStage(stage, &store, &clean_stats).ok());
    auto clean = store.at("out").Gather();

    // Partition 0's first attempt stalls for ~1.5s; the other partitions
    // finish in microseconds, so the monitor's median-based threshold trips
    // quickly and launches a backup, which wins. The stalled primary
    // eventually completes with identical output (verified byte-for-byte).
    ScriptedFaultInjector injector;
    injector.InjectAt("identity", 0, 0, {FaultKind::kStraggler, 1.5});
    cluster.set_fault_injector(&injector);
    FaultToleranceOptions ft;
    ft.speculative_execution = true;
    ft.min_straggler_seconds = 0.05;
    ft.straggler_factor = 4.0;
    cluster.set_fault_tolerance(ft);

    stage.output = "out2";
    StageStats stats;
    ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
    EXPECT_GE(stats.speculative_tasks, 1);
    EXPECT_GE(stats.speculative_won, 1);
    EXPECT_EQ(stats.retried_tasks, 0);
    EXPECT_EQ(store.at("out2").Gather(), clean);
  }
}

TEST(Fault, SpeculativeOutputMismatchIsDeterminismViolation) {
  for (const int workers : BackendWorkers()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::map<std::string, Dataset> store;
    store["in"] = MakeData({{1, 0, 0}, {2, 1, 1}});
    LocalCluster cluster(2, /*num_threads=*/3);
    cluster.set_process_options(Workers(workers));

    MRStage stage;
    stage.name = "nondet";
    stage.inputs = {"in"};
    stage.output = "out";
    stage.output_schema = RowSchema();
    stage.num_partitions = 2;
    stage.partition_fn = [](int, const Row& row, int parts,
                            std::vector<int>* t) {
      t->push_back(static_cast<int>(row[1].AsInt64()) % parts);
    };
    // A deliberately nondeterministic reducer: each invocation emits a
    // distinct value, so primary and backup cannot agree.
    auto counter = std::make_shared<std::atomic<int64_t>>(0);
    stage.reducer = [counter](int p, const std::vector<std::vector<Row>>&,
                              std::vector<Row>* output) {
      output->push_back({Value(int64_t{0}), Value(int64_t{p}),
                         Value(counter->fetch_add(1))});
      return Status::OK();
    };

    ScriptedFaultInjector injector;
    injector.InjectAt("nondet", 0, 0, {FaultKind::kStraggler, 1.0});
    cluster.set_fault_injector(&injector);
    FaultToleranceOptions ft;
    ft.speculative_execution = true;
    ft.min_straggler_seconds = 0.05;
    cluster.set_fault_tolerance(ft);

    StageStats stats;
    Status st = cluster.RunStage(stage, &store, &stats);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("determinism violation"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(store.count("out"), 0u);
  }
}

// ---------------------------------------------------------------------------
// Poison-row quarantine.
// ---------------------------------------------------------------------------

TEST(Fault, QuarantineDivertsPoisonRowsBelowThreshold) {
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 1}, {3, 3, 2}, {4, 4, 3}});
  LocalCluster cluster(2, 2);
  MRStage stage = IdentityStage("in", "out", 1);
  StageStats clean_stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &clean_stats).ok());
  auto clean = store.at("out").Gather();

  // Re-run with two poison rows injected: a mistyped Time cell and a
  // short row. Both would crash the shuffle sort / reducer if let through.
  std::map<std::string, Dataset> dirty_store;
  dirty_store["in"] = store.at("in");
  dirty_store["in"].partition(0).push_back(
      {Value("not-a-time"), Value(int64_t{9}), Value(int64_t{9})});
  dirty_store["in"].partition(0).push_back({Value(int64_t{5})});

  FaultToleranceOptions ft;
  ft.quarantine_inputs = true;
  ft.max_input_error_rate = 0.5;
  cluster.set_fault_tolerance(ft);
  stage.output = "out2";
  StageStats stats;
  Status st = cluster.RunStage(stage, &dirty_store, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.quarantined_rows, 2u);
  EXPECT_EQ(stats.rows_in, 6u);
  // Clean rows flow through untouched...
  EXPECT_EQ(dirty_store.at("out2").Gather(), clean);
  // ...and the poison rows land in <stage>.quarantine as
  // [input_index, original cells...].
  const Dataset& q = dirty_store.at("identity.quarantine");
  auto qrows = q.Gather();
  ASSERT_EQ(qrows.size(), 2u);
  EXPECT_EQ(qrows[0][0].AsInt64(), 0);  // input index
  EXPECT_EQ(qrows[0][1].AsString(), "not-a-time");
  EXPECT_EQ(qrows[1][1].AsInt64(), 5);
}

TEST(Fault, QuarantineAboveThresholdFailsWithDataError) {
  std::map<std::string, Dataset> store;
  store["in"] = MakeData({{1, 1, 0}, {2, 2, 1}});
  store["in"].partition(0).push_back({Value("bad"), Value(1), Value(1)});
  store["in"].partition(0).push_back({Value("worse"), Value(2), Value(2)});

  LocalCluster cluster(2, 2);
  FaultToleranceOptions ft;
  ft.quarantine_inputs = true;
  ft.max_input_error_rate = 0.25;  // 2 of 4 rows bad: 50% > 25%
  cluster.set_fault_tolerance(ft);
  StageStats stats;
  Status st = cluster.RunStage(IdentityStage("in", "out", 1), &store, &stats);
  EXPECT_EQ(st.code(), StatusCode::kDataError);
  EXPECT_NE(st.message().find("failed schema validation"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("max_input_error_rate"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(store.count("out"), 0u);
}

TEST(Fault, MalformedRowWithoutQuarantineIsStatusNotCrash) {
  for (const int workers : BackendWorkers()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::map<std::string, Dataset> store;
    store["in"] = MakeData({{1, 1, 0}});
    store["in"].partition(0).push_back({Value("bad"), Value(1), Value(1)});
    LocalCluster cluster(2, 2);
    cluster.set_process_options(Workers(workers));
    StageStats stats;
    Status st = cluster.RunStage(IdentityStage("in", "out", 1), &store, &stats);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kExecutionError);
    EXPECT_NE(st.message().find("shuffle sort threw"), std::string::npos)
        << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------------

/// An empty directory under the test temp dir, private to this process so
/// concurrent test runs cannot share it.
std::string FreshDir(const std::string& name) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) /
                           (name + "_" + std::to_string(getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

std::vector<MRStage> ThreeStageJob() {
  MRStage s1 = IdentityStage("in", "m1", 1);
  s1.name = "s1";
  MRStage s2 = IdentityStage("m1", "m2", 1);
  s2.name = "s2";
  s2.consumable_inputs = {0};  // m1 is released after s2's map phase
  MRStage s3 = IdentityStage("m2", "out", 1);
  s3.name = "s3";
  return {s1, s2, s3};
}

void ExpectStoreEquals(const std::map<std::string, Dataset>& a,
                       const std::map<std::string, Dataset>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, da] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << name;
    EXPECT_EQ(da.schema(), it->second.schema()) << name;
    ASSERT_EQ(da.num_partitions(), it->second.num_partitions()) << name;
    for (size_t p = 0; p < da.num_partitions(); ++p) {
      EXPECT_EQ(da.partition(p), it->second.partition(p))
          << name << " partition " << p;
    }
  }
}

TEST(Checkpoint, KillAndResumeReproducesStoreBitIdentically) {
  const Dataset input = BigData(3000);
  const auto stages = ThreeStageJob();

  std::map<std::string, Dataset> clean_store;
  clean_store["in"] = input;
  LocalCluster cluster(4, 2);
  ASSERT_TRUE(cluster.RunJob(stages, &clean_store).ok());

  for (int kill_after : {1, 2}) {
    CheckpointStore checkpoint;
    std::map<std::string, Dataset> store;
    store["in"] = input;
    JobOptions opts;
    opts.checkpoint = &checkpoint;
    opts.chaos_kill_after_stages = kill_after;
    auto killed = cluster.RunJob(stages, &store, opts);
    ASSERT_FALSE(killed.ok());
    EXPECT_NE(killed.status().message().find("chaos kill"), std::string::npos);
    EXPECT_EQ(checkpoint.num_stages(), static_cast<size_t>(kill_after));

    // The driver "dies"; a new run gets the external input again plus the
    // same checkpoint, and must reproduce the clean store exactly —
    // including intermediates the resumed stages consumed.
    std::map<std::string, Dataset> resumed_store;
    resumed_store["in"] = input;
    JobOptions resume_opts;
    resume_opts.checkpoint = &checkpoint;
    auto resumed = cluster.RunJob(stages, &resumed_store, resume_opts);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    const JobStats& stats = resumed.ValueOrDie();
    ASSERT_EQ(stats.stages.size(), stages.size());
    for (int i = 0; i < kill_after; ++i) {
      EXPECT_TRUE(stats.stages[i].recovered_from_checkpoint) << i;
    }
    EXPECT_FALSE(stats.stages.back().recovered_from_checkpoint);
    ExpectStoreEquals(clean_store, resumed_store);
  }
}

TEST(Checkpoint, SpillDirectorySurvivesDriverDeath) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "timr_ckpt_spill")
          .string();
  std::filesystem::remove_all(dir);

  const Dataset input = BigData(2000);
  const auto stages = ThreeStageJob();
  LocalCluster cluster(4, 2);

  std::map<std::string, Dataset> clean_store;
  clean_store["in"] = input;
  ASSERT_TRUE(cluster.RunJob(stages, &clean_store).ok());

  {
    CheckpointStore checkpoint(dir);
    std::map<std::string, Dataset> store;
    store["in"] = input;
    JobOptions opts;
    opts.checkpoint = &checkpoint;
    opts.chaos_kill_after_stages = 2;
    ASSERT_FALSE(cluster.RunJob(stages, &store, opts).ok());
  }  // checkpoint object destroyed: only the spill directory survives

  // A fresh CheckpointStore on the same directory recovers the manifest.
  CheckpointStore recovered(dir);
  EXPECT_EQ(recovered.num_stages(), 2u);
  std::map<std::string, Dataset> resumed_store;
  resumed_store["in"] = input;
  JobOptions opts;
  opts.checkpoint = &recovered;
  auto resumed = cluster.RunJob(stages, &resumed_store, opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectStoreEquals(clean_store, resumed_store);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, SpillFileAndManifestGoldenBytes) {
  // Pins the disk format: a change to these bytes is a format break. Two
  // partitions; int64, double and string cells; one released input.
  const std::string dir = FreshDir("timr_ckpt_golden");
  Dataset data(Schema::Of({{"Time", ValueType::kInt64},
                           {"Score", ValueType::kDouble},
                           {"Tag", ValueType::kString}}),
               2);
  data.partition(0) = {{Value(int64_t{10}), Value(0.5), Value("ab")}};
  data.partition(1) = {{Value(int64_t{-1}), Value(-2.0), Value("")}};
  CheckpointStore checkpoint(dir);
  ASSERT_TRUE(checkpoint.SaveStage(0, "s1", {{"m1", &data}}, {"in"}).ok());

  // Every frame is [magic "TRPC" | type u8 | 3 zero bytes | payload_len u64 |
  // FNV-1a(payload) u64] + payload; integers are little-endian here.
  const std::string golden_file =
      // kDatasetHeader frame: schema (3 fields) + partition count 2
      "5452504308000000" "3700000000000000" "3ec0add6729bc830"
      "0300000000000000" "0400000000000000" "54696d65" "00"
      "0500000000000000" "53636f7265" "01"
      "0300000000000000" "546167" "02"
      "0200000000000000"
      // kRowBlock frame, partition 0: 1 row (10, 0.5, "ab")
      "5452504309000000" "2d00000000000000" "162bc06fdaf0af31"
      "0100000000000000" "0300000000000000" "00" "0a00000000000000"
      "01" "000000000000e03f" "02" "0200000000000000" "6162"
      // kRowBlock frame, partition 1: 1 row (-1, -2.0, "")
      "5452504309000000" "2b00000000000000" "42ec61d5d48fb4db"
      "0100000000000000" "0300000000000000" "00" "ffffffffffffffff"
      "01" "00000000000000c0" "02" "0000000000000000";
  const std::string golden_manifest =
      // kManifest frame: 1 stage "s1", 2 primary rows, released {"in"},
      // outputs {("m1", "stage0_out0.ds", 2 rows, file hash)}
      "545250430a000000" "6400000000000000" "99625bf1e1bb17f1"
      "0100000000000000" "0200000000000000" "7331" "0200000000000000"
      "0100000000000000" "0200000000000000" "696e"
      "0100000000000000" "0200000000000000" "6d31"
      "0e00000000000000" "7374616765305f6f7574302e6473"
      "0200000000000000" "b6610aedb467b74c";
  EXPECT_EQ(Hex(ReadBytes(dir + "/stage0_out0.ds")), golden_file);
  EXPECT_EQ(Hex(ReadBytes(dir + "/manifest")), golden_manifest);

  std::map<std::string, Dataset> store;
  store["in"] = Dataset(data.schema(), 1);
  auto restored = CheckpointStore(dir).Restore({"s1"}, &store);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.ValueOrDie(), 1u);
  ExpectStoreEquals({{"in", Dataset(data.schema(), 1)}, {"m1", data}}, store);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, SpillsDatasetNamesWithTabsAndNewlines) {
  const std::string dir = FreshDir("timr_ckpt_names");
  const Dataset out = BigData(50);
  const Dataset side = MakeData({{1, 2, 3}});
  ASSERT_TRUE(CheckpointStore(dir)
                  .SaveStage(0, "s\t1", {{"out\tput", &out}, {"si\nde", &side}},
                             {"in\n"})
                  .ok());

  CheckpointStore recovered(dir);
  ASSERT_EQ(recovered.num_stages(), 1u);
  EXPECT_EQ(recovered.stage_name(0), "s\t1");
  EXPECT_EQ(recovered.released(0), std::vector<std::string>{"in\n"});
  std::map<std::string, Dataset> store;
  store["in\n"] = MakeData({{5, 5, 5}});
  auto restored = recovered.Restore({"s\t1", "s2"}, &store);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.ValueOrDie(), 1u);
  EXPECT_EQ(recovered.corruptions(), 0u);

  Dataset released = MakeData({{5, 5, 5}});
  for (size_t p = 0; p < released.num_partitions(); ++p) {
    released.partition(p).clear();
  }
  ExpectStoreEquals(
      {{"in\n", released}, {"out\tput", out}, {"si\nde", side}}, store);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, EveryByteFlipAndTruncationResumesBitIdentically) {
  // A small 3-stage job killed after stage 2 leaves two data files and a
  // manifest. Each mutation of one file must either restore identically or
  // be detected and re-run from the first bad stage — never wrong output,
  // an error, or an exception.
  const std::string clean_dir = FreshDir("timr_ckpt_mutation_clean");
  const std::string dir = FreshDir("timr_ckpt_mutation");
  std::filesystem::create_directories(dir);
  const Dataset input = BigData(24);
  const auto stages = ThreeStageJob();
  LocalCluster cluster(2, 1);

  std::map<std::string, Dataset> clean_store;
  clean_store["in"] = input;
  ASSERT_TRUE(cluster.RunJob(stages, &clean_store).ok());
  {
    CheckpointStore checkpoint(clean_dir);
    std::map<std::string, Dataset> store;
    store["in"] = input;
    JobOptions opts;
    opts.checkpoint = &checkpoint;
    opts.chaos_kill_after_stages = 2;
    ASSERT_FALSE(cluster.RunJob(stages, &store, opts).ok());
  }
  // File name -> (bytes, first stage a corruption of it invalidates).
  std::map<std::string, std::pair<std::string, size_t>> files;
  files["manifest"] = {ReadBytes(clean_dir + "/manifest"), 0};
  files["stage0_out0.ds"] = {ReadBytes(clean_dir + "/stage0_out0.ds"), 0};
  files["stage1_out0.ds"] = {ReadBytes(clean_dir + "/stage1_out0.ds"), 1};

  size_t undetected = 0;
  auto resume = [&](const std::string& victim, const std::string& bytes) {
    for (const auto& [name, file] : files) {
      std::ofstream(dir + "/" + name, std::ios::binary)
          << (name == victim ? bytes : file.first);
    }
    CheckpointStore checkpoint(dir);
    std::map<std::string, Dataset> store;
    store["in"] = input;
    JobOptions opts;
    opts.checkpoint = &checkpoint;
    auto run = cluster.RunJob(stages, &store, opts);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    size_t recovered = 0;
    for (const StageStats& s : run.ValueOrDie().stages) {
      recovered += s.recovered_from_checkpoint ? 1 : 0;
    }
    if (checkpoint.corruptions() == 0) {
      EXPECT_EQ(recovered, 2u);
      ++undetected;
    } else {
      EXPECT_EQ(checkpoint.corruptions(), 1u);
      EXPECT_EQ(recovered, files.at(victim).second);
    }
    ExpectStoreEquals(clean_store, store);
  };

  Rng rng(20121);
  for (const auto& [victim, file] : files) {
    const std::string& clean = file.first;
    for (size_t i = 0; i < clean.size() && !HasFailure(); ++i) {
      SCOPED_TRACE(victim + ": flip byte " + std::to_string(i));
      std::string flipped = clean;
      flipped[i] = static_cast<char>(flipped[i] ^ rng.UniformInt(1, 255));
      resume(victim, flipped);
    }
    for (size_t n = 0; n < clean.size() && !HasFailure(); ++n) {
      SCOPED_TRACE(victim + ": truncate to " + std::to_string(n));
      resume(victim, clean.substr(0, n));
    }
  }
  // Each frame's payload is hash-checked and the manifest records every data
  // file's whole-file hash; only the manifest frame's three header padding
  // bytes are covered by no hash, and nothing reads them.
  EXPECT_EQ(undetected, 3u);
  std::filesystem::remove_all(clean_dir);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, MismatchedStageListIsRejected) {
  CheckpointStore checkpoint;
  const Dataset input = MakeData({{1, 1, 0}});
  Dataset out = MakeData({{1, 1, 0}});
  ASSERT_TRUE(
      checkpoint.SaveStage(0, "sX", {{"mX", &out}}, {}).ok());
  std::map<std::string, Dataset> store;
  store["in"] = input;
  auto restored = checkpoint.Restore({"s1", "s2"}, &store);
  ASSERT_FALSE(restored.ok());
}

// ---------------------------------------------------------------------------
// AdaptiveSkew: sampled hot-key detection, deterministic salted splits, and
// the canonical coalesce (SkewPolicy, ROADMAP 5(b)).
// ---------------------------------------------------------------------------

SkewPolicy AggressiveSkewPolicy() {
  SkewPolicy policy;
  policy.adaptive_repartition = true;
  policy.skew_ratio_threshold = 2.0;
  policy.hot_key_fanout = 4;
  policy.min_partition_rows = 64;
  policy.sample_shift = 3;
  return policy;
}

/// Rows planting `num_hot` heavy keys that all collide in partition 0 of
/// `parts` (probed through the real key hash), over a uniform background of
/// singleton keys. The collision matters: a single hot key can only move as a
/// whole, but several colliding hot keys are exactly what the salted split
/// separates.
Dataset SkewedData(int parts, int num_hot, int rows_per_hot, int background) {
  auto hasher = MakeKeyHasher({{1}});
  std::vector<int64_t> hot;
  for (int64_t k = 0; static_cast<int>(hot.size()) < num_hot; ++k) {
    Row probe = {Value(int64_t{0}), Value(k), Value(int64_t{0})};
    if (hasher(0, probe) % static_cast<uint64_t>(parts) == 0) hot.push_back(k);
  }
  std::vector<Row> rows;
  int64_t t = 0;
  for (int64_t k : hot) {
    for (int i = 0; i < rows_per_hot; ++i) {
      rows.push_back({Value(t++), Value(k), Value(static_cast<int64_t>(i))});
    }
  }
  for (int i = 0; i < background; ++i) {
    rows.push_back(
        {Value(t++), Value(static_cast<int64_t>(1000 + i)), Value(int64_t{0})});
  }
  return Dataset::FromRows(RowSchema(), std::move(rows));
}

MRStage SkewedIdentityStage(int parts) {
  MRStage stage = IdentityStage("in", "out", 1);
  stage.num_partitions = parts;
  stage.key_hash_fn = MakeKeyHasher({{1}});
  return stage;
}

TEST(AdaptiveSkew, SplitsHotPartitionAndCoalescesExactly) {
  const int parts = 4;
  std::map<std::string, Dataset> store_off, store_on;
  store_off["in"] = SkewedData(parts, 3, 200, 200);
  store_on["in"] = SkewedData(parts, 3, 200, 200);

  LocalCluster cluster(parts, 2);
  MRStage stage = SkewedIdentityStage(parts);
  StageStats off_stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store_off, &off_stats).ok());
  EXPECT_EQ(off_stats.partitions_split, 0);
  // The row-skew stats are recorded with the policy off too — they are the
  // detector's input and the observable that says a split would help.
  EXPECT_GT(off_stats.partition_rows_max, 0u);
  EXPECT_GT(off_stats.partition_rows_median, 0.0);
  EXPECT_GT(static_cast<double>(off_stats.partition_rows_max),
            2.0 * off_stats.partition_rows_median);

  stage.skew = AggressiveSkewPolicy();
  StageStats on_stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store_on, &on_stats).ok());
  EXPECT_GE(on_stats.partitions_split, 1);
  EXPECT_GE(on_stats.hot_keys_detected, 3);
  EXPECT_EQ(on_stats.virtual_partitions,
            on_stats.partitions_split * stage.skew.hot_key_fanout);
  EXPECT_GT(on_stats.post_split_rows_ratio, 0.0);
  EXPECT_EQ(on_stats.rows_out, off_stats.rows_out);

  // The identity reducer emits its canonically sorted input, so the coalesced
  // split partitions must be *byte-identical* to the unsplit run's.
  const Dataset& off = store_off.at("out");
  const Dataset& on = store_on.at("out");
  ASSERT_EQ(off.num_partitions(), on.num_partitions());
  for (size_t p = 0; p < off.num_partitions(); ++p) {
    EXPECT_EQ(off.partition(p), on.partition(p)) << "partition " << p;
  }
}

TEST(AdaptiveSkew, DecisionsAndOutputStableAcrossThreadCounts) {
  const int parts = 4;
  MRStage stage = SkewedIdentityStage(parts);
  stage.skew = AggressiveSkewPolicy();

  Dataset reference;
  int ref_splits = -1;
  int ref_hot_keys = -1;
  for (int threads : {1, 2, 4}) {
    LocalCluster cluster(parts, threads);
    std::map<std::string, Dataset> store;
    store["in"] = SkewedData(parts, 3, 200, 200);
    StageStats stats;
    ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
    EXPECT_GE(stats.partitions_split, 1) << "threads=" << threads;
    if (ref_splits < 0) {
      ref_splits = stats.partitions_split;
      ref_hot_keys = stats.hot_keys_detected;
      reference = std::move(store.at("out"));
      continue;
    }
    // Split decisions are a pure function of the data: same partitions, same
    // hot keys, bit-identical output for any thread count.
    EXPECT_EQ(stats.partitions_split, ref_splits) << "threads=" << threads;
    EXPECT_EQ(stats.hot_keys_detected, ref_hot_keys) << "threads=" << threads;
    const Dataset& out = store.at("out");
    ASSERT_EQ(out.num_partitions(), reference.num_partitions());
    for (size_t p = 0; p < out.num_partitions(); ++p) {
      EXPECT_EQ(out.partition(p), reference.partition(p))
          << "threads=" << threads << " partition " << p;
    }
  }
}

TEST(AdaptiveSkew, UniformKeysNeverSplit) {
  const int parts = 4;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 400; ++i) {
    rows.push_back({Value(i), Value(i % 97), Value(int64_t{0})});
  }
  std::map<std::string, Dataset> store;
  store["in"] = Dataset::FromRows(RowSchema(), std::move(rows));

  LocalCluster cluster(parts, 2);
  MRStage stage = SkewedIdentityStage(parts);
  stage.skew = AggressiveSkewPolicy();
  stage.skew.min_partition_rows = 1;
  StageStats stats;
  ASSERT_TRUE(cluster.RunStage(stage, &store, &stats).ok());
  EXPECT_EQ(stats.partitions_split, 0);
  EXPECT_EQ(stats.hot_keys_detected, 0);
  EXPECT_EQ(stats.virtual_partitions, 0);
  EXPECT_EQ(stats.rows_out, 400u);
}

TEST(AdaptiveSkew, JobOptionsPolicyAppliesOnlyToKeyedStages) {
  const int parts = 4;
  std::map<std::string, Dataset> store;
  store["in"] = SkewedData(parts, 3, 200, 200);

  // Stage 1 carries a key hash (eligible); stage 2 is a single-partition
  // merge with no key hash (must be left alone by the job-wide policy).
  MRStage keyed = SkewedIdentityStage(parts);
  MRStage merge = IdentityStage("out", "merged", 1);
  merge.name = "merge";
  merge.partition_fn = SinglePartition();

  LocalCluster cluster(parts, 2);
  JobOptions options;
  options.skew = AggressiveSkewPolicy();
  auto run = cluster.RunJob({keyed, merge}, &store, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const JobStats& job = run.ValueOrDie();
  ASSERT_EQ(job.stages.size(), 2u);
  EXPECT_GE(job.stages[0].partitions_split, 1);
  EXPECT_EQ(job.stages[1].partitions_split, 0);
  EXPECT_EQ(job.stages[1].rows_out, job.stages[0].rows_out);
}

// ---------------------------------------------------------------------------
// Chaos: the full BT pipeline under randomized-but-replayable fault
// schedules. Every run must reproduce the fault-free output and store
// bit-for-bit (paper §III-C.1: deterministic re-execution makes failure
// handling invisible).
// ---------------------------------------------------------------------------

std::vector<uint64_t> ChaosSeeds() {
  if (const char* env = std::getenv("TIMR_CHAOS_SEEDS")) {
    std::vector<uint64_t> seeds;
    uint64_t v = 0;
    bool have = false;
    for (const char* c = env;; ++c) {
      if (*c >= '0' && *c <= '9') {
        v = v * 10 + static_cast<uint64_t>(*c - '0');
        have = true;
      } else {
        if (have) seeds.push_back(v);
        v = 0;
        have = false;
        if (*c == '\0') break;
      }
    }
    if (!seeds.empty()) return seeds;
  }
  return {7, 19, 42};
}

TEST(Chaos, BtJobBitIdenticalUnderAllFaultKinds) {
  testutil::BtRun clean = testutil::RunBtJob(0);
  ASSERT_FALSE(clean.stats.stages.empty());

  for (uint64_t seed : ChaosSeeds()) {
    ChaosInjector injector(FaultPlan::AllKinds(seed, /*p=*/0.12,
                                               /*straggler_seconds=*/0.01));
    testutil::BtRunConfig cfg;
    cfg.injector = &injector;
    testutil::BtRun chaotic = testutil::RunBtJob(cfg);
    ASSERT_TRUE(chaotic.status.ok())
        << "seed " << seed << ": " << chaotic.status.ToString();
    EXPECT_GT(injector.total_injected(), 0) << "seed " << seed;
    testutil::ExpectEventsIdentical(clean.output, chaotic.output);
    testutil::ExpectStoresBitIdentical(clean.store, chaotic.store);
    int retries = 0;
    for (const auto& s : chaotic.stats.stages) retries += s.retried_tasks;
    EXPECT_GT(retries, 0) << "seed " << seed;
  }
}

TEST(Chaos, BtJobBitIdenticalUnderChaosWithSpeculation) {
  testutil::BtRun clean = testutil::RunBtJob(0);

  ChaosInjector injector(
      FaultPlan::AllKinds(ChaosSeeds().front(), 0.12, 0.01));
  testutil::BtRunConfig cfg;
  cfg.num_threads = 3;
  cfg.injector = &injector;
  cfg.options.fault_tolerance.speculative_execution = true;
  cfg.options.fault_tolerance.min_straggler_seconds = 0.25;
  testutil::BtRun chaotic = testutil::RunBtJob(cfg);
  ASSERT_TRUE(chaotic.status.ok()) << chaotic.status.ToString();
  testutil::ExpectEventsIdentical(clean.output, chaotic.output);
  testutil::ExpectStoresBitIdentical(clean.store, chaotic.store);
}

TEST(Chaos, BtJobWithExchangeElisionBitIdenticalUnderChaos) {
  // The elision-optimized plan (timr/optimizer.h) must survive the same
  // randomized fault schedules with the same answer: identical output to the
  // un-elided base job, and chaos runs bit-identical to the elided clean run.
  testutil::BtRunConfig clean_cfg;
  testutil::BtRun base = testutil::RunBtJob(clean_cfg, testutil::RunUnelided);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  testutil::BtRun clean = testutil::RunBtJob(clean_cfg);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_LT(clean.stats.stages.size(), base.stats.stages.size());
  testutil::ExpectEventsIdentical(base.output, clean.output);

  for (uint64_t seed : ChaosSeeds()) {
    ChaosInjector injector(FaultPlan::AllKinds(seed, /*p=*/0.12,
                                               /*straggler_seconds=*/0.01));
    testutil::BtRunConfig cfg = clean_cfg;
    cfg.injector = &injector;
    testutil::BtRun chaotic = testutil::RunBtJob(cfg);
    ASSERT_TRUE(chaotic.status.ok())
        << "seed " << seed << ": " << chaotic.status.ToString();
    testutil::ExpectEventsIdentical(clean.output, chaotic.output);
    testutil::ExpectStoresBitIdentical(clean.store, chaotic.store);
  }
}

TEST(Chaos, AdaptiveSkewBtJobBitIdenticalUnderChaos) {
  // The Zipf-skewed BT pipeline with adaptive repartitioning on must survive
  // randomized fault schedules bit-identically: split decisions are data-pure,
  // retried/speculative attempts of a virtual partition reproduce their
  // output, and the coalesce is order-canonical. Against the policy-off run,
  // the output is the same relation (canonical order may differ, since an
  // unsplit reducer emits its rows in engine order).
  testutil::BtRunConfig off_cfg;
  off_cfg.workload = testutil::SkewedWorkload();
  testutil::BtRun off = testutil::RunBtJob(off_cfg);
  ASSERT_TRUE(off.status.ok()) << off.status.ToString();

  testutil::BtRunConfig on_cfg = off_cfg;
  on_cfg.options.job.skew.adaptive_repartition = true;
  on_cfg.options.job.skew.skew_ratio_threshold = 2.0;
  on_cfg.options.job.skew.hot_key_fanout = 4;
  on_cfg.options.job.skew.min_partition_rows = 64;
  on_cfg.options.job.skew.sample_shift = 3;
  testutil::BtRun clean = testutil::RunBtJob(on_cfg);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  int splits = 0;
  for (const auto& s : clean.stats.stages) splits += s.partitions_split;
  EXPECT_GT(splits, 0) << "skewed workload did not trigger any split";

  std::vector<temporal::Event> off_sorted = off.output;
  std::vector<temporal::Event> on_sorted = clean.output;
  temporal::SortEventsCanonical(&off_sorted);
  temporal::SortEventsCanonical(&on_sorted);
  testutil::ExpectEventsIdentical(off_sorted, on_sorted);

  for (uint64_t seed : ChaosSeeds()) {
    ChaosInjector injector(FaultPlan::AllKinds(seed, /*p=*/0.12,
                                               /*straggler_seconds=*/0.01));
    testutil::BtRunConfig cfg = on_cfg;
    cfg.injector = &injector;
    testutil::BtRun chaotic = testutil::RunBtJob(cfg);
    ASSERT_TRUE(chaotic.status.ok())
        << "seed " << seed << ": " << chaotic.status.ToString();
    testutil::ExpectEventsIdentical(clean.output, chaotic.output);
    testutil::ExpectStoresBitIdentical(clean.store, chaotic.store);
  }
}

TEST(Chaos, ResumeAfterKillBetweenEveryPairOfStages) {
  testutil::BtRun clean = testutil::RunBtJob(0);
  const int num_stages = static_cast<int>(clean.stats.stages.size());
  ASSERT_GT(num_stages, 1);
  const uint64_t seed = ChaosSeeds().front();
  const std::string dir = FreshDir("timr_chaos_resume");

  // Both storage modes: in-memory snapshots resume from the same object; a
  // spill directory resumes from a fresh CheckpointStore on it, with BT's
  // double and string cells round-tripping through the file codec.
  for (bool spill : {false, true}) {
    for (int kill_after = 1; kill_after < num_stages; ++kill_after) {
      SCOPED_TRACE(std::string(spill ? "spill" : "in-memory") +
                   " kill_after=" + std::to_string(kill_after));
      std::filesystem::remove_all(dir);
      auto checkpoint = spill ? std::make_unique<CheckpointStore>(dir)
                              : std::make_unique<CheckpointStore>();
      {
        ChaosInjector injector(FaultPlan::AllKinds(seed, 0.12, 0.01));
        testutil::BtRunConfig cfg;
        cfg.injector = &injector;
        cfg.options.job.checkpoint = checkpoint.get();
        cfg.options.job.chaos_kill_after_stages = kill_after;
        testutil::BtRun killed = testutil::RunBtJob(cfg);
        ASSERT_FALSE(killed.status.ok()) << "kill_after=" << kill_after;
        EXPECT_NE(killed.status.message().find("chaos kill"),
                  std::string::npos);
      }
      if (spill) checkpoint = std::make_unique<CheckpointStore>(dir);
      ASSERT_EQ(checkpoint->num_stages(), static_cast<size_t>(kill_after));

      // Resume (chaos still on) and demand the fault-free result exactly.
      ChaosInjector injector(FaultPlan::AllKinds(seed, 0.12, 0.01));
      testutil::BtRunConfig cfg;
      cfg.injector = &injector;
      cfg.options.job.checkpoint = checkpoint.get();
      testutil::BtRun resumed = testutil::RunBtJob(cfg);
      ASSERT_TRUE(resumed.status.ok())
          << "kill_after=" << kill_after << ": " << resumed.status.ToString();
      for (int i = 0; i < kill_after; ++i) {
        EXPECT_TRUE(resumed.stats.stages[i].recovered_from_checkpoint);
      }
      EXPECT_EQ(checkpoint->corruptions(), 0u);
      testutil::ExpectEventsIdentical(clean.output, resumed.output);
      testutil::ExpectStoresBitIdentical(clean.store, resumed.store);
    }
  }
  std::filesystem::remove_all(dir);
}

// Killed after its last stage, a job leaves a complete checkpoint: the resume
// restores every stage, runs none, and must still audit the restored cut and
// reproduce the clean output and store exactly.
TEST(Chaos, ResumeFromCompleteCheckpoint) {
  {
    SCOPED_TRACE("RunJob");
    const Dataset input = BigData(2000);
    const auto stages = ThreeStageJob();
    LocalCluster cluster(4, 2);
    std::map<std::string, Dataset> clean_store;
    clean_store["in"] = input;
    ASSERT_TRUE(cluster.RunJob(stages, &clean_store).ok());

    CheckpointStore checkpoint;
    JobOptions opts;
    opts.checkpoint = &checkpoint;
    opts.chaos_kill_after_stages = static_cast<int>(stages.size());
    std::map<std::string, Dataset> store;
    store["in"] = input;
    auto killed = cluster.RunJob(stages, &store, opts);
    ASSERT_FALSE(killed.ok());
    EXPECT_NE(killed.status().message().find("chaos kill"), std::string::npos);
    ASSERT_EQ(checkpoint.num_stages(), stages.size());

    JobOptions resume_opts;
    resume_opts.checkpoint = &checkpoint;
    std::map<std::string, Dataset> resumed_store;
    resumed_store["in"] = input;
    auto resumed = cluster.RunJob(stages, &resumed_store, resume_opts);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(resumed.ValueOrDie().stages.size(), stages.size());
    for (const StageStats& s : resumed.ValueOrDie().stages) {
      EXPECT_TRUE(s.recovered_from_checkpoint) << s.name;
    }
    ExpectStoreEquals(clean_store, resumed_store);
  }
  {
    SCOPED_TRACE("RunPlan");
    testutil::BtRun clean = testutil::RunBtJob(0);
    const size_t num_stages = clean.stats.stages.size();
    CheckpointStore checkpoint;
    testutil::BtRunConfig cfg;
    cfg.options.job.checkpoint = &checkpoint;
    cfg.options.job.chaos_kill_after_stages = static_cast<int>(num_stages);
    testutil::BtRun killed = testutil::RunBtJob(cfg);
    ASSERT_FALSE(killed.status.ok());
    EXPECT_NE(killed.status.message().find("chaos kill"), std::string::npos);
    ASSERT_EQ(checkpoint.num_stages(), num_stages);

    testutil::BtRunConfig resume;
    resume.options.job.checkpoint = &checkpoint;
    testutil::BtRun resumed = testutil::RunBtJob(resume);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
    ASSERT_EQ(resumed.stats.stages.size(), num_stages);
    for (const StageStats& s : resumed.stats.stages) {
      EXPECT_TRUE(s.recovered_from_checkpoint) << s.name;
    }
    testutil::ExpectEventsIdentical(clean.output, resumed.output);
    testutil::ExpectStoresBitIdentical(clean.store, resumed.store);
  }
  {
    SCOPED_TRACE("RunPlanSuite");
    const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());
    const auto log = workload::GenerateBtLog(testutil::SmallWorkload());
    auto run = [&](const framework::SuiteOptions& options,
                   std::map<std::string, Dataset>* store) {
      LocalCluster cluster(/*num_machines=*/8);
      EXPECT_TRUE(bt::LoadBtSuiteStore(log.events, store).ok());
      return framework::RunPlanSuite(&cluster, queries, store, options);
    };
    std::map<std::string, Dataset> clean_store;
    auto clean = run(framework::SuiteOptions(), &clean_store);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    const size_t num_stages = clean.ValueOrDie().num_stages;

    CheckpointStore checkpoint;
    framework::SuiteOptions opts;
    opts.timr.job.checkpoint = &checkpoint;
    opts.timr.job.chaos_kill_after_stages = static_cast<int>(num_stages);
    std::map<std::string, Dataset> store;
    auto killed = run(opts, &store);
    ASSERT_FALSE(killed.ok());
    EXPECT_NE(killed.status().message().find("chaos kill"), std::string::npos);
    ASSERT_EQ(checkpoint.num_stages(), num_stages);

    framework::SuiteOptions resume_opts;
    resume_opts.timr.job.checkpoint = &checkpoint;
    std::map<std::string, Dataset> resumed_store;
    auto resumed = run(resume_opts, &resumed_store);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(resumed.ValueOrDie().job_stats.stages.size(), num_stages);
    for (const StageStats& s : resumed.ValueOrDie().job_stats.stages) {
      EXPECT_TRUE(s.recovered_from_checkpoint) << s.name;
    }
    const auto& clean_outputs = clean.ValueOrDie().outputs;
    const auto& resumed_outputs = resumed.ValueOrDie().outputs;
    ASSERT_EQ(clean_outputs.size(), resumed_outputs.size());
    for (size_t q = 0; q < clean_outputs.size(); ++q) {
      testutil::ExpectEventsIdentical(clean_outputs[q], resumed_outputs[q]);
    }
    testutil::ExpectStoresBitIdentical(clean_store, resumed_store);
  }
}

}  // namespace
}  // namespace timr::mr
