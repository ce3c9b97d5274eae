// The parallel shuffle pipeline's repeatability guarantee: one BT job must
// produce bit-identical datasets and stable row stats for any host thread
// count, and reducer retries (ScriptedFaultInjector) under the parallel
// shuffle must reproduce exactly the same output (paper §III-C.1).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bt_test_util.h"

namespace timr {
namespace {

using testutil::BtRun;
using testutil::ExpectEventsIdentical;
using testutil::ExpectStoresBitIdentical;
using testutil::RunBtJob;

TEST(ShuffleDeterminism, BtJobBitIdenticalAcrossThreadCounts) {
  BtRun base = RunBtJob(1);
  ASSERT_FALSE(base.stats.stages.empty());

  for (int threads : {2, 0 /* hardware */}) {
    BtRun run = RunBtJob(threads);
    // Final event output, every dataset in the store (including consumed
    // intermediates, which must be deterministically empty), and row stats
    // all match the single-threaded run exactly.
    ExpectEventsIdentical(base.output, run.output);
    ExpectStoresBitIdentical(base.store, run.store);
    ASSERT_EQ(run.stats.stages.size(), base.stats.stages.size());
    for (size_t s = 0; s < base.stats.stages.size(); ++s) {
      const auto& bs = base.stats.stages[s];
      const auto& rs = run.stats.stages[s];
      EXPECT_EQ(rs.name, bs.name);
      EXPECT_EQ(rs.rows_in, bs.rows_in) << bs.name;
      EXPECT_EQ(rs.rows_shuffled, bs.rows_shuffled) << bs.name;
      EXPECT_EQ(rs.rows_out, bs.rows_out) << bs.name;
      EXPECT_EQ(rs.partitions, bs.partitions) << bs.name;
    }
  }
}

TEST(ShuffleDeterminism, BtJobBitIdenticalAcrossEngineBatchSizes) {
  // The embedded engine's morsel size must never leak into output: the whole
  // BT job — every intermediate dataset included — is bit-identical whether
  // reducers drive their engines one event at a time or 4096 per batch.
  BtRun base = RunBtJob(0);
  for (size_t batch_size : {size_t{1}, size_t{64}, size_t{4096}}) {
    BtRun run = RunBtJob(0, nullptr, batch_size);
    ExpectEventsIdentical(base.output, run.output);
    ExpectStoresBitIdentical(base.store, run.store);
  }
}

TEST(ShuffleDeterminism, BtJobBitIdenticalWithColumnarKernelsOnAndOff) {
  // Columnar execution is an engine-internal representation choice, never a
  // semantics choice: the whole BT job with vectorized kernels enabled (the
  // default) is bit-identical to the same job forced onto the row path, and
  // punctuation thinning is likewise invisible at every granularity.
  BtRun base = RunBtJob(0);

  testutil::BtRunConfig row_cfg;
  row_cfg.options.engine_columnar = false;
  BtRun row = RunBtJob(row_cfg);
  ASSERT_TRUE(row.status.ok()) << row.status.ToString();
  ExpectEventsIdentical(base.output, row.output);
  ExpectStoresBitIdentical(base.store, row.store);

  for (size_t thinning : {size_t{1}, size_t{256}}) {
    testutil::BtRunConfig cfg;
    cfg.options.cti_thinning = thinning;
    BtRun run = RunBtJob(cfg);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    ExpectEventsIdentical(base.output, run.output);
    ExpectStoresBitIdentical(base.store, run.store);
  }
}

TEST(ShuffleDeterminism, BtJobBitIdenticalWithExchangeElision) {
  // Property-driven exchange elision (timr/optimizer.h), which RunPlan always
  // applies, drops provably redundant shuffles, merging fragments. Fewer
  // stages run than in the plan's cut as annotated — so the store's
  // intermediate datasets legitimately differ — but the job *output* must be
  // bit-identical, and the elided job must itself be thread-count invariant.
  testutil::BtRunConfig cfg;
  BtRun base = RunBtJob(cfg, testutil::RunUnelided);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  BtRun elided = RunBtJob(cfg);
  ASSERT_TRUE(elided.status.ok()) << elided.status.ToString();
  EXPECT_LT(elided.stats.stages.size(), base.stats.stages.size());
  ExpectEventsIdentical(base.output, elided.output);

  cfg.num_threads = 1;
  BtRun single = RunBtJob(cfg);
  ASSERT_TRUE(single.status.ok()) << single.status.ToString();
  ExpectEventsIdentical(elided.output, single.output);
  ExpectStoresBitIdentical(elided.store, single.store);
}

TEST(ShuffleDeterminism, ReducerRetryWithExchangeElisionIsRepeatable) {
  testutil::BtRunConfig cfg;
  BtRun clean = RunBtJob(cfg);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  ASSERT_FALSE(clean.stats.stages.empty());

  mr::ScriptedFaultInjector injector;
  for (const auto& stage : clean.stats.stages) {
    injector.InjectAt(stage.name, 0, 0, {mr::FaultKind::kDiscardOutput});
  }
  testutil::BtRunConfig retry_cfg = cfg;
  retry_cfg.injector = &injector;
  BtRun retried = RunBtJob(retry_cfg);
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_TRUE(injector.empty());
  ExpectEventsIdentical(clean.output, retried.output);
  ExpectStoresBitIdentical(clean.store, retried.store);
}

TEST(ShuffleDeterminism, ReducerRetryUnderParallelShuffleIsRepeatable) {
  BtRun clean = RunBtJob(0);
  ASSERT_FALSE(clean.stats.stages.empty());

  // Fail one task in every stage (and a second one in the first stage), all
  // racing against the parallel map/sort/reduce pipeline.
  mr::ScriptedFaultInjector injector;
  int injected = 0;
  for (const auto& stage : clean.stats.stages) {
    injector.InjectAt(stage.name, 0, 0, {mr::FaultKind::kDiscardOutput});
    ++injected;
  }
  if (clean.stats.stages[0].partitions > 1) {
    injector.InjectAt(clean.stats.stages[0].name,
                      clean.stats.stages[0].partitions - 1, 0,
                      {mr::FaultKind::kDiscardOutput});
    ++injected;
  }

  BtRun retried = RunBtJob(0, &injector);
  EXPECT_TRUE(injector.empty());
  int retries = 0;
  int speculative = 0;
  for (const auto& stage : retried.stats.stages) {
    retries += stage.retried_tasks;
    speculative += stage.speculative_tasks;
  }
  EXPECT_EQ(retries, injected);
  EXPECT_EQ(speculative, 0);  // no speculation configured: retries only
  ExpectEventsIdentical(clean.output, retried.output);
  ExpectStoresBitIdentical(clean.store, retried.store);
}

/// Skew policy that reliably triggers splits on the small Zipf workload.
framework::TimrOptions AdaptiveSkewOptions() {
  framework::TimrOptions options;
  options.job.skew.adaptive_repartition = true;
  options.job.skew.skew_ratio_threshold = 2.0;
  options.job.skew.hot_key_fanout = 4;
  options.job.skew.min_partition_rows = 64;
  options.job.skew.sample_shift = 3;
  return options;
}

TEST(ShuffleDeterminism, AdaptiveSkewBtJobBitIdenticalAcrossThreadCounts) {
  // With adaptive repartitioning live on a Zipf-skewed workload, every split
  // decision is a pure function of the data: the whole job — final output,
  // every intermediate dataset, the split counters themselves — must be
  // bit-identical for any host thread count.
  testutil::BtRunConfig cfg;
  cfg.workload = testutil::SkewedWorkload();
  cfg.options = AdaptiveSkewOptions();
  cfg.num_threads = 1;
  BtRun base = RunBtJob(cfg);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  int base_splits = 0;
  for (const auto& s : base.stats.stages) base_splits += s.partitions_split;
  ASSERT_GT(base_splits, 0) << "skewed workload did not trigger any split";

  for (int threads : {2, 0 /* hardware */}) {
    testutil::BtRunConfig run_cfg = cfg;
    run_cfg.num_threads = threads;
    BtRun run = RunBtJob(run_cfg);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    ExpectEventsIdentical(base.output, run.output);
    ExpectStoresBitIdentical(base.store, run.store);
    ASSERT_EQ(run.stats.stages.size(), base.stats.stages.size());
    for (size_t s = 0; s < base.stats.stages.size(); ++s) {
      const auto& bs = base.stats.stages[s];
      const auto& rs = run.stats.stages[s];
      EXPECT_EQ(rs.partitions_split, bs.partitions_split) << bs.name;
      EXPECT_EQ(rs.hot_keys_detected, bs.hot_keys_detected) << bs.name;
      EXPECT_EQ(rs.virtual_partitions, bs.virtual_partitions) << bs.name;
      EXPECT_EQ(rs.partition_rows_max, bs.partition_rows_max) << bs.name;
      EXPECT_EQ(rs.partition_rows_median, bs.partition_rows_median) << bs.name;
      EXPECT_EQ(rs.rows_out, bs.rows_out) << bs.name;
    }
  }
}

TEST(ShuffleDeterminism, AdaptiveSkewOnOffProduceTheSameRelation) {
  // On vs off: identical output relation. Split stages emit their partitions
  // in canonical order while unsplit reducers emit engine order, so the
  // comparison is canonical — and when nothing splits (the default policy's
  // thresholds on this small log), the runs must be byte-identical.
  testutil::BtRunConfig off_cfg;
  off_cfg.workload = testutil::SkewedWorkload();
  BtRun off = RunBtJob(off_cfg);
  ASSERT_TRUE(off.status.ok()) << off.status.ToString();

  testutil::BtRunConfig on_cfg = off_cfg;
  on_cfg.options = AdaptiveSkewOptions();
  BtRun on = RunBtJob(on_cfg);
  ASSERT_TRUE(on.status.ok()) << on.status.ToString();
  int splits = 0;
  for (const auto& s : on.stats.stages) splits += s.partitions_split;
  EXPECT_GT(splits, 0);
  std::vector<temporal::Event> off_sorted = off.output;
  std::vector<temporal::Event> on_sorted = on.output;
  temporal::SortEventsCanonical(&off_sorted);
  temporal::SortEventsCanonical(&on_sorted);
  ExpectEventsIdentical(off_sorted, on_sorted);

  // Policy on but with default (conservative) thresholds: nothing on this
  // small log crosses min_partition_rows, no split happens, and the run is
  // bit-for-bit the policy-off run.
  testutil::BtRunConfig noop_cfg = off_cfg;
  noop_cfg.options.job.skew.adaptive_repartition = true;
  BtRun noop = RunBtJob(noop_cfg);
  ASSERT_TRUE(noop.status.ok()) << noop.status.ToString();
  for (const auto& s : noop.stats.stages) {
    EXPECT_EQ(s.partitions_split, 0) << s.name;
  }
  ExpectEventsIdentical(off.output, noop.output);
  ExpectStoresBitIdentical(off.store, noop.store);
}

TEST(ShuffleDeterminism, AdaptiveSkewReducerRetryIsRepeatable) {
  // Retries of virtual-partition tasks must reproduce their outputs exactly
  // (the §III-C.1 repeatability argument extends to split partitions: same
  // shuffled input, same canonical sort, same coalesce).
  testutil::BtRunConfig cfg;
  cfg.workload = testutil::SkewedWorkload();
  cfg.options = AdaptiveSkewOptions();
  BtRun clean = RunBtJob(cfg);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();

  mr::ScriptedFaultInjector injector;
  int injected = 0;
  for (const auto& stage : clean.stats.stages) {
    // Partition indices past `partitions` are the virtual (split) tasks; fail
    // the last physical task of every splitting stage plus partition 0.
    injector.InjectAt(stage.name, 0, 0, {mr::FaultKind::kDiscardOutput});
    ++injected;
    if (stage.virtual_partitions > 0) {
      injector.InjectAt(stage.name,
                        stage.partitions + stage.virtual_partitions - 1, 0,
                        {mr::FaultKind::kDiscardOutput});
      ++injected;
    }
  }
  testutil::BtRunConfig retry_cfg = cfg;
  retry_cfg.injector = &injector;
  BtRun retried = RunBtJob(retry_cfg);
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_TRUE(injector.empty());
  int retries = 0;
  for (const auto& stage : retried.stats.stages) {
    retries += stage.retried_tasks;
  }
  EXPECT_EQ(retries, injected);
  ExpectEventsIdentical(clean.output, retried.output);
  ExpectStoresBitIdentical(clean.store, retried.store);
}

}  // namespace
}  // namespace timr
