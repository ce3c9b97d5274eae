// Shared helpers for tests that run the full BT pipeline through TiMR on a
// LocalCluster: a small-but-complete workload, a one-call job runner with
// fault-injection / checkpoint / chaos hooks, and bit-identity comparators
// for outputs and whole dataset stores (the §III-C.1 repeatability checks).

#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bt/queries.h"
#include "mr/cluster.h"
#include "temporal/convert.h"
#include "timr/timr.h"
#include "workload/generator.h"

namespace timr::testutil {

inline workload::GeneratorConfig SmallWorkload() {
  workload::GeneratorConfig cfg;
  cfg.num_users = 150;
  cfg.vocab_size = 2000;
  cfg.duration = 2 * temporal::kDay;
  return cfg;
}

inline bt::BtQueryConfig SmallBtConfig() {
  bt::BtQueryConfig cfg;
  cfg.selection_period = 3 * temporal::kDay;
  cfg.bot_search_threshold = 60;
  cfg.bot_click_threshold = 30;
  return cfg;
}

/// A Zipf-skewed variant of the small workload, reproducible from
/// (seed, zipf_s): a handful of head users dominate the log, so the keyed
/// user-hash shuffles develop a hot partition — the input the adaptive
/// repartitioning tests and bench_skew exercise. Bot multipliers are neutral
/// so the skew profile is exactly the Zipf weights (the forced bot at user 0
/// would otherwise stack a 25x multiplier on the Zipf-heaviest key).
inline workload::GeneratorConfig SkewedWorkload(uint64_t seed = 20120401,
                                                double zipf_s = 1.1) {
  workload::GeneratorConfig cfg = SmallWorkload();
  cfg.seed = seed;
  cfg.user_activity_zipf = zipf_s;
  cfg.bot_activity_multiplier = 1.0;
  cfg.bot_impression_multiplier = 1.0;
  return cfg;
}

struct BtRun {
  Status status;  // RunPlan outcome (chaos-kill runs fail by design)
  std::vector<temporal::Event> output;
  mr::JobStats stats;
  std::map<std::string, mr::Dataset> store;
};

struct BtRunConfig {
  int num_threads = 0;  // 0 = hardware
  mr::FaultInjector* injector = nullptr;
  framework::TimrOptions options;  // fault_tolerance / job (checkpoint, kill)
  /// Workload to generate (default: SmallWorkload(); tests exercising skew
  /// pass SkewedWorkload(...)).
  workload::GeneratorConfig workload = SmallWorkload();
};

/// Run `plan`'s cut as annotated: RunFragments over MakeFragments, without
/// the exchange elision RunPlan applies first. The unelided reference for
/// the elision tests; same signature as RunPlan.
inline Result<framework::TimrRunResult> RunUnelided(
    mr::LocalCluster* cluster, const temporal::PlanNodePtr& plan,
    std::map<std::string, mr::Dataset>* store,
    const framework::TimrOptions& options) {
  framework::TimrRunResult result;
  TIMR_ASSIGN_OR_RETURN(result.fragments, framework::MakeFragments(plan));
  const std::string& output = result.fragments.output_dataset;
  TIMR_RETURN_NOT_OK(framework::RunFragments(
      cluster, result.fragments, {output}, store, options, &result.job_stats,
      &result.fragment_stats));
  const mr::Dataset& out = store->at(output);
  TIMR_ASSIGN_OR_RETURN(result.output,
                        temporal::EventsFromRows(out.schema(), out.Gather()));
  return result;
}

using PlanRunner = Result<framework::TimrRunResult> (*)(
    mr::LocalCluster*, const temporal::PlanNodePtr&,
    std::map<std::string, mr::Dataset>*, const framework::TimrOptions&);

/// Generate the configured BT log, run the standard BT feature pipeline
/// through TiMR (`run`: RunPlan, or RunUnelided for the unelided reference),
/// and hand back output, stats, and the final store. The store is returned
/// even on failure so kill-resume tests can inspect it.
inline BtRun RunBtJob(const BtRunConfig& cfg,
                      PlanRunner run_plan = framework::RunPlan) {
  auto log = workload::GenerateBtLog(cfg.workload);

  mr::LocalCluster cluster(/*num_machines=*/8, cfg.num_threads);
  if (cfg.injector != nullptr) cluster.set_fault_injector(cfg.injector);

  std::map<std::string, mr::Dataset> store;
  auto rows = temporal::RowsFromEvents(log.events, false).ValueOrDie();
  store[bt::kBtInput] =
      mr::Dataset::FromRows(temporal::PointRowSchema(bt::UnifiedSchema()), rows);

  auto run = run_plan(
      &cluster,
      bt::BtFeaturePipeline(SmallBtConfig(), bt::Annotation::kStandard).node(),
      &store, cfg.options);

  BtRun result;
  result.status = run.status();
  if (run.ok()) {
    result.output = std::move(run.ValueOrDie().output);
    result.stats = std::move(run.ValueOrDie().job_stats);
  }
  result.store = std::move(store);
  return result;
}

/// Back-compat convenience: asserts the run succeeded.
inline BtRun RunBtJob(int num_threads, mr::FaultInjector* injector = nullptr,
                      size_t engine_batch_size = 0) {
  BtRunConfig cfg;
  cfg.num_threads = num_threads;
  cfg.injector = injector;
  cfg.options.engine_batch_size = engine_batch_size;
  BtRun run = RunBtJob(cfg);
  EXPECT_TRUE(run.status.ok()) << run.status.ToString();
  return run;
}

inline void ExpectEventsIdentical(const std::vector<temporal::Event>& a,
                                  const std::vector<temporal::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].le, b[i].le) << "event " << i;
    EXPECT_EQ(a[i].re, b[i].re) << "event " << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << "event " << i;
  }
}

inline void ExpectStoresBitIdentical(
    const std::map<std::string, mr::Dataset>& a,
    const std::map<std::string, mr::Dataset>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, da] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << "dataset " << name << " missing";
    const mr::Dataset& db = it->second;
    EXPECT_EQ(da.schema(), db.schema()) << name;
    ASSERT_EQ(da.num_partitions(), db.num_partitions()) << name;
    for (size_t p = 0; p < da.num_partitions(); ++p) {
      EXPECT_EQ(da.partition(p), db.partition(p))
          << "dataset " << name << " partition " << p;
    }
  }
}

}  // namespace timr::testutil
