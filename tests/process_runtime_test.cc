// Multi-process runtime tests (mr/driver.h, mr/worker.h): the BT pipeline and
// the shared 20-CQ suite must produce byte-identical output multi-process vs
// in-process for any worker count, and keep producing it under process-level
// chaos — real SIGKILLs in targeted windows (between map-commit and
// reduce-fetch, during a heartbeat gap, mid-shuffle-transfer), truncated
// shuffle payloads, dropped/delayed RPC messages, and permanent worker loss
// that degrades the stage down to in-process execution (paper §III-C.1:
// failure handling must be invisible in the output).
//
// Test suites are named MultiProcess / ProcsChaos so sanitizer CI that cannot
// follow fork() (TSan) can exclude them by name; under such builds process
// mode also self-gates via ProcessModeSupported().

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bt_test_util.h"
#include "bt/queries.h"
#include "bt/schema.h"
#include "bt/suite_runner.h"
#include "mr/checkpoint.h"
#include "mr/cluster.h"
#include "mr/driver.h"
#include "mr/fault.h"
#include "timr/suite.h"
#include "timr/timr.h"
#include "workload/generator.h"

namespace timr {
namespace {

using mr::ProcessFaultPlan;
using mr::ProcessOptions;
using mr::ScriptedProcessKill;

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

/// Chaos-friendly transport knobs: tight enough that dropped responses and
/// hung workers are detected in test time, loose enough that a legitimate
/// small-workload task never trips them spuriously (and if one ever did, the
/// runtime recovers by re-dispatch — correctness is unaffected).
ProcessOptions ChaosTransport(int workers) {
  ProcessOptions p;
  p.workers = workers;
  p.rpc_timeout_seconds = 5.0;
  p.heartbeat_interval_seconds = 0.02;
  p.heartbeat_deadline_seconds = 1.0;
  p.backoff_base_seconds = 0.005;
  p.backoff_cap_seconds = 0.05;
  return p;
}

testutil::BtRun RunBtProcess(const ProcessOptions& process,
                             mr::FaultInjector* injector = nullptr) {
  testutil::BtRunConfig cfg;
  cfg.injector = injector;
  cfg.options.process = process;
  return testutil::RunBtJob(cfg);
}

int SumWorkerRestarts(const mr::JobStats& stats) {
  int n = 0;
  for (const auto& s : stats.stages) n += s.worker_restarts;
  return n;
}

int SumRpcRetries(const mr::JobStats& stats) {
  int n = 0;
  for (const auto& s : stats.stages) n += s.rpc_retries;
  return n;
}

// ------------------------------------------------------------ fault-free ----

TEST(MultiProcess, ClusterStageBitIdenticalToThreadMode) {
  // Cheapest possible end-to-end check straight at the cluster API: one
  // keyed stage, thread mode vs a 2-worker gang, byte-compared.
  Schema schema = Schema::Of({{"Time", ValueType::kInt64},
                              {"Key", ValueType::kInt64},
                              {"Val", ValueType::kString}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) {
    rows.push_back({Value(i % 97), Value(i % 13),
                    Value("payload-" + std::to_string(i % 31))});
  }
  auto make_store = [&] {
    std::map<std::string, mr::Dataset> store;
    store["in"] = mr::Dataset::FromRows(schema, rows);
    return store;
  };
  mr::MRStage stage;
  stage.name = "identity";
  stage.inputs = {"in"};
  stage.output = "out";
  stage.output_schema = schema;
  stage.partition_fn = mr::HashPartitioner({{1}});
  stage.reducer = [](int, const std::vector<std::vector<Row>>& inputs,
                     std::vector<Row>* output) {
    *output = inputs[0];
    return Status::OK();
  };

  mr::LocalCluster threads(4, 2);
  auto thread_store = make_store();
  mr::StageStats tstats;
  ASSERT_TRUE(threads.RunStage(stage, &thread_store, &tstats).ok());

  mr::LocalCluster procs(4, 2);
  ProcessOptions popt;
  popt.workers = 2;
  procs.set_process_options(popt);
  auto proc_store = make_store();
  mr::StageStats pstats;
  ASSERT_TRUE(procs.RunStage(stage, &proc_store, &pstats).ok());

  const mr::Dataset& a = thread_store.at("out");
  const mr::Dataset& b = proc_store.at("out");
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  for (size_t p = 0; p < a.num_partitions(); ++p) {
    EXPECT_EQ(a.partition(p), b.partition(p)) << "partition " << p;
  }
  EXPECT_EQ(tstats.rows_in, pstats.rows_in);
  EXPECT_EQ(tstats.rows_shuffled, pstats.rows_shuffled);
  EXPECT_EQ(tstats.rows_out, pstats.rows_out);
  if (mr::ProcessModeSupported()) {
    EXPECT_EQ(pstats.workers, 2);
    EXPECT_EQ(tstats.workers, 0);
  }
}

TEST(MultiProcess, BtPipelineBitIdenticalAcrossWorkerCounts) {
  testutil::BtRun clean = testutil::RunBtJob(0);
  ASSERT_FALSE(clean.stats.stages.empty());

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ProcessOptions popt;
    popt.workers = workers;
    testutil::BtRun run = RunBtProcess(popt);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    testutil::ExpectEventsIdentical(clean.output, run.output);
    testutil::ExpectStoresBitIdentical(clean.store, run.store);
    if (mr::ProcessModeSupported()) {
      for (const auto& s : run.stats.stages) {
        EXPECT_EQ(s.workers, workers) << s.name;
      }
    }
  }
}

TEST(MultiProcess, ReducersReadBucketsFromTheSegmentNotTheSocket) {
  // Every stage's buckets go into its shuffle segment; the socket carries
  // only map requests and bucket slices, a vanishing fraction of that.
  testutil::BtRun clean = testutil::RunBtJob(0);
  for (const auto& s : clean.stats.stages) {
    EXPECT_EQ(s.segment_bytes, 0u) << s.name;
    EXPECT_EQ(s.rpc_request_bytes, 0u) << s.name;
    EXPECT_EQ(s.rpc_response_bytes, 0u) << s.name;
  }
  if (!mr::ProcessModeSupported()) {
    GTEST_SKIP() << "process mode unsupported in this build";
  }
  ProcessOptions popt;
  popt.workers = 3;
  testutil::BtRun run = RunBtProcess(popt);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_FALSE(run.stats.stages.empty());
  for (const auto& s : run.stats.stages) {
    SCOPED_TRACE(s.name);
    EXPECT_GT(s.segment_bytes, 0u);
    EXPECT_LT(s.rpc_request_bytes, s.segment_bytes / 100);
    EXPECT_GT(s.rpc_response_bytes, 0u);
  }
  testutil::ExpectStoresBitIdentical(clean.store, run.store);
}

TEST(MultiProcess, ComposesWithAppLevelFaultInjection) {
  // The injector lives in the driver (one draw per attempt, shipped to the
  // worker inside the reduce request): task-level chaos must compose with
  // the process boundary and stay bit-identical.
  testutil::BtRun clean = testutil::RunBtJob(0);

  mr::ChaosInjector injector(
      mr::FaultPlan::AllKinds(ChaosSeeds().front(), /*p=*/0.12,
                              /*straggler_seconds=*/0.01));
  ProcessOptions popt;
  popt.workers = 2;
  testutil::BtRun run = RunBtProcess(popt, &injector);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_GT(injector.total_injected(), 0);
  int retries = 0;
  for (const auto& s : run.stats.stages) retries += s.retried_tasks;
  EXPECT_GT(retries, 0);
  testutil::ExpectEventsIdentical(clean.output, run.output);
  testutil::ExpectStoresBitIdentical(clean.store, run.store);
}

TEST(MultiProcess, SharedSuiteWithAdaptiveSkewBitIdentical) {
  // The full composition: 20-CQ shared-fragment suite + adaptive skew
  // splits + multi-process execution must match the in-process merged run
  // byte for byte.
  const auto queries = bt::BtCqSuite(testutil::SmallBtConfig());
  const workload::BtLog log =
      workload::GenerateBtLog(testutil::SkewedWorkload());

  auto run_suite = [&](const framework::SuiteOptions& options) {
    mr::LocalCluster cluster(/*num_machines=*/8);
    std::map<std::string, mr::Dataset> store;
    Status s = bt::LoadBtSuiteStore(log.events, &store);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return framework::RunPlanSuite(&cluster, queries, &store, options);
  };

  framework::SuiteOptions skew;
  skew.timr.job.skew.adaptive_repartition = true;
  skew.timr.job.skew.skew_ratio_threshold = 2.0;
  skew.timr.job.skew.hot_key_fanout = 4;
  skew.timr.job.skew.min_partition_rows = 64;
  skew.timr.job.skew.sample_shift = 3;

  auto in_process = run_suite(skew);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();

  framework::SuiteOptions procs = skew;
  procs.timr.process.workers = 2;
  auto multi = run_suite(procs);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();

  int splits = 0;
  for (const auto& s : multi.ValueOrDie().job_stats.stages) {
    splits += s.partitions_split;
  }
  EXPECT_GT(splits, 0);
  EXPECT_FALSE(multi.ValueOrDie().shared.empty());

  const auto& a = in_process.ValueOrDie();
  const auto& b = multi.ValueOrDie();
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (size_t q = 0; q < a.outputs.size(); ++q) {
    SCOPED_TRACE("query " + a.query_names[q]);
    testutil::ExpectEventsIdentical(a.outputs[q], b.outputs[q]);
  }
}

TEST(MultiProcess, CheckpointKillAndResumeBitIdentical) {
  // Driver death (chaos kill after N stages) + resume, both in process mode:
  // the resumed store must match a clean in-process run exactly.
  testutil::BtRun clean = testutil::RunBtJob(0);

  mr::CheckpointStore checkpoint;
  {
    testutil::BtRunConfig cfg;
    cfg.options.process.workers = 2;
    cfg.options.job.checkpoint = &checkpoint;
    cfg.options.job.chaos_kill_after_stages = 2;
    testutil::BtRun killed = testutil::RunBtJob(cfg);
    ASSERT_FALSE(killed.status.ok());
    EXPECT_NE(killed.status.message().find("chaos kill"), std::string::npos);
  }
  ASSERT_GE(checkpoint.num_stages(), 1u);

  testutil::BtRunConfig resume;
  resume.options.process.workers = 2;
  resume.options.job.checkpoint = &checkpoint;
  testutil::BtRun resumed = testutil::RunBtJob(resume);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  testutil::ExpectEventsIdentical(clean.output, resumed.output);
  testutil::ExpectStoresBitIdentical(clean.store, resumed.store);
}

// ---------------------------------------------------- targeted loss windows --

void RunKillWindowTest(ScriptedProcessKill::Window window,
                       bool expect_heartbeat_timeout = false) {
  if (!mr::ProcessModeSupported()) {
    GTEST_SKIP() << "process mode unsupported in this build";
  }
  testutil::BtRun clean = testutil::RunBtJob(0);

  ProcessOptions popt = ChaosTransport(/*workers=*/2);
  ScriptedProcessKill kill;
  kill.stage = "*";
  kill.window = window;
  kill.worker_index = 0;
  popt.chaos.scripted.push_back(kill);

  testutil::BtRun run = RunBtProcess(popt);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  // The dead worker must have been noticed and replaced (or its task
  // re-dispatched) — and committed work must never be lost, which the
  // bit-identity comparison below proves end to end.
  EXPECT_GT(SumWorkerRestarts(run.stats) + SumRpcRetries(run.stats), 0);
  if (expect_heartbeat_timeout) {
    int hb = 0;
    for (const auto& s : run.stats.stages) hb += s.heartbeat_timeouts;
    EXPECT_GE(hb, 1);
  }
  testutil::ExpectEventsIdentical(clean.output, run.output);
  testutil::ExpectStoresBitIdentical(clean.store, run.store);
}

TEST(ProcsChaos, SigkillBetweenMapCommitAndReduceFetch) {
  // The worker dies on receiving its first reduce request — after its map
  // results were committed. The driver must requeue the reduce task without
  // re-running the committed map work into a different answer.
  RunKillWindowTest(ScriptedProcessKill::Window::kOnReduceRequest);
}

TEST(ProcsChaos, SigkillIdleAfterMapResponse) {
  // Idle death right after shipping a map response: detected by EOF on the
  // socket (reader thread), not by any task timeout.
  RunKillWindowTest(ScriptedProcessKill::Window::kAfterMapResponse);
}

TEST(ProcsChaos, TruncatedShuffleTransferMidReduceResponse) {
  // Mid-shuffle-transfer loss: the worker truncates its reduce response
  // frame and dies. The driver must reject the partial frame (hash/length
  // check) and re-dispatch rather than committing a short read.
  RunKillWindowTest(ScriptedProcessKill::Window::kMidReduceResponse);
}

TEST(ProcsChaos, HungWorkerCaughtByHeartbeatDeadline) {
  // The worker stops heartbeating and responding without dying. Only the
  // heartbeat deadline can catch this (the socket stays open), within
  // heartbeat_deadline_seconds rather than the much larger RPC timeout.
  RunKillWindowTest(ScriptedProcessKill::Window::kHangSilently,
                    /*expect_heartbeat_timeout=*/true);
}

TEST(ProcsChaos, PermanentWorkerLossDegradesToInProcess) {
  if (!mr::ProcessModeSupported()) {
    GTEST_SKIP() << "process mode unsupported in this build";
  }
  testutil::BtRun clean = testutil::RunBtJob(0);

  // Every spawned worker dies on its first reduce request, and the respawn
  // budget is tiny: the stage must degrade to in-process execution instead
  // of failing. (Scripted windows are one-shot per *process*, so every
  // respawned worker dies again.)
  ProcessOptions popt = ChaosTransport(/*workers=*/1);
  popt.max_worker_restarts = 1;
  ScriptedProcessKill kill;
  kill.stage = "*";
  kill.window = ScriptedProcessKill::Window::kOnReduceRequest;
  kill.worker_index = 0;
  popt.chaos.scripted.push_back(kill);

  testutil::BtRun run = RunBtProcess(popt);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_GT(SumWorkerRestarts(run.stats), 0);
  testutil::ExpectEventsIdentical(clean.output, run.output);
  testutil::ExpectStoresBitIdentical(clean.store, run.store);
}

// ----------------------------------------------------- probabilistic chaos --

TEST(ProcsChaos, TruncatedResponsesEveryFirstDispatch) {
  if (!mr::ProcessModeSupported()) {
    GTEST_SKIP() << "process mode unsupported in this build";
  }
  testutil::BtRun clean = testutil::RunBtJob(0);

  // Deterministic worst case for the frame integrity check: every task's
  // first dispatch comes back truncated (and costs a worker).
  ProcessOptions popt = ChaosTransport(/*workers=*/2);
  popt.chaos.seed = 1;
  popt.chaos.truncate_probability = 1.0;
  popt.chaos.max_faulted_dispatch = 1;
  popt.max_worker_restarts = 64;

  testutil::BtRun run = RunBtProcess(popt);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_GT(SumRpcRetries(run.stats), 0);
  EXPECT_GT(SumWorkerRestarts(run.stats), 0);
  testutil::ExpectEventsIdentical(clean.output, run.output);
  testutil::ExpectStoresBitIdentical(clean.store, run.store);
}

TEST(ProcsChaos, BtJobBitIdenticalUnderSeededProcessChaos) {
  if (!mr::ProcessModeSupported()) {
    GTEST_SKIP() << "process mode unsupported in this build";
  }
  testutil::BtRun clean = testutil::RunBtJob(0);
  // The job's first stage writes the bot-free stream and two later stages
  // read it, so worker deaths also land between a dataset's two readers.
  auto cut = framework::MakeFragments(
      bt::BtFeaturePipeline(testutil::SmallBtConfig(), bt::Annotation::kStandard)
          .node());
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  std::map<std::string, int> readers;
  for (const framework::Fragment& f : cut.ValueOrDie().fragments) {
    for (const std::string& input : f.inputs) ++readers[input];
  }
  EXPECT_EQ(readers[cut.ValueOrDie().fragments.front().name], 2);

  int total_recoveries = 0;
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ProcessOptions popt = ChaosTransport(/*workers=*/2);
    popt.chaos = ProcessFaultPlan::AllKinds(seed, /*p=*/0.05,
                                            /*delay_seconds=*/0.002);
    popt.max_worker_restarts = 32;
    testutil::BtRun run = RunBtProcess(popt);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    total_recoveries += SumWorkerRestarts(run.stats) + SumRpcRetries(run.stats);
    testutil::ExpectEventsIdentical(clean.output, run.output);
    testutil::ExpectStoresBitIdentical(clean.store, run.store);
  }
  // Across the seed set, chaos must actually have fired.
  EXPECT_GT(total_recoveries, 0);
}

TEST(ProcsChaos, ProcessChaosComposesWithTaskChaos) {
  if (!mr::ProcessModeSupported()) {
    GTEST_SKIP() << "process mode unsupported in this build";
  }
  // Both fault layers at once: injected task faults (retried attempts) under
  // injected transport faults (killed workers, truncated/dropped frames).
  testutil::BtRun clean = testutil::RunBtJob(0);

  mr::ChaosInjector injector(
      mr::FaultPlan::AllKinds(ChaosSeeds().back(), /*p=*/0.08,
                              /*straggler_seconds=*/0.01));
  ProcessOptions popt = ChaosTransport(/*workers=*/2);
  popt.chaos = ProcessFaultPlan::AllKinds(ChaosSeeds().front(), /*p=*/0.04,
                                          /*delay_seconds=*/0.002);
  popt.max_worker_restarts = 32;
  testutil::BtRun run = RunBtProcess(popt, &injector);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_GT(injector.total_injected(), 0);
  testutil::ExpectEventsIdentical(clean.output, run.output);
  testutil::ExpectStoresBitIdentical(clean.store, run.store);
}

}  // namespace
}  // namespace timr
