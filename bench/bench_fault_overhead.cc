// Fault-machinery bench: cost of the robustness layer when nothing fails.
// "On" runs the full BT feature pipeline with the whole fault-tolerance
// apparatus armed — per-stage checkpointing (in-memory CheckpointStore), a
// ChaosInjector probed at every reduce attempt (all probabilities zero, so no
// fault ever fires), and speculative-execution monitoring — against a plain
// run with none of it. The guard exists so that "fault tolerance always on"
// stays affordable: target < 5% end-to-end overhead. Numbers land in
// EXPERIMENTS.md.

#include <algorithm>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "mr/checkpoint.h"
#include "mr/cluster.h"
#include "mr/driver.h"
#include "mr/fault.h"
#include "temporal/convert.h"
#include "timr/timr.h"

namespace {

using namespace timr;
namespace T = timr::temporal;

struct Measurement {
  double wall_seconds = 0;
  double simulated_seconds = 0;
  size_t output_rows = 0;
};

Measurement RunOnce(mr::LocalCluster* cluster, const T::PlanNodePtr& plan,
                    const std::vector<Row>& rows, bool armed,
                    int process_workers = 0) {
  std::map<std::string, mr::Dataset> store;
  store[bt::kBtInput] =
      mr::Dataset::FromRows(T::PointRowSchema(bt::UnifiedSchema()), rows);

  framework::TimrOptions options;
  options.process.workers = process_workers;
  mr::CheckpointStore checkpoint;  // in-memory: snapshots every stage output
  mr::ChaosInjector injector(mr::FaultPlan{});  // all probabilities zero
  if (armed) {
    const char* arm = std::getenv("TIMR_BENCH_ARM");
    const std::string which = arm ? arm : "all";
    if (which == "all" || which == "ckpt") options.job.checkpoint = &checkpoint;
    if (which == "all" || which == "spec") {
      options.fault_tolerance.speculative_execution = true;
      // High enough that the monitor never actually launches a backup on this
      // workload; we are pricing the monitoring, not the backups.
      options.fault_tolerance.min_straggler_seconds = 60.0;
    }
    if (which == "all" || which == "chaos") cluster->set_fault_injector(&injector);
  } else {
    cluster->set_fault_injector(nullptr);
  }

  Stopwatch host;
  auto run = framework::RunPlan(cluster, plan, &store, options);
  Measurement m;
  m.wall_seconds = host.ElapsedSeconds();
  TIMR_CHECK(run.ok()) << run.status().ToString();
  TIMR_CHECK(injector.total_injected() == 0);
  m.simulated_seconds = run.ValueOrDie().job_stats.TotalSimulatedSeconds();
  m.output_rows = run.ValueOrDie().output.size();
  cluster->set_fault_injector(nullptr);
  return m;
}

}  // namespace

int main() {
  using benchutil::Header;
  Header("Fault machinery: checkpoint + chaos probe + speculation monitor,"
         " armed vs off (BT pipeline, zero faults injected)");

  auto log = workload::GenerateBtLog(benchutil::BenchWorkload());
  bt::BtQueryConfig cfg = benchutil::BenchBtConfig();
  auto plan = bt::BtFeaturePipeline(cfg, bt::Annotation::kStandard).node();
  auto rows = T::RowsFromEvents(log.events, false).ValueOrDie();
  std::printf("workload: %zu events, full BT feature pipeline (kStandard)\n",
              log.events.size());

  mr::LocalCluster cluster(/*num_machines=*/16);

  // Warm-up run, then alternate off/armed pairs so drift hits both equally.
  // Overhead is computed from the *minimum* wall per mode: on a shared host
  // the minimum is the least-interfered run, so it isolates the machinery's
  // own cost from scheduler noise.
  RunOnce(&cluster, plan, rows, false);
  constexpr int kRounds = 5;
  double off_wall = 1e300, on_wall = 1e300, off_sim = 0, on_sim = 0;
  size_t off_rows = 0, on_rows = 0;
  for (int i = 0; i < kRounds; ++i) {
    Measurement off = RunOnce(&cluster, plan, rows, false);
    Measurement on = RunOnce(&cluster, plan, rows, true);
    off_wall = std::min(off_wall, off.wall_seconds);
    on_wall = std::min(on_wall, on.wall_seconds);
    off_sim = off.simulated_seconds;
    on_sim = on.simulated_seconds;
    off_rows = off.output_rows;
    on_rows = on.output_rows;
    std::printf("round %d: off %.3f s, armed %.3f s\n", i + 1,
                off.wall_seconds, on.wall_seconds);
  }
  TIMR_CHECK(off_rows == on_rows)
      << "fault machinery changed the output: " << off_rows << " vs "
      << on_rows;

  // Process-mode column: the same fault-free pipeline on a gang of forked
  // workers over RPC. Prices the fork + serialization + heartbeat tax when
  // nothing fails; target < 10% idle overhead vs threads.
  constexpr int kProcWorkers = 4;
  double procs_wall = 1e300, procs_sim = 0;
  size_t procs_rows = 0;
  const bool procs_supported = mr::ProcessModeSupported();
  if (procs_supported) {
    for (int i = 0; i < kRounds; ++i) {
      Measurement procs = RunOnce(&cluster, plan, rows, false, kProcWorkers);
      procs_wall = std::min(procs_wall, procs.wall_seconds);
      procs_sim = procs.simulated_seconds;
      procs_rows = procs.output_rows;
      std::printf("round %d: procs(%d) %.3f s\n", i + 1, kProcWorkers,
                  procs.wall_seconds);
    }
    TIMR_CHECK(procs_rows == off_rows)
        << "process mode changed the output: " << off_rows << " vs "
        << procs_rows;
  }

  const double overhead_pct = (on_wall / off_wall - 1.0) * 100.0;
  const double procs_overhead_pct =
      procs_supported ? (procs_wall / off_wall - 1.0) * 100.0 : 0.0;
  std::printf("\n%-34s %10s %10s\n", "", "wall (s)", "sim (s)");
  std::printf("%-34s %10.3f %10.3f\n", "fault machinery off", off_wall,
              off_sim);
  std::printf("%-34s %10.3f %10.3f\n", "checkpoint + chaos + speculation",
              on_wall, on_sim);
  std::printf("%-34s %9.1f %%  (target < 5%%)\n", "overhead", overhead_pct);
  if (procs_supported) {
    std::printf("%-34s %10.3f %10.3f\n", "multi-process (4 workers, idle)",
                procs_wall, procs_sim);
    std::printf("%-34s %9.1f %%  (target < 10%%)\n", "process-mode overhead",
                procs_overhead_pct);
  } else {
    std::printf("%-34s %10s\n", "multi-process (4 workers, idle)",
                "skipped (unsupported build)");
  }
  std::printf("output rows (identical both modes): %zu\n", off_rows);

  benchutil::JsonLine("bench_fault_overhead")
      .Str("stage", "summary")
      .Int("rows_in", rows.size())
      .Int("output_rows", off_rows)
      .Num("wall_seconds_off", off_wall)
      .Num("wall_seconds_on", on_wall)
      .Num("wall_seconds_procs", procs_supported ? procs_wall : -1.0)
      .Num("simulated_seconds_off", off_sim)
      .Num("simulated_seconds_on", on_sim)
      .Num("overhead_pct", overhead_pct)
      .Num("procs_overhead_pct", procs_overhead_pct)
      .Int("procs_workers", static_cast<long long>(
               procs_supported ? kProcWorkers : 0))
      .Append();
  return 0;
}
