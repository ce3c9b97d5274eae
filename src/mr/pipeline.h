// The stage pipeline and the narrow task-backend interface it runs on
// (DESIGN.md §5g).
//
// RunStagePipeline is the one implementation of a map-reduce stage:
//  1. resolve inputs and plan morsels (morsel size from the backend's
//     parallelism);
//  2. run the map phase through the backend: each map task emits a row
//     reference (Time, source row index) per routed row and target;
//  3. fold the map results: stats, quarantine budget and dataset;
//  4. decide adaptive-skew splits and reroute the hot rows' refs (skew.h);
//  5. build the physical -> base partition tables;
//  6. build every bucket once, on the cluster's thread pool: order its refs
//     canonically (by time, RowTimeLess on the referenced rows for ties) and
//     copy the referenced rows in that order, so a bucket's rows are
//     allocated contiguously in reducer order — or, for a worker gang, encode
//     them in that order into the bucket's slice of the stage's shared
//     segment (segment.h); then release consumed inputs. Backends only ever
//     see presorted reducer input;
//  7. run the reduce attempt scheduler: retries, speculative backups for
//     stragglers, first finisher wins, duplicate outputs byte-compared;
//  8. reap the worker gang and drop the segment, coalesce split partitions,
//     finalize stats, publish.
//
// A TaskBackend only executes task bodies (worker.h). The in-process backend
// runs them on the ThreadPool; the worker-gang backend (driver.h) ships them
// to forked worker processes and owns nothing but the transport. Retry,
// speculation, and the §III-C.1 repeatability check therefore behave the
// same in both modes by construction.

#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mr/cluster.h"
#include "mr/worker.h"

namespace timr {
class ThreadPool;
}

namespace timr::mr {

class TaskBackend {
 public:
  using Clock = std::chrono::steady_clock;

  virtual ~TaskBackend() = default;

  /// How many tasks the backend executes at once.
  virtual size_t parallelism() const = 0;

  /// Run every map task to completion; (*results)[i] and (*statuses)[i]
  /// belong to specs[i].
  virtual void RunMaps(const std::vector<MapTaskSpec>& specs,
                       std::vector<MapTaskResult>* results,
                       std::vector<Status>* statuses) = 0;

  /// Start one reduce attempt. Its report arrives, exactly once, from Wait.
  /// ctx's buckets (or slices) and schemas stay valid until then.
  virtual void StartReduce(const ReduceAttemptContext& ctx) = 0;

  /// Block until at least one report is ready or `deadline` passes, then
  /// append every ready report to `reports`.
  virtual void Wait(Clock::time_point deadline,
                    std::vector<AttemptReport>* reports) = 0;
};

/// What a stage run needs from the owning LocalCluster.
struct StageEnv {
  ThreadPool* pool = nullptr;          // map/sort work and the thread backend
  std::mutex* store_mu = nullptr;      // held to look up and add datasets
  FaultInjector* injector = nullptr;   // probed once per reduce attempt
  const FaultToleranceOptions* fault = nullptr;
  const ProcessOptions* process = nullptr;  // workers > 0: worker-gang backend
  int num_machines = 1;  // default partition count and makespan model
};

/// Run one stage (see the header comment); the semantics of
/// LocalCluster::RunStage.
Status RunStagePipeline(const MRStage& stage, const StageEnv& env,
                        std::map<std::string, Dataset>* store,
                        StageStats* stats);

}  // namespace timr::mr
