// The worker-gang task backend of the stage pipeline (pipeline.h,
// DESIGN.md §5g).
//
// It executes a stage's map tasks and reduce attempts on a gang of fork()ed
// worker processes (worker.h) speaking the length-prefixed RPC of rpc.h over
// socketpairs. Reduce requests name their input buckets by slice of the
// stage's shuffle segment (segment.h), which every worker inherits; map
// responses and reduce outputs come back over the socket and are decoded on
// each worker's reader thread. The stage pipeline owns everything else — morsels, skew
// splits, the canonical shuffle sort, the attempt scheduler with its retries,
// speculation, and duplicate-output check — so this backend is only the
// transport:
//  - spawn and respawn: lost workers are replaced within
//    max_worker_restarts per stage;
//  - per-worker heartbeats with a deadline — a worker that goes silent is
//    SIGKILLed, declared lost, and its in-flight task requeued;
//  - a per-RPC deadline with capped exponential backoff; the same attempt is
//    re-dispatched, and a task whose dispatches exceed the transport retry
//    budget runs in-process instead;
//  - graceful degradation: when every worker is lost and the respawn budget
//    is spent, what remains runs in-process on the driver thread — a job
//    never fails because workers died.
//
// Output contract: bit-identical to the in-process backend for any worker
// count, chaos seed, and loss schedule. The task bodies are the same code
// (RunMapTask / RunReduceAttempt), the serialization round-trips values
// exactly, and the first response for an attempt is its only report.

#pragma once

#include <memory>

#include "mr/pipeline.h"
#include "mr/segment.h"

namespace timr::mr {

/// True when this build can run the multi-process runtime. ThreadSanitizer
/// cannot follow a fork of a multi-threaded process, so TSan builds always
/// use the in-process backend.
bool ProcessModeSupported();

/// Fork a gang of options.workers workers for one stage; each inherits
/// `segment`, which the pipeline fills before the first reduce attempt and
/// keeps alive past the backend. Returns nullptr — the caller then uses the
/// in-process backend — when process mode is unsupported or no worker could
/// be spawned. Records the gang size and the transport counters (restarts,
/// RPC retries, heartbeat timeouts, request and response bytes) in *stats;
/// the response bytes once the backend is destroyed, which reaps every
/// worker.
std::unique_ptr<TaskBackend> SpawnWorkerBackend(const StageInputs& in,
                                                const ShuffleSegment& segment,
                                                const ProcessOptions& options,
                                                StageStats* stats);

}  // namespace timr::mr
