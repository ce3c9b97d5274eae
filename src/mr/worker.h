// Task bodies shared by every backend, and the worker side of the
// multi-process runtime (DESIGN.md §5g).
//
// RunMapTask / RunReduceAttempt are the single implementation of the map and
// reduce task bodies: the in-process backend (pipeline.cc), WorkerMain (worker
// process), and the worker-gang backend's in-process fallback (driver.cc) all
// call them, so every mode absorbs the same FaultKinds with identical
// semantics and produces identical bytes.
//
// The worker is a process fork()ed by the driver at stage start: it inherits
// the stage (closures and all — PartitionFn/ReducerFn cannot cross a process
// boundary by serialization), a copy-on-write snapshot of the stage's input
// datasets, and the fd of the stage's shuffle segment (segment.h), then
// serves task RPCs over its socketpair until told to shut down. Map tasks
// read the inherited inputs by (partition, row range) and ship back row
// references — (Time, source row index) per destination partition — never
// rows: the driver holds the same input rows and writes every shuffle bucket
// into the segment itself, canonically presorted. A reduce request names its
// buckets by slice of the segment; the worker maps the segment read-only,
// decodes the slices after checking them against its size, runs the reducer,
// and ships the output rows back over the socket, where the frame hash
// catches a worker killed mid-write. A heartbeat thread keeps liveness
// flowing while a long task runs.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mr/dataset.h"
#include "mr/fault.h"
#include "mr/segment.h"
#include "mr/stage.h"

namespace timr::mr {

/// A stage and its resolved input datasets — what every task body reads.
struct StageInputs {
  const MRStage* stage = nullptr;
  std::vector<Dataset*> datasets;
  std::vector<Schema> schemas;
};

// ------------------------------------------------- shared map task body --

struct MapTaskSpec {
  uint32_t task_id = 0;   // morsel index within the stage
  uint32_t dispatch = 0;  // transport-level send count (chaos keying)
  int input_index = 0;
  uint64_t src_partition = 0;
  uint64_t begin = 0;  // row range [begin, end) in the source partition
  uint64_t end = 0;
  int parts = 0;
  bool quarantine = false;
  bool skew_enabled = false;
  uint64_t sample_mask = 0;
};

/// A routed row: its Time cell and its index in the morsel's source
/// partition. The shuffle sorts refs by time and compares the referenced
/// rows only on a time tie.
struct RowRef {
  int64_t time = 0;
  uint64_t row = 0;
  bool operator==(const RowRef&) const = default;
};

struct MapTaskResult {
  std::vector<std::vector<RowRef>> refs;  // per destination partition
  std::vector<Row> quarantined;           // [input_idx, cells...] poison rows
  std::string first_bad;  // first schema-violation message ("" = none)
  uint64_t rows_in = 0;
  uint64_t rows_shuffled = 0;
  // Hot-key sketch (skew_enabled only): sampled key-hash occurrence counts,
  // merged by summation driver-side.
  std::vector<std::pair<uint64_t, uint32_t>> sketch;
};

/// Route one morsel's rows: one RowRef per (row, target partition). The
/// task neither moves nor copies a routed row. Errors (partitioner target
/// out of range, an escaped partitioner exception) return non-OK;
/// quarantined rows are not errors. A row whose Time cell is not an int64
/// gets a ref with time 0: the shuffle, which reads every referenced row's
/// Time, reports it. `abort` (optional) makes the task return early when
/// another morsel failed.
Status RunMapTask(const StageInputs& in, const MapTaskSpec& spec,
                  MapTaskResult* out,
                  const std::atomic<bool>* abort = nullptr);

/// Check a map result against the task that produced it before the driver
/// dereferences any of its refs: exactly spec.parts buckets, and every ref's
/// row inside the morsel's [begin, end). A worker's map response is input
/// from outside the driver.
Status CheckMapResult(const MapTaskSpec& spec, const MapTaskResult& result);

// -------------------------------------------- shared reduce attempt body --

struct ReduceAttemptContext {
  const MRStage* stage = nullptr;
  int physical_partition = 0;  // task id; virtual partitions included
  int base_partition = 0;      // partition index the reducer sees
  int attempt = 0;
  bool sort_output = false;  // split partitions: canonical-sort before accept
  // Per input, canonically sorted: the rows (thread mode), or their slices of
  // the stage's shuffle segment (process mode).
  const std::vector<std::vector<Row>>* buckets = nullptr;
  const std::vector<SegmentSlice>* slices = nullptr;
  const std::vector<Schema>* input_schemas = nullptr;  // kCorruptInput check
  Fault fault;  // injected fault to apply (probed by the caller)
};

/// The outcome of one reduce attempt.
struct AttemptReport {
  int task = 0;  // physical partition
  int attempt = 0;
  Status status;
  std::vector<Row> rows;  // empty unless status.ok() (per-attempt discard)
  double cpu_seconds = 0;
};

/// One reduce attempt: apply the injected fault, run the reducer inside the
/// task boundary (nothing escapes as anything but a Status), canonically sort
/// the output when ctx.sort_output, and measure the attempt's thread CPU.
AttemptReport RunReduceAttempt(const ReduceAttemptContext& ctx);

/// RunReduceAttempt on the buckets that ctx.slices name in `segment`: the
/// reduce body of a worker and of the worker-gang backend's in-process
/// fallback. A slice count other than the stage's input count, or a slice
/// DecodeBucket rejects, fails the attempt with a kRpcError.
AttemptReport RunReduceAttemptOnSegment(std::string_view segment,
                                        const ReduceAttemptContext& ctx);

// ------------------------------------------------- request/response wire --

namespace wire {

/// Encode/decode a Status as [code u8][message str].
void EncodeStatus(const Status& st, std::string* out);

void EncodeMapRequest(const MapTaskSpec& spec, std::string* payload);
Status DecodeMapRequest(std::string_view payload, MapTaskSpec* spec);

struct MapResponse {
  uint32_t task_id = 0;
  uint32_t dispatch = 0;
  Status status;
  MapTaskResult result;  // valid when status.ok()
};
void EncodeMapResponse(const MapResponse& resp, std::string* payload);
Status DecodeMapResponse(std::string_view payload, MapResponse* resp);

struct ReduceRequest {
  uint32_t task_id = 0;   // == physical partition
  uint32_t dispatch = 0;
  uint32_t attempt = 0;
  uint32_t base_partition = 0;
  bool sort_output = false;
  FaultKind fault_kind = FaultKind::kNone;  // injected fault for this attempt
  double straggler_seconds = 0;
  // Per input, its bucket's slice of the stage's shuffle segment. The worker
  // inherited the input schemas at fork.
  std::vector<SegmentSlice> inputs;
};
void EncodeReduceRequest(const ReduceRequest& req, std::string* payload);
Status DecodeReduceRequest(std::string_view payload, ReduceRequest* req);

struct ReduceResponse {
  uint32_t task_id = 0;
  uint32_t dispatch = 0;
  double cpu_seconds = 0;
  Status status;
  std::vector<Row> rows;  // valid when status.ok()
};
void EncodeReduceResponse(const ReduceResponse& resp, std::string* payload);
Status DecodeReduceResponse(std::string_view payload, ReduceResponse* resp);

/// Read the [task_id, dispatch] prefix every request/response payload starts
/// with (the driver's receive path needs them before full decode, e.g. for
/// chaos keying and idempotent acceptance).
bool PeekIds(std::string_view payload, uint32_t* task_id, uint32_t* dispatch);

}  // namespace wire

// ------------------------------------------------------- worker process --

struct WorkerEnv {
  int worker_index = 0;
  const StageInputs* inputs = nullptr;  // COW snapshot; map tasks read these
  int segment_fd = -1;  // the stage's shuffle segment; reduce tasks read it
  ProcessFaultPlan chaos;
  double heartbeat_interval_seconds = 0.05;
};

/// Worker process main loop: serve task RPCs on `fd` until a shutdown frame,
/// a driver disconnect, or a (possibly chaos-induced) death. Never returns —
/// exits with _exit(), skipping atexit/leak-check machinery inherited from
/// the forked driver image.
[[noreturn]] void WorkerMain(int fd, const WorkerEnv& env);

}  // namespace timr::mr
