// A map-reduce stage: the paper's basic model (§II-B). The map phase assigns
// each row to one or more partitions; the framework shuffles and sorts each
// partition by Time; the reduce phase runs a user reducer per partition.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"

namespace timr::mr {

/// Map-side partition assignment. May emit a row into several partitions —
/// TiMR's temporal partitioning replicates span-boundary rows (paper §III-B).
/// `input_index` identifies which of the stage's inputs the row came from.
using PartitionFn =
    std::function<void(int input_index, const Row& row, int num_partitions,
                       std::vector<int>* targets)>;

/// Reduce-side computation for one partition. `inputs[i]` holds this
/// partition's rows from the stage's i-th input, sorted by the Time column.
/// Appends result rows to `output`.
using ReducerFn = std::function<Status(
    int partition_index, const std::vector<std::vector<Row>>& inputs,
    std::vector<Row>* output)>;

/// Deterministic per-row key hash — the value HashPartitioner reduces modulo
/// num_partitions. Exposed separately from PartitionFn so the skew-aware
/// runtime can use the *same* hash for routing, hot-key detection, and salted
/// sub-partitioning (cluster.cc); it must be a pure function of the row's key
/// columns, never of runtime state.
using KeyHashFn = std::function<uint64_t(int input_index, const Row& row)>;

/// The key hash behind HashPartitioner (seeded HashCombine over the key
/// columns' Value::Hash, per input). Bit-identical to the columnar bulk path
/// (temporal::ComputeKeyHashes), so detection at the shuffle and hashing in
/// the engine agree on what "the same key" means.
KeyHashFn MakeKeyHasher(std::vector<std::vector<int>> key_indices_per_input);

/// Adaptive skew-aware repartitioning (ROADMAP 5(b)). When enabled on a stage
/// that carries a KeyHashFn, the map phase keeps a sampled hot-key sketch; a
/// partition whose routed row count exceeds `skew_ratio_threshold` times the
/// median is *split*: its hot keys are rerouted across `hot_key_fanout`
/// virtual partitions (salt derived purely from (stage name, key_hash)), each
/// reduced independently, and the virtual outputs are k-way merged back into
/// the base partition in canonical RowTimeLess order. Decisions are a pure
/// function of the input data, so outputs stay bit-identical across thread
/// counts, retries, and speculation; stages without splits are byte-for-byte
/// identical to a run with the policy off.
struct SkewPolicy {
  bool adaptive_repartition = false;
  /// Split a partition when rows_routed(partition) / median > this ratio.
  double skew_ratio_threshold = 4.0;
  /// Virtual partitions a split partition's hot keys are spread across.
  int hot_key_fanout = 8;
  /// At most this many distinct hot keys are split out per partition.
  int max_hot_keys_per_partition = 32;
  /// Partitions with fewer routed rows than this are never split.
  size_t min_partition_rows = 4096;
  /// The sketch samples ~1 in 2^sample_shift rows (by a hash of the source
  /// row index, so the sample — and every decision downstream of it — is
  /// independent of thread count and morsel boundaries, and does not alias
  /// against periodically interleaved keys).
  int sample_shift = 5;
  /// A sketched key needs at least this many samples to count as hot.
  uint32_t min_hot_key_samples = 4;
};

struct MRStage {
  std::string name;

  /// Names of input datasets (resolved against the job's dataset namespace).
  std::vector<std::string> inputs;
  std::string output;
  Schema output_schema;

  int num_partitions = 0;  // 0: use the cluster's machine count

  /// Indices into `inputs` whose datasets the runtime may *consume*: the
  /// input's partitions are released once the shuffle has built every bucket
  /// (the dataset stays in the store with its schema but zero rows), and a
  /// bucket that is one whole source partition already in canonical order
  /// takes that partition over instead of copying its rows. Only mark an
  /// input when no later stage or caller reads it again; TiMR marks
  /// intermediate fragment outputs on their last use. Inputs whose dataset
  /// name appears more than once in `inputs` are never consumed, regardless
  /// of this list.
  std::vector<int> consumable_inputs;

  PartitionFn partition_fn;
  ReducerFn reducer;

  /// Per-row key hash consistent with partition_fn: a stage whose partitioner
  /// routes every row to key_hash_fn(...) % num_partitions (HashPartitioner
  /// built from the same key columns does) may set this to opt into adaptive
  /// repartitioning. Stages without it — temporal partitioning, single
  /// partition, custom multi-target partitioners — are never split.
  KeyHashFn key_hash_fn;

  /// Skew policy for this stage (see SkewPolicy). Default: off.
  SkewPolicy skew;
};

/// Hash partitioner over the given column indices (the paper's
/// hash(key) % machines bucketing, §III-C.3). Columns are resolved per input
/// because inputs may have different schemas.
PartitionFn HashPartitioner(std::vector<std::vector<int>> key_indices_per_input);

/// Everything to partition 0 (for final global merges / single reducers).
PartitionFn SinglePartition();

/// Which of `stage.inputs` the runtime will actually consume, applying the
/// rules documented on MRStage::consumable_inputs (in-range indices whose
/// dataset name appears exactly once). Shared between the map phase (which
/// releases those inputs) and checkpointing (which must record the release to
/// replay it on resume).
std::vector<bool> ConsumableInputFlags(const MRStage& stage);

/// Names of the input datasets `stage` consumes, in input order.
std::vector<std::string> ConsumedInputNames(const MRStage& stage);

}  // namespace timr::mr
