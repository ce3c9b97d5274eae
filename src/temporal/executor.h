// Single-node plan execution: instantiates a CQ plan as a network of physical
// operators and drives it with punctuated event streams. This is the engine
// TiMR embeds inside map-reduce reducers (paper §III-A step 4) and the engine
// a "real-time" deployment would run directly.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "temporal/operator.h"
#include "temporal/plan.h"

namespace timr::temporal {

/// \brief Build-time columnar ingest decisions for one plan DAG.
///
/// Computed by PlanColumnarIngest and consumed by two clients that must never
/// disagree: the executor's network builder (which configures each source's
/// ingest mode from it) and the static analysis layer (which predicts which
/// fragments run vectorized vs. hit the EnsureRows row fallback). Keeping the
/// rules in one function is what makes the analysis's prediction exact rather
/// than a parallel reimplementation that can drift.
struct ColumnarIngestDecisions {
  /// Whether the physical operator for each node consumes columnar batches
  /// natively (does useful vectorized work before — or without —
  /// materializing rows). Pass-throughs (Exchange, ConformanceCheck) inherit
  /// the AND of their consumers' entries.
  std::unordered_map<const PlanNode*, bool> consumes_columnar;
  /// For kInput nodes only: whether RunBatch will build columnar morsels for
  /// the source. True iff every direct consumer consumes columnar (all, not
  /// any: a multicast clones the morsel per consumer, and one row-bound
  /// consumer re-materializing its clone costs more than the rest save).
  std::unordered_map<const PlanNode*, bool> ingest_columnar;
};

/// Decide columnar ingest for every node reachable from `root` via child
/// edges. Group sub-plans are not entered: their networks are built per group
/// instance and have no kInput sources of their own.
ColumnarIngestDecisions PlanColumnarIngest(const PlanNodePtr& root);

/// \brief A GroupApply sub-plan that runs as one GroupedAggregateOp
/// (group_apply.h) instead of one operator network per group: a Union tree
/// (or a lone chain) whose every leaf is the chain SubplanInput →
/// (Select | AlterLifetime)* → Aggregate{Count, Sum, Avg} → Select*.
struct GroupedAggregateShape {
  /// One Union leaf, nodes listed upstream first.
  struct Branch {
    std::vector<const PlanNode*> head;  // Select / AlterLifetime
    const PlanNode* aggregate = nullptr;
    std::vector<const PlanNode*> tail;  // Select
  };
  std::vector<Branch> branches;  // the Union tree's leaves, left to right
};

/// The one place that decides the lowering: the shape of `group_apply`'s
/// sub-plan, or nullopt when it keeps the per-group GroupApplyOp (joins,
/// UDOs, Min/Max, a Project, nested GroupApply, a Select above a Union, ...).
std::optional<GroupedAggregateShape> MatchGroupedAggregate(
    const PlanNode& group_apply);

/// \brief A running instance of a CQ plan.
///
/// Two usage modes, identical semantics (that is the point of the temporal
/// algebra):
///  - Offline: Execute() replays sorted event collections and returns the
///    full output (used inside TiMR reducers and tests).
///  - Incremental: PushEvent/PushCti/Finish feed a live stream; output is
///    delivered to the collector (poll TakeOutput) or a callback sink.
class Executor {
 public:
  /// Builds the network. `root`'s output feeds the internal collector.
  static Result<std::unique_ptr<Executor>> Create(const PlanNodePtr& root);

  /// One-shot: run `root` over the given per-source event collections
  /// (sorted internally) and return all output events.
  static Result<std::vector<Event>> Execute(
      const PlanNodePtr& root, std::map<std::string, std::vector<Event>> inputs);

  /// Instance form of Execute: replay `inputs` through this (fresh) executor.
  /// Leaves the executor finished; engine statistics remain queryable.
  Result<std::vector<Event>> RunBatch(
      std::map<std::string, std::vector<Event>> inputs);

  /// Push a morsel (events + interleaved CTI marks) into the named source.
  /// Events per source must arrive in non-decreasing LE order, at or above
  /// the source's CTI: a batch holding an event below the source's last CTI
  /// or last LE is rejected whole with Status::Invalid.
  Status PushBatch(const std::string& input, EventBatch&& batch);

  /// Push one event: a batch of one, checked like PushBatch.
  Status PushEvent(const std::string& input, Event event);

  /// Advance the named source's CTI (a CTI-only batch).
  Status PushCti(const std::string& input, Timestamp t);

  /// Advance every source's CTI (valid when the caller interleaves sources in
  /// global LE order, as the offline driver does).
  void PushCtiAll(Timestamp t);

  /// Signal end-of-stream on all sources, flushing all state.
  void Finish();

  /// Drain events collected so far.
  std::vector<Event> TakeOutput() { return collector_.TakeEvents(); }

  /// Also deliver output to `sink` as it is produced (live mode).
  void AddOutputSink(EventSink* sink);

  /// Total events processed across all operators — the paper's Figure 15
  /// throughput metric counts engine events, not just source rows.
  uint64_t TotalEventsConsumed() const;

  /// Violations recorded by ConformanceCheck operators in the plan (empty when
  /// the plan is not instrumented or the streams conformed). Each entry names
  /// the checked edge; see temporal/conformance.h.
  std::vector<std::string> ConformanceViolations() const;

  const std::vector<std::string>& input_names() const { return input_names_; }

  /// The build-time columnar ingest decision for the named source — the
  /// runtime half of the columnar-eligibility analysis (tests assert the
  /// analysis's prediction equals this observed mode for every plan).
  Result<bool> InputPrefersColumnar(const std::string& input) const;

  /// Morsel size used by RunBatch when cutting the merged input stream into
  /// EventBatches. Output is bit-identical for any size >= 1 (see RunBatch);
  /// the knob exists for benchmarks and the batch-invariance tests.
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }
  size_t batch_size() const { return batch_size_; }

  /// Whether RunBatch builds columnar morsels for inputs whose consumers have
  /// columnar kernels (determined by static plan analysis at build time).
  /// Output is bit-identical either way; the knob exists for benchmarks and
  /// the columnar-invariance tests.
  void set_columnar(bool on) { columnar_enabled_ = on; }
  bool columnar_enabled() const { return columnar_enabled_; }

  /// Punctuation thinning: RunBatch emits one CTI per `n` LE advances of the
  /// merged input stream. Output is identical at any setting >= 1 (operators
  /// are CTI-granularity-invariant); higher values trade punctuation traffic
  /// against operator state held longer.
  void set_cti_thinning(size_t n) { cti_thinning_ = n == 0 ? 1 : n; }
  size_t cti_thinning() const { return cti_thinning_; }

  /// Caller guarantee that every RunBatch input vector is already LE-sorted,
  /// letting the driver skip its per-input is_sorted scan. TiMR reducers set
  /// this: the shuffle contract (mr/stage.h) delivers each partition's input
  /// in canonical LE order. Debug builds still verify the guarantee.
  void set_assume_sorted_inputs(bool on) { assume_sorted_inputs_ = on; }
  bool assume_sorted_inputs() const { return assume_sorted_inputs_; }

  static constexpr size_t kDefaultBatchSize = 1024;
  static constexpr size_t kDefaultCtiThinning = 16;

  class InputNode;

 private:
  Executor() = default;

  std::vector<std::shared_ptr<Operator>> operators_;
  std::map<std::string, InputNode*> inputs_;
  std::vector<std::string> input_names_;
  Operator* root_op_ = nullptr;
  CollectorSink collector_;
  size_t batch_size_ = kDefaultBatchSize;
  size_t cti_thinning_ = kDefaultCtiThinning;
  bool columnar_enabled_ = true;
  bool assume_sorted_inputs_ = false;
};

}  // namespace timr::temporal
