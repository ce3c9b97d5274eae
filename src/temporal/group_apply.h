// GroupApply: apply a query sub-plan to every sub-stream of a grouping key.
// Paper §II-A.2 / Figure 4.

#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "temporal/aggregate.h"
#include "temporal/operator.h"
#include "temporal/stateless_ops.h"

namespace timr::temporal {

namespace internal {

// Heterogeneous (C++20 transparent) hashing so a group probe looks up by a
// view over an event's key columns without materializing a key Row;
// HashKeyOf(row, idx) == HashRow(ExtractKey(row, idx)) by construction, and
// ComputeKeyHashes matches it bit for bit on columnar batches.
struct KeyView {
  const Row* payload;           // row events, or
  const ColumnarPayload* cols;  // columnar events (row `row`)
  size_t row;
  const std::vector<int>* indices;
  uint64_t hash = 0;  // precomputed key hash, 0 when unknown
};
struct GroupHash {
  using is_transparent = void;
  size_t operator()(const Row& r) const { return HashRow(r); }
  size_t operator()(const KeyView& v) const {
    // A columnar view always carries its (ComputeKeyHashes) hash, even 0.
    return v.hash != 0 || v.payload == nullptr
               ? static_cast<size_t>(v.hash)
               : HashKeyOf(*v.payload, *v.indices);
  }
};
struct GroupKeyEq {
  using is_transparent = void;
  bool operator()(const Row& a, const Row& b) const { return a == b; }
  bool operator()(const KeyView& v, const Row& b) const {
    if (v.indices->size() != b.size()) return false;
    for (size_t i = 0; i < b.size(); ++i) {
      const int c = (*v.indices)[i];
      if (!(v.cols != nullptr ? v.cols->ValueAt(v.row, c) == b[i]
                              : (*v.payload)[c] == b[i])) {
        return false;
      }
    }
    return true;
  }
  bool operator()(const Row& a, const KeyView& v) const {
    return operator()(v, a);
  }
};
template <class V>
using GroupMap = std::unordered_map<Row, V, GroupHash, GroupKeyEq>;

}  // namespace internal

/// \brief Output half shared by both GroupApply operators: per-group results
/// (group key already prepended) wait in a reorder buffer that releases them
/// up to a watermark in canonical (le, re, payload) order rather than arrival
/// order. Arrival order among same-LE events from different groups depends on
/// when each group's state is flushed, so this content-based tiebreak is what
/// makes GroupApply output bit-identical across batch sizes, CTI spacing, and
/// the two execution strategies. The payload comparison goes through a hash
/// precomputed at push time: (le, re) ties — common when many groups emit at
/// the same snapshot boundary — then cost one integer compare, and the
/// lexicographic walk only runs on full hash collisions.
class GroupOutputOperator : public UnaryOperator {
 protected:
  void BufferOutput(Event event) {
    const size_t hash = HashRow(event.payload);
    buffer_.push(Buffered{std::move(event), hash});
  }

  /// Emits every buffered event with LE < `watermark`, then CTI(watermark).
  /// Callers guarantee no group can still produce an event below it.
  void ReleaseBelow(Timestamp watermark) {
    while (!buffer_.empty() && buffer_.top().event.le < watermark) {
      // Safe: the entry is popped immediately, so moving out from under the
      // priority queue's const top() cannot be observed by its ordering.
      Emit(std::move(const_cast<Buffered&>(buffer_.top()).event));
      buffer_.pop();
    }
    EmitCti(watermark);
  }

 private:
  struct Buffered {
    Event event;
    size_t payload_hash;
    bool operator>(const Buffered& other) const {
      if (event.le != other.event.le) return event.le > other.event.le;
      if (event.re != other.event.re) return event.re > other.event.re;
      if (payload_hash != other.payload_hash) {
        return payload_hash > other.payload_hash;
      }
      return std::lexicographical_compare(
          other.event.payload.begin(), other.event.payload.end(),
          event.payload.begin(), event.payload.end());
    }
  };
  std::priority_queue<Buffered, std::vector<Buffered>, std::greater<>> buffer_;
};

/// \brief An instantiated sub-plan network: the executor builds one per group.
/// Owns the operators; exposes the entry sink. Output is wired at build time
/// to a sink supplied by GroupApplyOp.
class SubPlanNetwork {
 public:
  SubPlanNetwork(EventSink* input, std::vector<std::shared_ptr<Operator>> ops)
      : input_(input), ops_(std::move(ops)) {}

  EventSink* input() const { return input_; }

 private:
  EventSink* input_;
  std::vector<std::shared_ptr<Operator>> ops_;
};

/// Builds a fresh sub-plan instance whose final output feeds `output`.
using SubPlanFactory =
    std::function<std::unique_ptr<SubPlanNetwork>(EventSink* output)>;

/// \brief Routes events to per-group sub-plan instances and merges their
/// outputs back into one ordered stream, with the group key prepended to each
/// output payload. Runs every GroupApply that MatchGroupedAggregate
/// (executor.h) does not lower to a GroupedAggregateOp.
///
/// Watermarking: sub-plan output CTIs are data-dependent (an aggregate with an
/// open snapshot holds its CTI at the snapshot start), so the operator's
/// output watermark is the minimum of every live instance's output CTI. A
/// *prototype* instance that receives every punctuation but no events bounds
/// what groups created in the future could emit. Output events are reordered
/// through a buffer released up to that watermark.
///
/// Punctuation delivery to instances is lazy and amortized: an instance gets
/// the pending CTI when it next receives an event, and a full broadcast runs
/// every ~max(64, groups) punctuations (and always at end-of-stream), so a
/// quiet group cannot stall the watermark forever while per-punctuation cost
/// stays near O(1) amortized.
class GroupApplyOp : public GroupOutputOperator {
 public:
  GroupApplyOp(std::vector<int> key_indices, SubPlanFactory factory)
      : key_indices_(std::move(key_indices)), factory_(std::move(factory)) {
    prototype_sink_ = std::make_unique<InstanceSink>(this, Row(), /*proto=*/true);
    prototype_ = factory_(prototype_sink_.get());
  }

  void OnBatch(EventBatch&& batch) override {
    // Columnar batches get their group-key hashes computed in one vectorized
    // pass; a row is then built only for each event itself.
    const bool columnar = batch.columnar();
    if (columnar) {
      ComputeKeyHashes(std::as_const(batch).columnar_payload(), key_indices_,
                       &hash_scratch_);
    } else {
      batch.EnsureOwned();  // row events are moved out to their groups
    }
    const EventBatch& in = batch;
    const auto& marks = in.ctis();
    size_t m = 0;
    for (size_t i = 0; i < in.NumEvents(); ++i) {
      for (; m < marks.size() && marks[m].pos <= i; ++m) Advance(marks[m].t);
      if (columnar) {
        const ColumnarPayload& p = in.columnar_payload();
        Event e;
        e.le = p.le()[i];
        e.re = p.re()[i];
        e.payload = p.MaterializeRow(i);
        Route(std::move(e), hash_scratch_[i]);
      } else {
        Route(std::move(batch.events()[i]), 0);
      }
    }
    for (; m < marks.size(); ++m) Advance(marks[m].t);
    batch.Clear();
    Flush();
  }

 private:
  // Captures one instance's sub-plan output. For real groups: prepends the
  // key, buffers events, and records the instance's output CTI for the
  // parent's watermark floor. For the prototype: tracks the lower bound for
  // yet-to-be-created groups.
  struct InstanceSink : public EventSink {
    InstanceSink(GroupApplyOp* op_in, Row key_in, bool proto_in)
        : op(op_in), key(std::move(key_in)), proto(proto_in) {}

    void OnBatch(EventBatch&& batch) override {
      TIMR_DCHECK(!proto || batch.NumEvents() == 0)
          << "prototype sub-plan instance produced an event";
      batch.EnsureRows();
      for (Event& event : batch.events()) {
        Row out;
        out.reserve(key.size() + event.payload.size());
        out.insert(out.end(), key.begin(), key.end());
        out.insert(out.end(), std::make_move_iterator(event.payload.begin()),
                   std::make_move_iterator(event.payload.end()));
        event.payload = std::move(out);
        op->BufferOutput(std::move(event));
      }
      // Only the instance's latest output CTI matters: the watermark is read
      // after the batch, and delivered marks strictly increase.
      if (!batch.ctis().empty()) AdvanceTo(batch.ctis().back().t);
      batch.Clear();
    }

    void AdvanceTo(Timestamp t) {
      if (proto) {
        op->proto_out_cti_ = t;
        return;
      }
      if (t <= out_cti) return;
      out_cti = t;
      // Lazy deletion: the superseded heap entry stays behind and is skipped
      // when the watermark is next queried. During a broadcast no entry is
      // pushed at all — the sweep ends in a wholesale heap rebuild.
      if (!op->in_broadcast_) {
        op->cti_heap_.push_back({t, this});
        std::push_heap(op->cti_heap_.begin(), op->cti_heap_.end(),
                       std::greater<>());
      }
    }

    GroupApplyOp* op;
    Row key;
    bool proto;
    Timestamp delivered_cti = kMinTime;  // last input CTI pushed to instance
    Timestamp out_cti = kMinTime;        // instance's last output CTI
  };

  /// Hands `event` to its group's instance as one batch: the pending CTI
  /// (when the instance has not seen it yet), then the event.
  void Route(Event event, uint64_t key_hash) {
    CountConsumed();
    // Heterogeneous probe: the existing-group hit path (the hot one) looks up
    // by a view over the payload's key columns without materializing a key Row.
    auto it = groups_.find(
        internal::KeyView{&event.payload, nullptr, 0, &key_indices_, key_hash});
    if (it == groups_.end()) {
      Row key = ExtractKey(event.payload, key_indices_);
      auto sink = std::make_unique<InstanceSink>(this, key, /*proto=*/false);
      // New instances can only emit at or above the prototype's output CTI
      // (they will only ever see events with LE >= the pending input CTI).
      sink->out_cti = proto_out_cti_;
      cti_heap_.push_back({sink->out_cti, sink.get()});
      std::push_heap(cti_heap_.begin(), cti_heap_.end(), std::greater<>());
      auto instance = factory_(sink.get());
      it = groups_.emplace(std::move(key),
                           Group{std::move(instance), std::move(sink)}).first;
    }
    Group& group = it->second;
    if (group.sink->delivered_cti < pending_cti_) {
      group.sink->delivered_cti = pending_cti_;
      route_.AddCti(pending_cti_);
    }
    route_.Add(std::move(event));
    Lend(group.instance->input(), route_);
  }

  /// Input CTI(t): always reaches the prototype, and every instance at each
  /// periodic broadcast; then output is released up to the new watermark.
  void Advance(Timestamp t) {
    if (t <= pending_cti_) return;
    pending_cti_ = t;
    route_.AddCti(t);
    Lend(prototype_->input(), route_);
    const size_t period = std::max<size_t>(64, groups_.size());
    if (t >= kMaxTime || ++ctis_since_broadcast_ >= period) {
      ctis_since_broadcast_ = 0;
      // A broadcast advances every instance at once, which would cost one
      // O(log n) heap push per instance; instead pushes are suppressed for
      // the sweep and the heap is rebuilt from the now-current CTIs in one
      // O(n) make_heap — this also sheds every stale entry in the same pass.
      in_broadcast_ = true;
      for (auto& [key, group] : groups_) {
        if (group.sink->delivered_cti < t) {
          group.sink->delivered_cti = t;
          route_.AddCti(t);
          Lend(group.instance->input(), route_);
        }
      }
      in_broadcast_ = false;
      cti_heap_.clear();
      cti_heap_.reserve(groups_.size());
      for (auto& [key, group] : groups_) {
        cti_heap_.push_back({group.sink->out_cti, group.sink.get()});
      }
      std::make_heap(cti_heap_.begin(), cti_heap_.end(), std::greater<>());
    }
    Release();
  }

  void Release() {
    Timestamp watermark = proto_out_cti_;
    // Drop stale heap entries (the sink has advanced past them); a live top
    // is the minimum over every instance's current output CTI, because CTIs
    // only advance, so stale values sort below their sink's current one.
    while (!cti_heap_.empty() &&
           cti_heap_.front().first != cti_heap_.front().second->out_cti) {
      std::pop_heap(cti_heap_.begin(), cti_heap_.end(), std::greater<>());
      cti_heap_.pop_back();
    }
    if (!cti_heap_.empty()) {
      watermark = std::min(watermark, cti_heap_.front().first);
    }
    ReleaseBelow(watermark);
  }

  std::vector<int> key_indices_;
  SubPlanFactory factory_;

  struct Group {
    std::unique_ptr<SubPlanNetwork> instance;
    std::unique_ptr<InstanceSink> sink;
  };
  internal::GroupMap<Group> groups_;

  std::unique_ptr<InstanceSink> prototype_sink_;
  std::unique_ptr<SubPlanNetwork> prototype_;

  Timestamp pending_cti_ = kMinTime;
  Timestamp proto_out_cti_ = kMinTime;
  // Min-heap over (output CTI, instance) with lazy deletion; entries whose
  // timestamp no longer matches their sink's out_cti are stale. Rebuilt
  // wholesale at every broadcast (see Advance).
  std::vector<std::pair<Timestamp, const InstanceSink*>> cti_heap_;
  bool in_broadcast_ = false;
  size_t ctis_since_broadcast_ = 0;
  std::vector<uint64_t> hash_scratch_;  // per-batch key hashes (columnar)
  EventBatch route_ = EventBatch::Unpooled();  // what Route/Advance send
};

/// \brief GroupApply over a scalar aggregate, run as one operator instead of
/// one sub-plan network per group. MatchGroupedAggregate (executor.h) selects
/// it for sub-plans SubplanInput → (Select | AlterLifetime)* →
/// Aggregate{Count, Sum, Avg} → Select*.
///
/// The head steps run once on the ungrouped stream (a FusedStatelessOp, so
/// columnar batches keep their kernels). Each key then owns one ScalarSweep
/// lane in a hash table. A lane is flushed to the head-mapped pending CTI
/// right before it takes an event (where GroupApplyOp's instance would get
/// that CTI) and otherwise only once a boundary falls due: a min-heap over
/// the lanes' next boundaries, so a CTI costs O(due lanes · log n) instead of
/// a periodic pass over every group. Snapshots get the key prepended, pass
/// the tail Selects, and enter the shared reorder buffer, released up to
/// min(pending CTI, earliest open snapshot of any lane).
///
/// A lane is never flushed twice at one CTI: that would split a boundary's
/// merged delta and change Sum/Avg rounding. With that rule, the shared sweep
/// and the shared release order, output equals GroupApplyOp's bit for bit.
/// Accounting matches too: one consumed event per routed input.
class GroupedAggregateOp : public GroupOutputOperator {
 public:
  /// `head` in pipeline order; `value_index` is -1 for Count.
  GroupedAggregateOp(std::vector<int> key_indices,
                     std::vector<FusedStatelessOp::Step> head, AggKind kind,
                     int value_index, std::vector<Predicate> tail)
      : key_indices_(std::move(key_indices)),
        kind_(kind),
        value_index_(value_index),
        tail_(std::move(tail)),
        lanes_in_(this) {
    if (!head.empty()) {
      head_ = std::make_unique<FusedStatelessOp>(std::move(head));
      head_->AddOutput(&lanes_in_);
    }
  }

  void OnBatch(EventBatch&& batch) override {
    CountConsumedN(batch.NumEvents());
    Input()->OnBatch(std::move(batch));
    Flush();
  }

 private:
  struct Lane {
    const Row* key = nullptr;
    internal::ScalarSweep sweep;
    Timestamp flushed = kMinTime;   // CTI of the last flush
    Timestamp due = kMaxTime;       // key of the live due-heap entry
    Timestamp open_key = kMaxTime;  // key of the newest open-heap entry
  };
  using HeapEntry = std::pair<Timestamp, Lane*>;
  using MinHeap = std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                      std::greater<>>;

  // The head's output: events with mapped lifetimes, and mapped CTIs.
  struct LaneInput : public EventSink {
    explicit LaneInput(GroupedAggregateOp* op_in) : op(op_in) {}
    void OnBatch(EventBatch&& batch) override { op->RouteBatch(batch); }
    GroupedAggregateOp* op;
  };

  EventSink* Input() {
    return head_ != nullptr ? static_cast<EventSink*>(head_.get()) : &lanes_in_;
  }

  double ValueOf(const Row& payload) const {
    return kind_ == AggKind::kCount ? 1.0 : payload[value_index_].AsNumeric();
  }

  void RouteBatch(EventBatch& batch) {
    // A string value column (AsNumeric rejects it anyway) takes the row path.
    if (batch.columnar() && kind_ != AggKind::kCount &&
        std::as_const(batch).columnar_payload().col(value_index_).type ==
            ValueType::kString) {
      batch.EnsureRows();
    }
    const EventBatch& in = batch;  // read-only: a shared view stays shared
    const auto& marks = in.ctis();
    size_t m = 0;
    auto advance_to = [&](size_t i) {
      for (; m < marks.size() && marks[m].pos <= i; ++m) {
        pending_ = std::max(pending_, marks[m].t);
      }
    };
    if (in.columnar()) {
      // Keys hash in one vectorized pass and lanes read le/re and the value
      // column in place; a key Row is built only for a new lane.
      const ColumnarPayload& p = in.columnar_payload();
      ComputeKeyHashes(p, key_indices_, &hashes_);
      const Column* vc =
          kind_ == AggKind::kCount ? nullptr : &p.col(value_index_);
      for (size_t i = 0; i < p.num_rows(); ++i) {
        advance_to(i);
        const double v = vc == nullptr ? 1.0
                         : vc->type == ValueType::kInt64
                             ? static_cast<double>(vc->i64[i])
                             : vc->f64[i];
        Add(LaneFor({nullptr, &p, i, &key_indices_, hashes_[i]}), p.le()[i],
            p.re()[i], v);
      }
    } else {
      const auto& events = in.events();
      for (size_t i = 0; i < events.size(); ++i) {
        advance_to(i);
        const Event& e = events[i];
        Add(LaneFor({&e.payload, nullptr, 0, &key_indices_}), e.le, e.re,
            ValueOf(e.payload));
      }
    }
    advance_to(in.NumEvents());
    batch.Clear();
    Settle();
  }

  Lane& LaneFor(const internal::KeyView& view) {
    auto it = lanes_.find(view);
    if (it == lanes_.end()) {
      Row key;
      key.reserve(key_indices_.size());
      for (int c : key_indices_) {
        key.push_back(view.cols != nullptr ? view.cols->ValueAt(view.row, c)
                                           : (*view.payload)[c]);
      }
      it = lanes_.emplace(std::move(key), Lane{}).first;
      it->second.key = &it->first;
    }
    return it->second;
  }

  void Add(Lane& lane, Timestamp le, Timestamp re, double v) {
    if (lane.flushed < pending_) FlushLane(lane);
    TIMR_DCHECK(le >= pending_) << "event arrived below the pending CTI";
    lane.sweep.Add(le, re, v);
    const Timestamp next = lane.sweep.next_boundary();
    if (next < lane.due) {
      lane.due = next;
      due_.push({next, &lane});
    }
  }

  void FlushLane(Lane& lane) {
    lane.flushed = pending_;
    lane.sweep.Flush(pending_, kind_, [&](Timestamp le, Timestamp re, Value v) {
      if (!tail_.empty()) {
        tail_row_.assign(1, v);
        for (const Predicate& keep : tail_) {
          if (!keep(tail_row_)) return;
        }
      }
      Row out;
      out.reserve(lane.key->size() + 1);
      out.insert(out.end(), lane.key->begin(), lane.key->end());
      out.push_back(std::move(v));
      BufferOutput(Event(le, re, std::move(out)));
    });
    const Timestamp open = lane.sweep.open_since();
    if (lane.sweep.active() && open != lane.open_key) {
      lane.open_key = open;
      open_.push({open, &lane});
    }
  }

  /// Flushes every lane with a boundary at or before the pending CTI, then
  /// releases output up to the new watermark.
  void Settle() {
    if (pending_ <= settled_) return;  // nothing can have fallen due
    settled_ = pending_;
    while (!due_.empty() && due_.top().first <= pending_) {
      const auto [t, lane] = due_.top();
      due_.pop();
      if (lane->due != t) continue;  // superseded by an earlier boundary
      if (lane->flushed == pending_) {
        // Took an event at the pending CTI after its flush here; it is due
        // at the next CTI, when GroupApplyOp's instance would flush it.
        deferred_.push_back(lane);
        continue;
      }
      FlushLane(*lane);
      lane->due = lane->sweep.next_boundary();
      if (lane->due != kMaxTime) due_.push({lane->due, lane});
    }
    for (Lane* lane : deferred_) due_.push({lane->due, lane});
    deferred_.clear();
    // Drop entries whose lane went idle or moved its open snapshot on.
    while (!open_.empty()) {
      const auto [t, lane] = open_.top();
      if (lane->sweep.active() && lane->sweep.open_since() == t) break;
      if (lane->open_key == t) lane->open_key = kMaxTime;
      open_.pop();
    }
    ReleaseBelow(open_.empty() ? pending_
                               : std::min(pending_, open_.top().first));
  }

  std::vector<int> key_indices_;
  AggKind kind_;
  int value_index_;
  std::vector<Predicate> tail_;
  Row tail_row_;  // the aggregate's one-column output, as the tail sees it
  LaneInput lanes_in_;
  std::unique_ptr<FusedStatelessOp> head_;
  internal::GroupMap<Lane> lanes_;
  Timestamp pending_ = kMinTime;  // head-mapped input CTI
  Timestamp settled_ = kMinTime;
  MinHeap due_;   // (next boundary, lane); stale unless lane->due matches
  MinHeap open_;  // (open snapshot start, lane) of active lanes, lazily pruned
  std::vector<Lane*> deferred_;
  std::vector<uint64_t> hashes_;  // per-batch key hashes (columnar)
};

}  // namespace timr::temporal
