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
#include "temporal/join.h"
#include "temporal/operator.h"
#include "temporal/stateless_ops.h"
#include "temporal/tee.h"

namespace timr::temporal {

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
/// (executor.h) does not lower to a GroupedAggregateOp: sub-plans with
/// joins, UDOs, Min/Max, a Project or a nested GroupApply.
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
        internal::RowKeyView{&event.payload, &key_indices_, key_hash});
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
  std::unordered_map<Row, Group, internal::RowHash, internal::RowEq> groups_;

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

/// \brief GroupApply over a Union of scalar aggregates, run as one operator
/// instead of one sub-plan network per group. MatchGroupedAggregate
/// (executor.h) selects it for sub-plans whose every Union leaf is a branch
/// SubplanInput → (Select | AlterLifetime)* → Aggregate{Count, Sum, Avg} →
/// Select* (a lone chain is a Union of one).
///
/// Each branch's head steps run once on the ungrouped stream (a
/// FusedStatelessOp, so columnar batches keep their kernels; a tee hands
/// every branch its own view). Each key owns one slot in a flat table: the
/// key, stored once, and one ScalarSweep lane per branch. A lane is flushed
/// to its branch's head-mapped pending CTI right before it takes an event
/// (where GroupApplyOp's instance would get that CTI) and otherwise only once
/// a boundary falls due: a per-branch min-heap over the lanes' next
/// boundaries, so a CTI costs O(due lanes · log n) instead of a periodic pass
/// over every group. Snapshots get the key prepended, pass the branch's tail
/// Selects, and enter the shared reorder buffer, released up to the minimum
/// over branches of min(pending CTI, earliest open snapshot of a lane).
///
/// A lane is never flushed twice at one CTI: that would split a boundary's
/// merged delta and change Sum/Avg rounding. GroupApplyOp's instance also
/// hands the CTI to a branch that takes no event; such a flush only splits a
/// delta once an event at that boundary follows, and that event flushes its
/// lane here first. With these rules, the shared sweep and the shared
/// release order, output equals GroupApplyOp's bit for bit.
/// Accounting matches too: one consumed event per routed input.
///
/// Slots are found by open addressing on the precomputed key hash
/// (ComputeKeyHashes / HashKeyOf). A slot whose lanes are all idle (see
/// ScalarSweep::idle) is retired and reused, so the table holds only keys
/// with live state; an idle lane acts as a fresh one, so a returning key's
/// new slot behaves exactly as its retired one would have. Heap entries
/// carry the slot's generation and are skipped once it was retired.
class GroupedAggregateOp : public GroupOutputOperator {
 public:
  /// One Union leaf of the sub-plan.
  struct Branch {
    std::vector<FusedStatelessOp::Step> head;  // pipeline order
    AggKind kind = AggKind::kCount;
    int value_index = -1;  // -1 for Count
    std::vector<Predicate> tail;
  };

  GroupedAggregateOp(std::vector<int> key_indices, std::vector<Branch> branches)
      : key_indices_(std::move(key_indices)),
        branches_(branches.size()),
        index_(16, Bucket{kNoSlot, 0}) {
    for (size_t b = 0; b < branches.size(); ++b) {
      BranchState& br = branches_[b];
      br.op = this;
      br.index = b;
      br.kind = branches[b].kind;
      br.value_index = branches[b].value_index;
      br.tail = std::move(branches[b].tail);
      EventSink* entry = &br;
      if (!branches[b].head.empty()) {
        br.head =
            std::make_unique<FusedStatelessOp>(std::move(branches[b].head));
        br.head->AddOutput(&br);
        entry = br.head.get();
      }
      if (branches.size() == 1) {
        input_ = entry;
      } else {
        tee_.AddPort(entry);
        input_ = &tee_;
      }
    }
  }

  void OnBatch(EventBatch&& batch) override {
    CountConsumedN(batch.NumEvents());
    input_->OnBatch(std::move(batch));
    Release();
    Flush();
  }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Lane {
    internal::ScalarSweep sweep;
    Timestamp flushed = kMinTime;   // CTI of the last flush
    Timestamp due = kMaxTime;       // key of the live due-heap entry
    Timestamp open_key = kMaxTime;  // key of the newest open-heap entry
  };
  struct Slot {
    Row key;
    uint64_t hash = 0;
    uint32_t gen = 0;  // bumped when the slot is retired
  };
  // (time, slot, generation); stale once the slot's generation moved on.
  struct Ref {
    Timestamp t;
    uint32_t slot;
    uint32_t gen;
    bool operator>(const Ref& o) const {
      if (t != o.t) return t > o.t;
      return slot > o.slot;
    }
  };
  using MinHeap = std::priority_queue<Ref, std::vector<Ref>, std::greater<>>;
  // One open-addressing bucket: the slot and the high half of its key hash.
  struct Bucket {
    uint32_t slot;
    uint32_t tag;
  };

  // A branch's state; also the sink its head's output (events with mapped
  // lifetimes, and mapped CTIs) arrives at.
  struct BranchState : public EventSink {
    void OnBatch(EventBatch&& batch) override { op->RouteBatch(*this, batch); }

    GroupedAggregateOp* op = nullptr;
    size_t index = 0;
    AggKind kind = AggKind::kCount;
    int value_index = -1;
    std::vector<Predicate> tail;
    std::unique_ptr<FusedStatelessOp> head;
    Timestamp pending = kMinTime;  // head-mapped input CTI
    Timestamp settled = kMinTime;
    MinHeap due;   // (next boundary, slot); stale unless the lane's due matches
    MinHeap open;  // (open snapshot start, slot) of active lanes, lazily pruned
    std::vector<Ref> deferred;
  };

  Lane& LaneAt(uint32_t slot, const BranchState& br) {
    return lanes_[slot * branches_.size() + br.index];
  }

  void RouteBatch(BranchState& br, EventBatch& batch) {
    // A string value column (AsNumeric rejects it anyway) takes the row path.
    if (batch.columnar() && br.kind != AggKind::kCount &&
        std::as_const(batch).columnar_payload().col(br.value_index).type ==
            ValueType::kString) {
      batch.EnsureRows();
    }
    const EventBatch& in = batch;  // read-only: a shared view stays shared
    const auto& marks = in.ctis();
    size_t m = 0;
    auto advance_to = [&](size_t i) {
      for (; m < marks.size() && marks[m].pos <= i; ++m) {
        br.pending = std::max(br.pending, marks[m].t);
      }
    };
    if (in.columnar()) {
      // Keys hash in one vectorized pass and lanes read le/re and the value
      // column in place; a key Row is built only for a new slot.
      const ColumnarPayload& p = in.columnar_payload();
      ComputeKeyHashes(p, key_indices_, &hashes_);
      const Column* vc =
          br.kind == AggKind::kCount ? nullptr : &p.col(br.value_index);
      for (size_t i = 0; i < p.num_rows(); ++i) {
        advance_to(i);
        const double v = vc == nullptr ? 1.0
                         : vc->type == ValueType::kInt64
                             ? static_cast<double>(vc->i64[i])
                             : vc->f64[i];
        Add(br, SlotFor(hashes_[i], nullptr, &p, i), p.le()[i], p.re()[i],
            v);
      }
    } else {
      for (size_t i = 0; i < in.events().size(); ++i) {
        advance_to(i);
        const Event& e = in.events()[i];
        const uint32_t s =
            SlotFor(HashKeyOf(e.payload, key_indices_), &e.payload, nullptr, 0);
        Add(br, s, e.le, e.re,
            br.kind == AggKind::kCount ? 1.0
                                       : e.payload[br.value_index].AsNumeric());
      }
    }
    advance_to(in.NumEvents());
    batch.Clear();
    Settle(br);
  }

  /// Whether slot `s` holds the key of row `row` (of `cols` when non-null,
  /// else of `payload`).
  bool KeyMatches(uint32_t s, const Row* payload, const ColumnarPayload* cols,
                  size_t row) const {
    const Row& key = slots_[s].key;
    for (size_t i = 0; i < key.size(); ++i) {
      const int c = key_indices_[i];
      if (!(cols != nullptr ? cols->ValueAt(row, c) == key[i]
                            : (*payload)[c] == key[i])) {
        return false;
      }
    }
    return true;
  }

  /// The slot of the key with hash `hash` (see KeyMatches for the row), made
  /// on first sight: linear probing, the tag screening most mismatches.
  uint32_t SlotFor(uint64_t hash, const Row* payload,
                   const ColumnarPayload* cols, size_t row) {
    const auto tag = static_cast<uint32_t>(hash >> 32);
    size_t mask = index_.size() - 1;
    size_t i = hash & mask;
    for (; index_[i].slot != kNoSlot; i = (i + 1) & mask) {
      if (index_[i].tag == tag &&
          KeyMatches(index_[i].slot, payload, cols, row)) {
        return index_[i].slot;
      }
    }
    if ((live_ + 1) * 2 > index_.size()) {  // keep the load at most 1/2
      Rehash(index_.size() * 2);
      mask = index_.size() - 1;
      i = hash & mask;
      while (index_[i].slot != kNoSlot) i = (i + 1) & mask;
    }
    uint32_t s;
    if (free_.empty()) {
      s = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
      lanes_.resize(lanes_.size() + branches_.size());
    } else {
      s = free_.back();
      free_.pop_back();
    }
    Slot& slot = slots_[s];
    slot.key.clear();
    for (int c : key_indices_) {
      slot.key.push_back(cols != nullptr ? cols->ValueAt(row, c)
                                         : (*payload)[c]);
    }
    slot.hash = hash;
    index_[i] = Bucket{s, tag};
    ++live_;
    return s;
  }

  void Rehash(size_t capacity) {
    std::vector<Bucket> old = std::move(index_);
    index_.assign(capacity, Bucket{kNoSlot, 0});
    const size_t mask = capacity - 1;
    for (const Bucket& b : old) {
      if (b.slot == kNoSlot) continue;
      size_t i = slots_[b.slot].hash & mask;
      while (index_[i].slot != kNoSlot) i = (i + 1) & mask;
      index_[i] = b;
    }
  }

  /// Frees slot `s` when every lane in it is idle: its bucket is removed
  /// with a backward shift (no tombstones), and its generation moves on.
  void MaybeRetire(uint32_t s) {
    for (const BranchState& br : branches_) {
      if (!LaneAt(s, br).sweep.idle()) return;
    }
    const size_t mask = index_.size() - 1;
    size_t hole = slots_[s].hash & mask;
    while (index_[hole].slot != s) hole = (hole + 1) & mask;
    for (size_t i = (hole + 1) & mask; index_[i].slot != kNoSlot;
         i = (i + 1) & mask) {
      const size_t home = slots_[index_[i].slot].hash & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        index_[hole] = index_[i];
        hole = i;
      }
    }
    index_[hole].slot = kNoSlot;
    for (const BranchState& br : branches_) {
      Lane& lane = LaneAt(s, br);
      lane.due = kMaxTime;
      lane.open_key = kMaxTime;
    }
    ++slots_[s].gen;
    free_.push_back(s);
    --live_;
  }

  void Add(BranchState& br, uint32_t s, Timestamp le, Timestamp re, double v) {
    Lane& lane = LaneAt(s, br);
    if (lane.flushed < br.pending) FlushLane(br, s, lane);
    TIMR_DCHECK(le >= br.pending) << "event arrived below the pending CTI";
    lane.sweep.Add(le, re, v);
    const Timestamp next = lane.sweep.next_boundary();
    if (next < lane.due) {
      lane.due = next;
      br.due.push({next, s, slots_[s].gen});
    }
  }

  void FlushLane(BranchState& br, uint32_t s, Lane& lane) {
    lane.flushed = br.pending;
    const Row& key = slots_[s].key;
    lane.sweep.Flush(br.pending, br.kind,
                     [&](Timestamp le, Timestamp re, Value v) {
      if (!br.tail.empty()) {
        tail_row_.assign(1, v);
        for (const Predicate& keep : br.tail) {
          if (!keep(tail_row_)) return;
        }
      }
      Row out;
      out.reserve(key.size() + 1);
      out.insert(out.end(), key.begin(), key.end());
      out.push_back(std::move(v));
      BufferOutput(Event(le, re, std::move(out)));
    });
    const Timestamp open = lane.sweep.open_since();
    if (lane.sweep.active() && open != lane.open_key) {
      lane.open_key = open;
      br.open.push({open, s, slots_[s].gen});
    }
  }

  /// Flushes every lane of `br` with a boundary at or before its pending CTI
  /// and retires the slots this leaves idle.
  void Settle(BranchState& br) {
    if (br.pending <= br.settled) return;  // nothing can have fallen due
    br.settled = br.pending;
    while (!br.due.empty() && br.due.top().t <= br.pending) {
      const Ref r = br.due.top();
      br.due.pop();
      if (slots_[r.slot].gen != r.gen) continue;  // slot retired since
      Lane& lane = LaneAt(r.slot, br);
      if (lane.due != r.t) continue;  // superseded by an earlier boundary
      if (lane.flushed == br.pending) {
        // Took an event at the pending CTI after its flush here; it is due
        // at the next CTI, when GroupApplyOp's instance would flush it.
        br.deferred.push_back(r);
        continue;
      }
      FlushLane(br, r.slot, lane);
      lane.due = lane.sweep.next_boundary();
      if (lane.due != kMaxTime) {
        br.due.push({lane.due, r.slot, r.gen});
      } else {
        MaybeRetire(r.slot);
      }
    }
    for (const Ref& r : br.deferred) br.due.push(r);
    br.deferred.clear();
  }

  /// Releases output below every branch's min(pending CTI, earliest open
  /// snapshot), dropping open-heap entries whose lane went idle, moved its
  /// open snapshot on, or whose slot was retired.
  void Release() {
    Timestamp watermark = kMaxTime;
    for (BranchState& br : branches_) {
      while (!br.open.empty()) {
        const Ref r = br.open.top();
        if (slots_[r.slot].gen == r.gen) {
          Lane& lane = LaneAt(r.slot, br);
          if (lane.sweep.active() && lane.sweep.open_since() == r.t) break;
          if (lane.open_key == r.t) lane.open_key = kMaxTime;
        }
        br.open.pop();
      }
      watermark = std::min(watermark, br.pending);
      if (!br.open.empty()) watermark = std::min(watermark, br.open.top().t);
    }
    ReleaseBelow(watermark);
  }

  std::vector<int> key_indices_;
  std::vector<BranchState> branches_;  // never resized: heads point in
  TeeOp tee_;                          // fans input out when branches > 1
  EventSink* input_ = nullptr;
  Row tail_row_;  // the aggregate's one-column output, as the tail sees it
  std::vector<Slot> slots_;
  std::vector<Lane> lanes_;      // slot s, branch b at s * branches + b
  std::vector<Bucket> index_;    // power-of-two open-addressing table
  std::vector<uint32_t> free_;   // retired slots, reused first
  size_t live_ = 0;              // slots in index_
  std::vector<uint64_t> hashes_;  // per-batch key hashes (columnar)
};

}  // namespace timr::temporal
