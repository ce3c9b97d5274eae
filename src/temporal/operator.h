// Operator framework for the temporal engine.
//
// A stream is delivered to an operator as a sequence of events in
// non-decreasing LE order, interleaved with CTI (current-time-increment)
// punctuations. CTI(t) promises that no later event on that input will carry
// LE < t; operators use it to finalize snapshots, purge join synopses, and
// fire window boundaries. Every operator in turn emits its own output events
// in non-decreasing LE order with its own CTIs, so the invariant composes
// through arbitrary plans. This is the published StreamInsight/CEDR execution
// discipline the paper builds on.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "temporal/event.h"

namespace timr::temporal {

/// \brief Consumer of one punctuated event stream.
///
/// A stream reaches a sink only as morsels: OnBatch is the one entry point,
/// and a per-event push is a batch of one built at the edge (Executor,
/// LivePipeline). Every operator therefore has exactly one semantics, and
/// batch-size invariance is a property of that one code path.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnBatch(EventBatch&& batch) = 0;
};

/// Hands `batch` to `sink` and clears it for reuse. The consumer may take the
/// storage (leaving `batch` empty) or leave it, and then `batch` keeps its
/// capacity for the next use without taking from the batch pool.
inline void Lend(EventSink* sink, EventBatch& batch) {
  sink->OnBatch(std::move(batch));
  batch.Clear();  // NOLINT(bugprone-use-after-move): lent, Clear reinitializes
}

/// \brief Base for engine operators: owns downstream wiring and enforces the
/// ordered-emission invariant.
///
/// Emit/EmitCti append to one pending output morsel, which Flush hands
/// downstream; an operator flushes once at the end of each input batch it
/// processes. Stateless operators rewrite the input batch in place and pass
/// it on whole with EmitBatch. Both routes meet in Deliver, the one place
/// the emission order is checked.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Sink to feed for input port `i` (0 for unary operators).
  virtual EventSink* InputPort(int i) = 0;
  virtual int num_inputs() const = 0;

  void AddOutput(EventSink* sink) { outputs_.push_back(sink); }

  uint64_t events_consumed() const { return events_consumed_; }

 protected:
  void Emit(Event event) { pending_.Add(std::move(event)); }
  void EmitCti(Timestamp t) {
    if (t > emitted_cti_) pending_.AddCti(t);  // Deliver drops stale marks
  }

  /// Hands the pending output morsel downstream. The morsel is lent (see
  /// Lend), so a stateful operator's output costs no batch construction.
  void Flush() {
    if (pending_.Empty()) return;
    Deliver(pending_);
    pending_.Clear();
  }

  /// Passes a whole rewritten input batch downstream (an operator that does
  /// this emits nothing else).
  void EmitBatch(EventBatch&& batch) {
    TIMR_DCHECK(pending_.Empty()) << "EmitBatch with output pending";
    Deliver(batch);
  }

  void CountConsumed() { ++events_consumed_; }
  void CountConsumedN(uint64_t n) { events_consumed_ += n; }

 private:
  /// Drops stale CTI marks, checks the emission discipline, and fans out with
  /// copy-for-all-but-last semantics.
  void Deliver(EventBatch& batch) {
    [[maybe_unused]] const Timestamp promised = emitted_cti_;
    batch.RemoveStaleCtis(&emitted_cti_);
    const size_t n = batch.NumEvents();
    if (n == 0 && batch.ctis().empty()) return;  // nothing, or stale marks only
#ifndef NDEBUG
    {
      Timestamp floor = promised;
      Timestamp last_le = last_emitted_le_;
      size_t m = 0;
      const auto& marks = batch.ctis();
      for (size_t i = 0; i < batch.NumEvents(); ++i) {
        for (; m < marks.size() && marks[m].pos <= i; ++m) floor = marks[m].t;
        const Timestamp le = batch.LeAt(i);
        TIMR_DCHECK(le >= floor) << "operator emitted event at " << le
                                 << " after promising CTI " << floor;
        TIMR_DCHECK(le >= last_le) << "out-of-order emission";
        last_le = le;
      }
    }
#endif
    if (n != 0) last_emitted_le_ = batch.LastLe();
    const size_t sinks = outputs_.size();
    if (sinks == 0) return;
    for (size_t i = 0; i + 1 < sinks; ++i) outputs_[i]->OnBatch(batch.Clone());
    outputs_[sinks - 1]->OnBatch(std::move(batch));
  }

  std::vector<EventSink*> outputs_;
  // Unpooled: an operator (say, one of many per-group sub-plan instances)
  // holds only the capacity its own output needed.
  EventBatch pending_ = EventBatch::Unpooled();
  Timestamp emitted_cti_ = kMinTime;
  Timestamp last_emitted_le_ = kMinTime;
  uint64_t events_consumed_ = 0;
};

/// \brief Base for single-input operators: the operator is its own input port.
class UnaryOperator : public Operator, public EventSink {
 public:
  EventSink* InputPort(int i) override {
    TIMR_DCHECK(i == 0);
    return this;
  }
  int num_inputs() const override { return 1; }
};

/// \brief Merges two punctuated inputs into one globally LE-ordered sequence.
///
/// A buffered event from one side is released only once the other side can no
/// longer produce an event with LE <= it (its CTI has passed, or its next
/// buffered event is later). On LE ties the *right* input (index 1) drains
/// first — AntiSemiJoin correctness requires right-side insertions at time t
/// to precede the left-side containment decision at t.
class BinaryOperator : public Operator {
 public:
  BinaryOperator() : ports_{Port(this, 0), Port(this, 1)} {}

  EventSink* InputPort(int i) override {
    TIMR_DCHECK(i == 0 || i == 1);
    return &ports_[i];
  }
  int num_inputs() const override { return 2; }

 protected:
  /// Called with events in merged LE order (ties: side 1 first). `key_hash`
  /// is the precomputed hash of the event's key columns for this side
  /// (HashKeyOf-compatible), or 0 when unknown — implementations must treat 0
  /// as "compute it yourself".
  virtual void ProcessMerged(int side, Event event, uint64_t key_hash) = 0;

  /// Called when the merged watermark advances: no future ProcessMerged call
  /// will carry an event with LE < t.
  virtual void ProcessWatermark(Timestamp t) = 0;

  /// Key columns this operator hashes on side `side`, or nullptr when it does
  /// not key its inputs. When non-null, columnar input batches get their key
  /// hashes computed in bulk before materialization.
  virtual const std::vector<int>* PortKeyIndices(int side) const {
    (void)side;
    return nullptr;
  }

 private:
  struct Buffered {
    Event event;
    uint64_t hash;  // precomputed key hash, 0 when unknown
  };

  struct Port : public EventSink {
    Port(BinaryOperator* op_in, int side_in) : op(op_in), side(side_in) {}
    void OnBatch(EventBatch&& batch) override {
      // Bulk-buffer the whole morsel with one Drain at the end. The merged
      // event order is unchanged (it is determined by LE / side preference /
      // FIFO alone); intermediate CTIs coarsen to the batch boundary, which
      // every operator tolerates by CTI-granularity invariance.
      hash_scratch.clear();
      if (batch.columnar()) {
        if (const std::vector<int>* keys = op->PortKeyIndices(side)) {
          ComputeKeyHashes(batch.columnar_payload(), *keys, &hash_scratch);
        }
      }
      batch.EnsureRows();
      auto& events = batch.events();
      const auto& marks = batch.ctis();
      size_t m = 0;
      for (size_t i = 0; i < events.size(); ++i) {
        for (; m < marks.size() && marks[m].pos <= i; ++m) {
          if (marks[m].t > cti) cti = marks[m].t;
        }
        Push(std::move(events[i]),
             i < hash_scratch.size() ? hash_scratch[i] : 0);
      }
      for (; m < marks.size(); ++m) {
        if (marks[m].t > cti) cti = marks[m].t;
      }
      batch.Clear();
      op->Drain();
    }
    void Push(Event event, uint64_t hash) {
      TIMR_DCHECK(event.le >= last_le) << "input not LE-ordered";
      TIMR_DCHECK(event.le >= cti) << "input event violates its CTI";
      last_le = event.le;
      op->CountConsumed();
      buffer.push_back(Buffered{std::move(event), hash});
    }
    BinaryOperator* op;
    int side;
    std::deque<Buffered> buffer;
    std::vector<uint64_t> hash_scratch;
    Timestamp cti = kMinTime;
    Timestamp last_le = kMinTime;
  };

  // Lower bound on the LE of any event side `i` may still deliver.
  Timestamp Frontier(int i) const {
    const Port& p = ports_[i];
    return p.buffer.empty() ? p.cti : p.buffer.front().event.le;
  }

  void Drain() {
    if (draining_) return;  // Drain is not re-entrant
    draining_ = true;
    while (true) {
      int pick = -1;
      // Prefer side 1 on ties (see class comment).
      for (int side : {1, 0}) {
        Port& p = ports_[side];
        if (p.buffer.empty()) continue;
        if (pick == -1 ||
            p.buffer.front().event.le < ports_[pick].buffer.front().event.le) {
          pick = side;
        }
      }
      if (pick == -1) break;
      const Timestamp le = ports_[pick].buffer.front().event.le;
      const int other = 1 - pick;
      // The other side may still produce an event with LE <= le: wait.
      if (ports_[other].buffer.empty() && ports_[other].cti <= le) break;
      Buffered b = std::move(ports_[pick].buffer.front());
      ports_[pick].buffer.pop_front();
      ProcessMerged(pick, std::move(b.event), b.hash);
    }
    const Timestamp watermark = std::min(Frontier(0), Frontier(1));
    if (watermark > watermark_) {
      watermark_ = watermark;
      ProcessWatermark(watermark);
    }
    draining_ = false;
    Flush();
  }

  Port ports_[2];
  Timestamp watermark_ = kMinTime;
  bool draining_ = false;
};

/// \brief Terminal sink that appends events to a vector (used by executors and
/// tests to collect plan output).
class CollectorSink : public EventSink {
 public:
  void OnBatch(EventBatch&& batch) override {
    if (!batch.ctis().empty()) last_cti_ = batch.ctis().back().t;
    if (batch.columnar()) {
      // Defer materialization: rows are built lazily in events()/TakeEvents,
      // outside the engine's hot loop, so a columnar pipeline stays
      // allocation-free end to end.
      batches_.push_back(std::move(batch));
      return;
    }
    Materialize();
    events_.insert(events_.end(),
                   std::make_move_iterator(batch.events().begin()),
                   std::make_move_iterator(batch.events().end()));
    batch.Clear();
  }

  const std::vector<Event>& events() const {
    Materialize();
    return events_;
  }
  std::vector<Event> TakeEvents() {
    Materialize();
    return std::move(events_);
  }
  Timestamp last_cti() const { return last_cti_; }

 private:
  void Materialize() const {
    for (EventBatch& b : batches_) {
      b.EnsureRows();
      events_.insert(events_.end(),
                     std::make_move_iterator(b.events().begin()),
                     std::make_move_iterator(b.events().end()));
      b.Clear();
    }
    batches_.clear();
  }

  mutable std::vector<Event> events_;
  mutable std::vector<EventBatch> batches_;
  Timestamp last_cti_ = kMinTime;
};

/// \brief Sink that forwards to a user callback (used for live/push mode):
/// each batch is replayed in stream order, one call per event and per CTI.
class CallbackSink : public EventSink {
 public:
  using EventFn = std::function<void(const Event&)>;
  using CtiFn = std::function<void(Timestamp)>;

  explicit CallbackSink(EventFn on_event, CtiFn on_cti = nullptr)
      : on_event_(std::move(on_event)), on_cti_(std::move(on_cti)) {}

  void OnBatch(EventBatch&& batch) override {
    batch.Drain([this](Event&& e) { on_event_(e); },
                [this](Timestamp t) {
                  if (on_cti_) on_cti_(t);
                });
  }

 private:
  EventFn on_event_;
  CtiFn on_cti_;
};

}  // namespace timr::temporal
