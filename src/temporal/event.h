// Events: the unit of data flowing through the temporal engine.

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/row.h"
#include "temporal/columnar.h"
#include "temporal/time.h"

namespace timr::temporal {

/// \brief A payload with a half-open validity interval [le, re).
///
/// `le` is the application-specified occurrence time; `re - le` is the period
/// over which the event influences downstream computation (paper §II-A.1). A
/// point event has re == le + kTick.
struct Event {
  Timestamp le = 0;
  Timestamp re = kTick;
  Row payload;

  Event() = default;
  Event(Timestamp le_in, Timestamp re_in, Row payload_in)
      : le(le_in), re(re_in), payload(std::move(payload_in)) {
    TIMR_DCHECK(re > le);
  }

  static Event Point(Timestamp t, Row payload_in) {
    return Event(t, t + kTick, std::move(payload_in));
  }

  bool IsPoint() const { return re == le + kTick; }

  bool Contains(Timestamp t) const { return le <= t && t < re; }

  bool Intersects(const Event& other) const {
    return le < other.re && other.le < re;
  }

  std::string ToString() const {
    return "[" + std::to_string(le) + "," +
           (re >= kMaxTime ? std::string("inf") : std::to_string(re)) + ") " +
           RowToString(payload);
  }
};

/// \brief A morsel of the punctuated stream: events in non-decreasing LE
/// order with CTI punctuations interleaved as positional marks (a mark at
/// `pos` fires before the event at that index; `pos == events().size()` is a
/// trailing mark). A batch is the only form in which a stream reaches an
/// operator (EventSink::OnBatch); a per-event push is a batch of one, and an
/// operator's output must not depend on where the batch boundaries fall.
///
/// Batch storage is pooled per thread: destroying a batch returns its vectors
/// to a small freelist the next default-constructed batch reuses, so a
/// steady-state pipeline performs O(1) allocations per batch, not O(events).
/// The columnar payload has its own freelist, taken only by columnar batches.
///
/// A batch holds its events in exactly one of two representations:
///  - row mode (the default): a vector<Event> of materialized rows;
///  - columnar mode: a ColumnarPayload of per-field vectors with le/re as
///    their own columns, entered via BeginColumnar()/TryAppendColumnar().
/// CTI marks are positional in both modes. EnsureRows() converts columnar →
/// rows in place for consumers without columnar kernels (UDOs, joins, ...).
class EventBatch {
 public:
  struct CtiMark {
    size_t pos;
    Timestamp t;
  };

  EventBatch();   // acquires pooled storage when available
  ~EventBatch();  // returns storage to the pool

  // A moved-from batch is empty in either mode: it leaves columnar mode along
  // with its payload.
  EventBatch(EventBatch&& o) noexcept
      : events_(std::move(o.events_)),
        ctis_(std::move(o.ctis_)),
        payload_(std::move(o.payload_)),
        columnar_(std::exchange(o.columnar_, false)),
        view_of_(std::move(o.view_of_)) {}
  EventBatch& operator=(EventBatch&& o) noexcept {
    events_ = std::move(o.events_);
    ctis_ = std::move(o.ctis_);
    payload_ = std::move(o.payload_);
    columnar_ = std::exchange(o.columnar_, false);
    view_of_ = std::move(o.view_of_);
    return *this;
  }
  EventBatch(const EventBatch&) = delete;
  EventBatch& operator=(const EventBatch&) = delete;

  /// An empty batch that takes no pooled storage: for a batch an owner keeps
  /// and refills (its vectors then keep their own capacity), or a view.
  static EventBatch Unpooled() { return EventBatch(NoStorage{}); }

  /// A batch of one event: the form a per-event push takes at the edge.
  static EventBatch Of(Event event) {
    EventBatch b;
    b.Add(std::move(event));
    return b;
  }

  /// A batch holding only CTI(t): the punctuation form of a per-item push.
  static EventBatch OfCti(Timestamp t) {
    EventBatch b;
    b.AddCti(t);
    return b;
  }

  /// Deep copy (used by multicast fan-out; the last sink gets the original).
  EventBatch Clone() const;

  /// \brief A copy-on-write view over `src` (shared, not deep-copied).
  ///
  /// The multiplexing tee hands the same underlying batch — including its
  /// columnar payload — to every consumer as a view. Const readers see the
  /// shared storage; the first mutation localizes the view via EnsureOwned()
  /// (stealing the storage outright when this is the last live reference, so
  /// a read-only fan-out plus one mutating consumer costs zero copies).
  /// Nested views collapse: a view of a view shares the original storage.
  static EventBatch View(std::shared_ptr<EventBatch> src) {
    EventBatch v = Unpooled();
    v.view_of_ = src->view_of_ ? src->view_of_ : std::move(src);
    return v;
  }

  /// Detach from shared storage: steal it if uniquely referenced, deep-copy
  /// otherwise. No-op on an owning batch; every mutator calls this first.
  void EnsureOwned() {
    if (view_of_) Localize();
  }

  void Add(Event event) {
    EnsureOwned();
    TIMR_DCHECK(!columnar_);
    events_.push_back(std::move(event));
  }

  /// Record CTI(t) before the next added event. Consecutive marks at the same
  /// position coalesce to the largest t (the earlier ones would be stale).
  void AddCti(Timestamp t) {
    EnsureOwned();
    if (!ctis_.empty() && ctis_.back().pos == NumEvents()) {
      if (t > ctis_.back().t) ctis_.back().t = t;
      return;
    }
    ctis_.push_back({NumEvents(), t});
  }

  bool Empty() const { return NumEvents() == 0 && r().ctis_.empty(); }
  size_t NumEvents() const {
    const EventBatch& s = r();
    return s.columnar_ ? s.payload_->num_rows() : s.events_.size();
  }
  void Clear() {
    view_of_.reset();  // dropping the reference is the whole clear for a view
    events_.clear();
    ctis_.clear();
    if (columnar_) {
      payload_->ClearAll();
      columnar_ = false;
    }
  }

  // --- Columnar mode -------------------------------------------------------

  /// Switch this (empty) batch into columnar mode with the given payload
  /// schema. Subsequent events are appended with TryAppendColumnar.
  void BeginColumnar(const Schema& payload_schema);

  /// Append one event to the columnar payload; returns false (batch
  /// unchanged) if the row's dynamic types do not match the column types, in
  /// which case the producer must EnsureRows() and fall back to Add().
  bool TryAppendColumnar(Timestamp le, Timestamp re, const Row& payload) {
    TIMR_DCHECK(columnar_);
    return payload_->TryAppend(le, re, payload);
  }

  bool columnar() const { return r().columnar_; }
  ColumnarPayload& columnar_payload() {
    EnsureOwned();
    return *payload_;
  }
  const ColumnarPayload& columnar_payload() const { return *r().payload_; }

  /// Apply a pending selection in the columnar payload, remapping CTI marks.
  void CompactColumnar() {
    EnsureOwned();
    TIMR_DCHECK(columnar_);
    payload_->Compact(&ctis_);
  }

  /// Convert columnar → row representation in place (no-op in row mode).
  /// This is the universal fallback for consumers without columnar kernels.
  void EnsureRows();

  /// LE of event `i` in either representation.
  Timestamp LeAt(size_t i) const {
    const EventBatch& s = r();
    return s.columnar_ ? s.payload_->le()[i] : s.events_[i].le;
  }

  /// LE of the last event (batch must be non-empty).
  Timestamp LastLe() const {
    const EventBatch& s = r();
    return s.columnar_ ? s.payload_->le().back() : s.events_.back().le;
  }

  std::vector<Event>& events() {
    EnsureOwned();
    return events_;
  }
  const std::vector<Event>& events() const { return r().events_; }
  std::vector<CtiMark>& mutable_ctis() {
    EnsureOwned();
    return ctis_;
  }
  const std::vector<CtiMark>& ctis() const { return r().ctis_; }

  /// Replay the batch in stream order, moving events out; leaves the batch
  /// empty (columnar batches are materialized first). CallbackSink's
  /// per-event callbacks run on this.
  template <class EventFn, class CtiFn>
  void Drain(EventFn&& on_event, CtiFn&& on_cti) {
    EnsureRows();
    size_t m = 0;
    for (size_t i = 0; i < events_.size(); ++i) {
      for (; m < ctis_.size() && ctis_[m].pos <= i; ++m) on_cti(ctis_[m].t);
      on_event(std::move(events_[i]));
    }
    for (; m < ctis_.size(); ++m) on_cti(ctis_[m].t);
    Clear();
  }

  /// In-place filtered rewrite: `fn(Event&)` may mutate the event and returns
  /// whether to keep it; CTI marks are remapped to the compacted positions.
  /// The single pass batched stateless operators are built on.
  template <class Fn>
  void FilterEvents(Fn&& fn) {
    if (NumEvents() == 0) return;  // marks already sit at position 0
    EnsureOwned();
    TIMR_DCHECK(!columnar_) << "FilterEvents on a columnar batch";
    size_t w = 0;
    size_t m = 0;
    for (size_t r = 0; r < events_.size(); ++r) {
      for (; m < ctis_.size() && ctis_[m].pos <= r; ++m) ctis_[m].pos = w;
      if (fn(events_[r])) {
        if (w != r) events_[w] = std::move(events_[r]);
        ++w;
      }
    }
    for (; m < ctis_.size(); ++m) ctis_[m].pos = w;
    events_.resize(w);
  }

  /// Map every CTI mark's timestamp through `fn` (must be monotone, as every
  /// AlterLifetime CTI transform is).
  template <class Fn>
  void TransformCtis(Fn&& fn) {
    if (r().ctis_.empty()) return;
    EnsureOwned();
    for (CtiMark& mark : ctis_) mark.t = fn(mark.t);
  }

  /// Drop marks that do not advance past `*running_cti`; `*running_cti` ends
  /// at the batch's final CTI, and the marks end up strictly increasing.
  void RemoveStaleCtis(Timestamp* running_cti) {
    EnsureOwned();
    size_t w = 0;
    for (const CtiMark& mark : ctis_) {
      if (mark.t <= *running_cti) continue;
      *running_cti = mark.t;
      ctis_[w++] = mark;
    }
    ctis_.resize(w);
  }

  /// Deep-copies `src`'s content into this empty, owning batch, reusing
  /// this batch's capacity.
  void CopyFrom(const EventBatch& src);

 private:
  struct NoStorage {};
  explicit EventBatch(NoStorage) {}

  /// The batch to read from: the shared source for a view, *this otherwise.
  const EventBatch& r() const { return view_of_ ? *view_of_ : *this; }

  /// Out-of-line slow path of EnsureOwned (view_of_ is non-null on entry).
  void Localize();

  /// Gives this batch a columnar payload, a pooled one when free, if it has
  /// none yet.
  void AcquirePayload();

  std::vector<Event> events_;
  std::vector<CtiMark> ctis_;
  // Behind a pointer so a row batch stays small; kept, with its capacity,
  // across Clear() and returned to its own pool.
  std::unique_ptr<ColumnarPayload> payload_;
  bool columnar_ = false;
  /// Non-null iff this batch is a copy-on-write view (see View()). Mutually
  /// exclusive with own content: a view's own vectors stay empty until
  /// Localize() fills them.
  std::shared_ptr<EventBatch> view_of_;
};

/// Sort events by (le, re) then payload, for canonical comparisons in tests.
void SortEventsCanonical(std::vector<Event>* events);

/// True if the two event multisets describe the same temporal relation after
/// canonical sorting. Used by tests to compare plan outputs produced by
/// different execution strategies (single-node vs TiMR vs custom reducers).
bool SameTemporalRelation(std::vector<Event> a, std::vector<Event> b);

}  // namespace timr::temporal
