#include "temporal/event.h"

#include <algorithm>
#include <map>

namespace timr::temporal {

namespace {

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

bool EventLess(const Event& a, const Event& b) {
  if (a.le != b.le) return a.le < b.le;
  if (a.re != b.re) return a.re < b.re;
  return RowLess(a.payload, b.payload);
}

struct RowOrder {
  bool operator()(const Row& a, const Row& b) const { return RowLess(a, b); }
};

// Canonical form of a temporal relation: per distinct payload, the step
// function "number of simultaneously valid copies", encoded as a delta map
// timestamp -> +/- multiplicity with zero entries removed. Two event multisets
// that differ only in how lifetimes are split into adjacent pieces (as happens
// under TiMR's temporal partitioning) normalize to the same form.
using StepFunction = std::map<Timestamp, int64_t>;

std::map<Row, StepFunction, RowOrder> Normalize(const std::vector<Event>& events) {
  std::map<Row, StepFunction, RowOrder> out;
  for (const Event& e : events) {
    StepFunction& f = out[e.payload];
    f[e.le] += 1;
    f[e.re] -= 1;
  }
  for (auto& [row, f] : out) {
    for (auto it = f.begin(); it != f.end();) {
      if (it->second == 0) {
        it = f.erase(it);
      } else {
        ++it;
      }
    }
  }
  return out;
}

// Per-thread freelists of batch storage: the row vectors and, separately, the
// columnar payload, so a row batch never moves a payload in or out. Bounded
// so an operator holding many clones cannot make them grow without limit;
// entries keep their capacity, which is the whole point.
struct RowStorage {
  std::vector<Event> events;
  std::vector<EventBatch::CtiMark> ctis;
};

std::vector<RowStorage>& RowPool() {
  thread_local std::vector<RowStorage> pool;
  return pool;
}

std::vector<std::unique_ptr<ColumnarPayload>>& PayloadPool() {
  thread_local std::vector<std::unique_ptr<ColumnarPayload>> pool;
  return pool;
}

constexpr size_t kBatchPoolMax = 16;

}  // namespace

EventBatch::EventBatch() {
  auto& pool = RowPool();
  if (!pool.empty()) {
    events_ = std::move(pool.back().events);
    ctis_ = std::move(pool.back().ctis);
    pool.pop_back();
  }
}

EventBatch::~EventBatch() {
  if (events_.capacity() != 0 || ctis_.capacity() != 0) {
    auto& pool = RowPool();
    if (pool.size() < kBatchPoolMax) {
      events_.clear();
      ctis_.clear();
      pool.push_back(RowStorage{std::move(events_), std::move(ctis_)});
    }
  }
  if (payload_ != nullptr && payload_->AnyCapacity()) {
    auto& pool = PayloadPool();
    if (pool.size() < kBatchPoolMax) {
      payload_->ClearAll();
      pool.push_back(std::move(payload_));
    }
  }
}

void EventBatch::AcquirePayload() {
  if (payload_ != nullptr) return;
  auto& pool = PayloadPool();
  if (pool.empty()) {
    payload_ = std::make_unique<ColumnarPayload>();
    return;
  }
  payload_ = std::move(pool.back());
  pool.pop_back();
}

void EventBatch::BeginColumnar(const Schema& payload_schema) {
  TIMR_DCHECK(Empty());
  view_of_.reset();  // an empty view owns nothing worth keeping
  AcquirePayload();
  payload_->Begin(payload_schema);
  columnar_ = true;
}

EventBatch EventBatch::Clone() const {
  EventBatch copy;
  copy.CopyFrom(*this);
  return copy;
}

void EventBatch::CopyFrom(const EventBatch& other) {
  const EventBatch& src = other.r();
  events_.assign(src.events_.begin(), src.events_.end());
  ctis_.assign(src.ctis_.begin(), src.ctis_.end());
  if (src.columnar_) {
    AcquirePayload();
    *payload_ = *src.payload_;
    columnar_ = true;
  }
}

void EventBatch::Localize() {
  std::shared_ptr<EventBatch> src = std::move(view_of_);
  TIMR_DCHECK(src != nullptr);
  if (src.use_count() == 1) {
    // Last live reference: steal the storage outright.
    std::swap(events_, src->events_);
    std::swap(ctis_, src->ctis_);
    std::swap(payload_, src->payload_);
    columnar_ = src->columnar_;
    src->columnar_ = false;
  } else {
    *this = src->Clone();  // a pooled copy: a view holds no storage of its own
  }
}

void EventBatch::EnsureRows() {
  EnsureOwned();
  if (!columnar_) return;
  const ColumnarPayload& p = *payload_;
  TIMR_DCHECK(p.all_valid()) << "EnsureRows with a pending selection";
  const size_t n = p.num_rows();
  events_.clear();
  events_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    // Direct member assignment: the Event constructor DCHECKs re > le, but a
    // columnar batch may carry not-yet-conformance-checked data that the row
    // path is expected to see (and reject) as-is.
    Event e;
    e.le = p.le()[r];
    e.re = p.re()[r];
    e.payload = p.MaterializeRow(r);
    events_.push_back(std::move(e));
  }
  payload_->ClearAll();
  columnar_ = false;
}

void SortEventsCanonical(std::vector<Event>* events) {
  std::sort(events->begin(), events->end(), EventLess);
}

bool SameTemporalRelation(std::vector<Event> a, std::vector<Event> b) {
  return Normalize(a) == Normalize(b);
}

}  // namespace timr::temporal
