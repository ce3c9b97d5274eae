// Snapshot aggregation (Count, Sum, Min, Max, Avg). Paper §II-A.2.
//
// An aggregate reports a value for every *snapshot* — every maximal interval
// over which the set of active events is constant — and only for snapshots
// with at least one active event (StreamInsight behaviour). Input events are
// typically windowed first with AlterLifetime, which turns "count of events in
// the last w time units" into "count of active events at every instant".

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "temporal/operator.h"

namespace timr::temporal {

enum class AggKind : uint8_t { kCount, kSum, kMin, kMax, kAvg };

struct AggregateSpec {
  AggKind kind = AggKind::kCount;
  /// Column whose numeric value feeds the aggregate; ignored for kCount.
  std::string value_column;
  /// Name of the single output column.
  std::string output_name = "agg";

  static AggregateSpec Count(std::string output_name = "count") {
    return {AggKind::kCount, "", std::move(output_name)};
  }
  static AggregateSpec Sum(std::string col, std::string output_name = "sum") {
    return {AggKind::kSum, std::move(col), std::move(output_name)};
  }
  static AggregateSpec Min(std::string col, std::string output_name = "min") {
    return {AggKind::kMin, std::move(col), std::move(output_name)};
  }
  static AggregateSpec Max(std::string col, std::string output_name = "max") {
    return {AggKind::kMax, std::move(col), std::move(output_name)};
  }
  static AggregateSpec Avg(std::string col, std::string output_name = "avg") {
    return {AggKind::kAvg, std::move(col), std::move(output_name)};
  }
};

namespace internal {

/// Whether `kind`'s accumulator state is a pure (count, sum) pair, letting
/// boundary deltas merge into one entry per timestamp.
inline bool ScalarAggregate(AggKind kind) {
  return kind == AggKind::kCount || kind == AggKind::kSum ||
         kind == AggKind::kAvg;
}

/// \brief Boundary sweep for the scalar aggregates (Count/Sum/Avg): each
/// event adds a (+1, +v) delta at LE and a (-1, -v) delta at RE, merged into
/// one entry per timestamp in arrival order; Flush(t) finalizes every snapshot
/// ending at or before t. AggregateOp runs one sweep and GroupedAggregateOp
/// one per key, so both perform the same double arithmetic in the same order.
class ScalarSweep {
 public:
  void Add(Timestamp le, Timestamp re, double v) {
    AddAt(le, +1, v);
    AddAt(re, -1, -v);
  }

  /// Applies every boundary <= t; `emit(le, re, value)` receives each
  /// finished non-empty snapshot in time order.
  template <class EmitFn>
  void Flush(Timestamp t, AggKind kind, EmitFn&& emit) {
    size_t i = head_;
    const size_t n = pending_.size();
    for (; i < n && pending_[i].t <= t; ++i) {
      const Entry& b = pending_[i];
      if (count_ > 0 && b.t > open_since_) {
        emit(open_since_, b.t, Current(kind));
      }
      count_ += b.dcount;
      sum_ += b.dsum;
      open_since_ = b.t;
    }
    head_ = i;
    // Reclaim the flushed prefix once it dominates the buffer.
    if (head_ == n) {
      pending_.clear();
      head_ = 0;
    } else if (head_ > 64 && head_ * 2 > n) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  bool active() const { return count_ > 0; }
  /// Holds no state: every boundary applied, nothing active, and the running
  /// sum back to exactly +0.0 (fractional values can leave a residue that a
  /// later snapshot would inherit). An idle sweep acts as a fresh one.
  bool idle() const {
    return head_ == pending_.size() && count_ == 0 &&
           std::bit_cast<uint64_t>(sum_) == 0;
  }
  /// Start of the open snapshot (meaningful while active()).
  Timestamp open_since() const { return open_since_; }
  /// Earliest unflushed boundary, or kMaxTime when none is pending.
  Timestamp next_boundary() const {
    return head_ < pending_.size() ? pending_[head_].t : kMaxTime;
  }

 private:
  struct Entry {
    Timestamp t;
    int64_t dcount;
    double dsum;
  };

  Value Current(AggKind kind) const {
    switch (kind) {
      case AggKind::kCount: return Value(count_);
      case AggKind::kAvg: return Value(sum_ / static_cast<double>(count_));
      default: return Value(sum_);
    }
  }

  void AddAt(Timestamp t, int64_t dcount, double dsum) {
    // LE arrives non-decreasing and RE trails a window width behind the
    // stream head, so new boundaries land at or near the back of the pending
    // range — binary-search there instead of paying a tree node per entry.
    auto it = std::lower_bound(
        pending_.begin() + static_cast<ptrdiff_t>(head_), pending_.end(), t,
        [](const Entry& e, Timestamp ts) { return e.t < ts; });
    if (it != pending_.end() && it->t == t) {
      it->dcount += dcount;
      it->dsum += dsum;
      return;
    }
    pending_.insert(it, Entry{t, dcount, dsum});
  }

  std::vector<Entry> pending_;  // time-ordered; [0, head_) is flushed
  size_t head_ = 0;
  int64_t count_ = 0;
  double sum_ = 0;
  Timestamp open_since_ = kMinTime;
};

}  // namespace internal

/// \brief Snapshot aggregate via a boundary sweep: each event contributes a
/// +delta at LE and a -delta at RE; on CTI t, all snapshots ending at or
/// before t are final and are flushed in time order.
class AggregateOp : public UnaryOperator {
 public:
  /// `value_index` is the resolved column index, or -1 for Count.
  AggregateOp(AggregateSpec spec, int value_index)
      : spec_(spec),
        value_index_(value_index),
        scalar_(internal::ScalarAggregate(spec.kind)) {}

  void OnBatch(EventBatch&& batch) override {
    const EventBatch& in = batch;  // read-only: a shared view stays shared
    const bool count = spec_.kind == AggKind::kCount;
    // Columnar batches are read in place; a string value column (AsNumeric
    // rejects it anyway) takes the row path.
    if (in.columnar() && !count &&
        in.columnar_payload().col(value_index_).type == ValueType::kString) {
      batch.EnsureRows();
    }
    const auto& marks = in.ctis();
    size_t m = 0;
    auto advance_to = [&](size_t i) {
      for (; m < marks.size() && marks[m].pos <= i; ++m) Advance(marks[m].t);
    };
    if (in.columnar()) {
      const ColumnarPayload& p = in.columnar_payload();
      const Column* vc = count ? nullptr : &p.col(value_index_);
      for (size_t i = 0; i < p.num_rows(); ++i) {
        advance_to(i);
        Add(p.le()[i], p.re()[i],
            vc == nullptr                  ? 1.0
            : vc->type == ValueType::kInt64 ? static_cast<double>(vc->i64[i])
                                            : vc->f64[i]);
      }
    } else {
      const auto& events = in.events();
      for (size_t i = 0; i < events.size(); ++i) {
        advance_to(i);
        const Event& e = events[i];
        Add(e.le, e.re, count ? 1.0 : e.payload[value_index_].AsNumeric());
      }
    }
    advance_to(in.NumEvents());
    batch.Clear();
    Flush();
  }

 private:
  struct Delta {
    double value;
    int sign;
  };

  void Add(Timestamp le, Timestamp re, double v) {
    CountConsumed();
    TIMR_DCHECK(le >= flushed_to_) << "event arrived below aggregate CTI";
    if (scalar_) {
      sweep_.Add(le, re, v);
    } else {
      boundaries_[le].push_back({v, +1});
      boundaries_[re].push_back({v, -1});
    }
  }

  /// CTI(t): finalizes every snapshot [b_i, b_{i+1}) with b_{i+1} <= t.
  void Advance(Timestamp t) {
    bool active;
    Timestamp open_since;
    if (scalar_) {
      sweep_.Flush(t, spec_.kind, [this](Timestamp le, Timestamp re, Value v) {
        Emit(Event(le, re, Row{std::move(v)}));
      });
      active = sweep_.active();
      open_since = sweep_.open_since();
    } else {
      while (!boundaries_.empty() && boundaries_.begin()->first <= t) {
        const Timestamp b = boundaries_.begin()->first;
        if (!active_.empty() && b > open_since_) {
          const double v = spec_.kind == AggKind::kMin ? *active_.begin()
                                                       : *active_.rbegin();
          Emit(Event(open_since_, b, Row{Value(v)}));
        }
        for (const Delta& d : boundaries_.begin()->second) {
          if (d.sign > 0) {
            active_.insert(d.value);
          } else {
            active_.erase(active_.find(d.value));
          }
        }
        boundaries_.erase(boundaries_.begin());
        open_since_ = b;
      }
      active = !active_.empty();
      open_since = open_since_;
    }
    flushed_to_ = t;
    // Future output LEs are at least the start of the still-open snapshot (if
    // any events are active) or t (if none are).
    EmitCti(active ? open_since : t);
  }

  AggregateSpec spec_;
  int value_index_;
  bool scalar_;                                          // kind runs on sweep_
  internal::ScalarSweep sweep_;                          // Count/Sum/Avg
  std::map<Timestamp, std::vector<Delta>> boundaries_;  // Min/Max
  std::multiset<double> active_;     // Min/Max: values of the active events
  Timestamp open_since_ = kMinTime;  // Min/Max
  Timestamp flushed_to_ = kMinTime;
};

}  // namespace timr::temporal
