// User-defined operator over a hopping window (paper §II-A.2, used for the
// BT logistic-regression model builder, §IV-B.4).

#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "temporal/operator.h"
#include "temporal/stateless_ops.h"

namespace timr::temporal {

/// Called once per window boundary b with every event whose lifetime
/// intersects [b - window, b); returns output rows, each of which becomes an
/// event with lifetime [b, b + hop) — i.e. the result is valid until the next
/// recomputation.
using UdoFn = std::function<std::vector<Row>(
    Timestamp window_start, Timestamp window_end,
    const std::vector<Event>& active)>;

/// \brief Hopping-window user-defined operator.
///
/// Boundaries lie on the hop grid. A boundary fires once the CTI passes it
/// (all events with LE < b are then known). Windows with no active events are
/// skipped, which also lets the boundary cursor reset when the stream goes
/// quiet instead of spinning to infinity on the final punctuation.
class HoppingUdoOp : public UnaryOperator {
 public:
  HoppingUdoOp(Timestamp window, Timestamp hop, UdoFn fn)
      : window_(window), hop_(hop), fn_(std::move(fn)) {
    TIMR_CHECK(window_ > 0);
    TIMR_CHECK(hop_ > 0);
  }

  void OnBatch(EventBatch&& batch) override {
    batch.EnsureRows();
    auto& events = batch.events();
    const auto& marks = batch.ctis();
    size_t m = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      for (; m < marks.size() && marks[m].pos <= i; ++m) Advance(marks[m].t);
      CountConsumed();
      if (buffer_.empty()) {
        // First boundary that can see this event: smallest grid point > le.
        next_b_ = CeilToGrid(events[i].le + 1, hop_);
      }
      buffer_.push_back(std::move(events[i]));
    }
    for (; m < marks.size(); ++m) Advance(marks[m].t);
    batch.Clear();
    Flush();
  }

 private:
  /// CTI(t): fires every boundary b <= t that has active events.
  void Advance(Timestamp t) {
    while (!buffer_.empty() && next_b_ <= t) {
      const Timestamp b = next_b_;
      const Timestamp wstart = b - window_;
      // Purge events that ended before this window.
      while (!buffer_.empty() && buffer_.front().re <= wstart) buffer_.pop_front();
      std::vector<Event> active;
      for (const Event& e : buffer_) {
        if (e.le < b && e.re > wstart) active.push_back(e);
      }
      if (!active.empty()) {
        for (Row& row : fn_(wstart, b, active)) {
          Emit(Event(b, b + hop_, std::move(row)));
        }
      }
      next_b_ = b + hop_;
      if (buffer_.empty()) break;
    }
    // Future outputs happen only at grid boundaries. If the buffer is live the
    // next possible one is next_b_ (> t here); if it is empty, any future event
    // arrives with LE >= t and fires strictly after that.
    EmitCti(buffer_.empty() ? t : next_b_);
  }

  Timestamp window_;
  Timestamp hop_;
  UdoFn fn_;
  std::deque<Event> buffer_;
  Timestamp next_b_ = kMinTime;
};

}  // namespace timr::temporal
