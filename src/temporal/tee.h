// Multiplexing tee: fans one punctuated stream out to several consumers.
//
// NetworkBuilder splices a TeeOp behind any operator with more than one
// consumer (multi-parent plan nodes, including parents reached through elided
// kExchange aliases). Batches are shared via EventBatch::View — every port
// receives a copy-on-write view over one underlying batch, so a read-mostly
// fan-out (collector sinks, synopsis builders that only materialize) never
// deep-copies the columnar payload; a consumer that mutates localizes its own
// view and the last localizer steals the storage outright.
//
// The tee does NOT re-filter a batch's CTI marks per port: the producer
// already removed stale marks against its single emitted-CTI cursor, and
// every port sees the same one stream, so per-port filtering would be a
// provable no-op that only forced views to localize.
//
// The tee deliberately performs no CountConsumed bookkeeping: it is pure
// plumbing, invisible to Executor::TotalEventsConsumed().

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "temporal/event.h"
#include "temporal/operator.h"
#include "temporal/time.h"

namespace timr::temporal {

class TeeOp final : public UnaryOperator {
 public:
  void AddPort(EventSink* sink) {
    TIMR_DCHECK(sink != nullptr);
    ports_.push_back(sink);
  }

  void OnBatch(EventBatch&& batch) override {
    if (ports_.empty()) return;
    // A batch of at most one event is copied per port, into a scratch batch
    // the tee lends and refills. On the live per-event path this measured
    // faster than the shared view (EXPERIMENTS.md, "One operator entry
    // point").
    if (ports_.size() == 1 || batch.NumEvents() <= 1) {
      for (size_t i = 0; i + 1 < ports_.size(); ++i) {
        scratch_.CopyFrom(batch);
        Lend(ports_[i], scratch_);
      }
      ports_.back()->OnBatch(std::move(batch));
      return;
    }
    auto shared = std::make_shared<EventBatch>(std::move(batch));
    for (size_t i = 0; i + 1 < ports_.size(); ++i) {
      ports_[i]->OnBatch(EventBatch::View(shared));
    }
    ports_.back()->OnBatch(EventBatch::View(std::move(shared)));
  }

 private:
  std::vector<EventSink*> ports_;
  EventBatch scratch_ = EventBatch::Unpooled();
};

}  // namespace timr::temporal
