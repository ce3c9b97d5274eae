// Runtime stream-conformance checking: a passthrough operator that asserts
// the engine's execution discipline (see operator.h) on the stream flowing
// through it — valid [LE, RE) lifetimes, events never preceding the last CTI,
// and monotone CTIs.
//
// TiMR inserts these at fragment boundaries (TimrOptions::validate_streams):
// one above every fragment input and one below the fragment root, so a bad
// optimizer rewrite, a corrupted intermediate dataset, or a misbehaving
// operator is caught at the stage where it happens, with provenance, instead
// of silently producing wrong output. The engine's own TIMR_DCHECKs cover the
// same invariants but are compiled out of NDEBUG builds; this operator is the
// always-available, Status-reporting form.

#pragma once

#include <string>
#include <vector>

#include "temporal/operator.h"

namespace timr::temporal {

/// \brief Passthrough operator that records conformance violations instead of
/// aborting. Violating events are recorded and dropped (the run is going to be
/// failed anyway; forwarding them would trip downstream invariants).
class ConformanceCheckOp : public UnaryOperator {
 public:
  /// `label` names the checked edge in violation messages, e.g.
  /// "frag_1/input:ClickLog" or "frag_1/output".
  explicit ConformanceCheckOp(std::string label) : label_(std::move(label)) {}

  /// One in-place pass applies the checks in stream order, dropping violating
  /// events and regressed CTI marks, so keeping validate_streams on costs one
  /// extra pass per batch.
  void OnBatch(EventBatch&& batch) override {
    CountConsumedN(batch.NumEvents());
    if (batch.columnar()) {
      // Validate straight off the le/re columns. The overwhelmingly common
      // case is a clean batch, which is forwarded still-columnar with zero
      // materialization; only a batch with violations drops to the row path
      // (which rebuilds its cursor state from scratch, so rewind trackers).
      if (CleanColumnarScan(batch)) {
        EmitBatch(std::move(batch));
        return;
      }
      batch.EnsureRows();
    }
    auto& events = batch.events();
    auto& marks = batch.mutable_ctis();
    size_t w = 0;   // events write cursor
    size_t mw = 0;  // marks write cursor
    size_t m = 0;
    for (size_t r = 0; r < events.size(); ++r) {
      for (; m < marks.size() && marks[m].pos <= r; ++m) {
        if (CheckCti(marks[m].t)) marks[mw++] = {w, marks[m].t};
      }
      if (CheckEvent(events[r])) {
        if (w != r) events[w] = std::move(events[r]);
        ++w;
      }
    }
    for (; m < marks.size(); ++m) {
      if (CheckCti(marks[m].t)) marks[mw++] = {w, marks[m].t};
    }
    events.resize(w);
    marks.resize(mw);
    EmitBatch(std::move(batch));
  }

  const std::string& label() const { return label_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  /// One read-only pass over a columnar batch's le/re columns and CTI marks.
  /// Returns true (trackers advanced) iff every check passes; on the first
  /// violation returns false with trackers untouched, so the row path re-runs
  /// the full recording logic from the same starting state.
  bool CleanColumnarScan(const EventBatch& batch) {
    const ColumnarPayload& p = batch.columnar_payload();
    const Timestamp* le = p.le().data();
    const Timestamp* re = p.re().data();
    const auto& marks = batch.ctis();
    const size_t n = p.num_rows();
    Timestamp cti = last_cti_;
    Timestamp last_le = last_le_;
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      for (; m < marks.size() && marks[m].pos <= i; ++m) {
        if (marks[m].t < cti) return false;
        cti = marks[m].t;
      }
      if (le[i] >= re[i] || le[i] < cti || le[i] < last_le) return false;
      last_le = le[i];
    }
    for (; m < marks.size(); ++m) {
      if (marks[m].t < cti) return false;
      cti = marks[m].t;
    }
    last_cti_ = cti;
    last_le_ = last_le;
    return true;
  }

  /// Returns whether the event conforms (and may be forwarded); records and
  /// signals drop otherwise. Updates the LE-order tracker.
  bool CheckEvent(const Event& event) {
    if (event.le >= event.re) {
      Record("event [" + std::to_string(event.le) + "," +
             std::to_string(event.re) + ") has an empty or inverted lifetime");
      return false;
    }
    if (event.le < last_cti_) {
      Record("event at LE=" + std::to_string(event.le) +
             " precedes the last CTI " + std::to_string(last_cti_));
      return false;
    }
    if (event.le < last_le_) {
      Record("event at LE=" + std::to_string(event.le) +
             " arrived out of order after LE=" + std::to_string(last_le_));
      return false;
    }
    last_le_ = event.le;
    return true;
  }

  /// Returns whether the CTI is monotone (a stale equal CTI is forwarded and
  /// dropped at emission).
  bool CheckCti(Timestamp t) {
    if (t < last_cti_) {
      Record("CTI regressed from " + std::to_string(last_cti_) + " to " +
             std::to_string(t));
      return false;
    }
    last_cti_ = t;
    return true;
  }

  void Record(std::string msg) {
    ++violation_count_;
    if (violations_.size() < kMaxRecorded) {
      violations_.push_back(label_ + ": " + std::move(msg));
    } else if (violations_.size() == kMaxRecorded) {
      violations_.push_back(label_ + ": ... further violations suppressed");
    }
  }

  static constexpr size_t kMaxRecorded = 8;

  std::string label_;
  Timestamp last_cti_ = kMinTime;
  Timestamp last_le_ = kMinTime;
  uint64_t violation_count_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace timr::temporal
