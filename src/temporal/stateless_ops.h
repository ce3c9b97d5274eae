// Stateless operators: Select (filter), Project, AlterLifetime (windowing),
// and Passthrough (the wiring form of Multicast). Paper §II-A.2.
//
// Each processes a morsel in one virtual call with events rewritten in place
// (see EventBatch::FilterEvents), and adjacent single-consumer chains of them
// are fused by the executor into one FusedStatelessOp so a batch crosses the
// whole chain in a single pass.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "temporal/expr.h"
#include "temporal/operator.h"

namespace timr::temporal {

/// \brief Filters events by a predicate over the payload. When constructed
/// from a structured SelectSpec, columnar batches are filtered by the
/// vectorized kernel; opaque predicates force row materialization.
class SelectOp : public UnaryOperator {
 public:
  explicit SelectOp(Predicate pred) : pred_(std::move(pred)) {}
  explicit SelectOp(SelectSpec spec)
      : pred_(MakeRowPredicate(spec)), spec_(std::move(spec)) {}

  void OnBatch(EventBatch&& batch) override {
    CountConsumedN(batch.NumEvents());
    if (batch.columnar() && spec_.has_value()) {
      EvalSelectColumnar(batch.columnar_payload(), *spec_);
      batch.CompactColumnar();
      EmitBatch(std::move(batch));
      return;
    }
    batch.EnsureRows();
    if (spec_.has_value()) {
      const SelectSpec& spec = *spec_;
      batch.FilterEvents(
          [&spec](Event& e) { return EvalSelectRow(spec, e.payload); });
    } else {
      batch.FilterEvents([this](Event& e) { return pred_(e.payload); });
    }
    EmitBatch(std::move(batch));
  }

 private:
  Predicate pred_;
  std::optional<SelectSpec> spec_;
};

/// \brief Stateless payload transformation (schema change). A structured
/// ProjectSpec enables the columnar column-copy/arithmetic kernel.
class ProjectOp : public UnaryOperator {
 public:
  explicit ProjectOp(ProjectFn fn) : fn_(std::move(fn)) {}
  ProjectOp(ProjectSpec spec, const Schema& in_schema)
      : fn_(MakeRowProjector(spec, in_schema)), spec_(std::move(spec)) {}

  void OnBatch(EventBatch&& batch) override {
    CountConsumedN(batch.NumEvents());
    if (batch.columnar() && spec_.has_value()) {
      ApplyProjectColumnar(batch.columnar_payload(), *spec_);
      EmitBatch(std::move(batch));
      return;
    }
    batch.EnsureRows();
    for (Event& e : batch.events()) e.payload = fn_(e.payload);
    EmitBatch(std::move(batch));
  }

 private:
  ProjectFn fn_;
  std::optional<ProjectSpec> spec_;
};

/// \brief How AlterLifetime rewrites event lifetimes.
struct AlterLifetimeSpec {
  enum class Mode : uint8_t {
    kShift,          // le += shift; re += shift
    kWindow,         // re = le + window (sliding window of width `window`)
    kHop,            // snap to hop grid: visible at every boundary b (multiple
                     // of `hop`) with original timestamp in (b - window, b]
    kPoint,          // re = le + kTick
    kShiftAndWindow  // le += shift; re = le + window
  };

  Mode mode = Mode::kWindow;
  Timestamp shift = 0;
  Timestamp window = 0;
  Timestamp hop = 0;

  static AlterLifetimeSpec Shift(Timestamp s) {
    return {Mode::kShift, s, 0, 0};
  }
  static AlterLifetimeSpec Window(Timestamp w) {
    return {Mode::kWindow, 0, w, 0};
  }
  static AlterLifetimeSpec HoppingWindow(Timestamp w, Timestamp h) {
    return {Mode::kHop, 0, w, h};
  }
  static AlterLifetimeSpec ToPoint() { return {Mode::kPoint, 0, 0, 0}; }
  static AlterLifetimeSpec ShiftAndWindow(Timestamp s, Timestamp w) {
    return {Mode::kShiftAndWindow, s, w, 0};
  }

  /// Maximum lifetime duration this spec can produce from a point event;
  /// TiMR's temporal partitioning uses it as the span overlap (paper §III-B).
  Timestamp MaxWindow() const {
    switch (mode) {
      case Mode::kShift: return kTick;
      case Mode::kWindow: return window;
      case Mode::kHop: return window + hop;
      case Mode::kPoint: return kTick;
      case Mode::kShiftAndWindow: return window;
    }
    return kTick;
  }
};

/// Next multiple of `hop` that is >= t (t may be negative).
inline Timestamp CeilToGrid(Timestamp t, Timestamp hop) {
  Timestamp q = t / hop;
  if (q * hop < t) ++q;
  return q * hop;
}

/// Rewrite one event's lifetime per `spec`; returns false when the event is
/// dropped (kHop events that touch no boundary). All modes apply a constant,
/// monotone transformation to LE, so input LE order is preserved.
inline bool ApplyLifetime(const AlterLifetimeSpec& spec, Event& event) {
  switch (spec.mode) {
    case AlterLifetimeSpec::Mode::kShift:
      event.le += spec.shift;
      event.re += spec.shift;
      break;
    case AlterLifetimeSpec::Mode::kWindow:
      event.re = event.le + spec.window;
      break;
    case AlterLifetimeSpec::Mode::kHop: {
      // Original timestamp t contributes to boundaries b in [t, t + window),
      // b on the hop grid. Lifetime becomes the span of those boundaries.
      const Timestamp t = event.le;
      const Timestamp first = CeilToGrid(t, spec.hop);
      const Timestamp last = CeilToGrid(t + spec.window, spec.hop);
      if (first >= last) return false;  // contributes to no boundary
      event.le = first;
      event.re = last;
      break;
    }
    case AlterLifetimeSpec::Mode::kPoint:
      event.re = event.le + kTick;
      break;
    case AlterLifetimeSpec::Mode::kShiftAndWindow:
      event.le += spec.shift;
      event.re = event.le + spec.window;
      break;
  }
  return true;
}

/// The (monotone) CTI image of `spec`'s LE transformation.
inline Timestamp MapLifetimeCti(const AlterLifetimeSpec& spec, Timestamp t) {
  switch (spec.mode) {
    case AlterLifetimeSpec::Mode::kShift:
    case AlterLifetimeSpec::Mode::kShiftAndWindow:
      return t >= kMaxTime ? kMaxTime : t + spec.shift;
    case AlterLifetimeSpec::Mode::kHop:
      return t >= kMaxTime ? kMaxTime : CeilToGrid(t, spec.hop);
    case AlterLifetimeSpec::Mode::kWindow:
    case AlterLifetimeSpec::Mode::kPoint:
      return t;
  }
  return t;
}

/// \brief Adjusts event lifetimes (the windowing primitive). Input LE order —
/// and therefore the engine's ordering invariant — is preserved without a
/// reorder buffer, and the CTI maps through the same transformation.
class AlterLifetimeOp : public UnaryOperator {
 public:
  explicit AlterLifetimeOp(AlterLifetimeSpec spec) : spec_(spec) {
    TIMR_CHECK(spec_.mode != AlterLifetimeSpec::Mode::kHop || spec_.hop > 0);
  }

  void OnBatch(EventBatch&& batch) override {
    CountConsumedN(batch.NumEvents());
    if (batch.columnar()) {
      if (ApplyAlterColumnar(batch.columnar_payload(), spec_)) {
        batch.CompactColumnar();
      }
      batch.TransformCtis(
          [this](Timestamp t) { return MapLifetimeCti(spec_, t); });
      EmitBatch(std::move(batch));
      return;
    }
    batch.FilterEvents([this](Event& e) { return ApplyLifetime(spec_, e); });
    batch.TransformCtis([this](Timestamp t) { return MapLifetimeCti(spec_, t); });
    EmitBatch(std::move(batch));
  }

 private:
  AlterLifetimeSpec spec_;
};

/// \brief Identity operator; exists so Multicast and Exchange have a physical
/// node when a plan is executed single-node.
class PassthroughOp : public UnaryOperator {
 public:
  void OnBatch(EventBatch&& batch) override {
    CountConsumedN(batch.NumEvents());
    EmitBatch(std::move(batch));
  }
};

/// \brief A fused chain of adjacent stateless operators (built by the
/// executor for Select/Project/AlterLifetime runs with single-consumer
/// interior nodes): one operator, one virtual hop, one in-place pass per
/// batch, applying every step in pipeline order.
///
/// Event accounting mirrors the unfused chain: an input event counts as
/// consumed once per step it reaches, so the Figure 15 engine-events metric
/// is unchanged by fusion.
class FusedStatelessOp : public UnaryOperator {
 public:
  struct Step {
    enum class Kind : uint8_t { kSelect, kProject, kAlter };
    Kind kind;
    Predicate pred;           // kSelect
    ProjectFn fn;             // kProject
    AlterLifetimeSpec alter;  // kAlter
    std::optional<SelectSpec> select_spec;    // kSelect columnar kernel
    std::optional<ProjectSpec> project_spec;  // kProject columnar kernel

    static Step Select(Predicate p,
                       std::optional<SelectSpec> spec = std::nullopt) {
      Step s;
      s.kind = Kind::kSelect;
      s.pred = std::move(p);
      s.select_spec = std::move(spec);
      return s;
    }
    static Step Project(ProjectFn f,
                        std::optional<ProjectSpec> spec = std::nullopt) {
      Step s;
      s.kind = Kind::kProject;
      s.fn = std::move(f);
      s.project_spec = std::move(spec);
      return s;
    }
    static Step Alter(AlterLifetimeSpec spec) {
      Step s;
      s.kind = Kind::kAlter;
      s.alter = spec;
      return s;
    }

    /// Whether this step has a columnar kernel.
    bool Columnar() const {
      switch (kind) {
        case Kind::kSelect: return select_spec.has_value();
        case Kind::kProject: return project_spec.has_value();
        case Kind::kAlter: return true;
      }
      return false;
    }
  };

  /// `steps` in pipeline (execution) order.
  explicit FusedStatelessOp(std::vector<Step> steps)
      : steps_(std::move(steps)) {
    TIMR_CHECK(!steps_.empty());
  }

  void OnBatch(EventBatch&& batch) override {
    size_t start = 0;
    if (batch.columnar()) {
      // Run the columnar-capable prefix of the chain via kernels; on the
      // first step without one, materialize and finish on the row path.
      for (; start < steps_.size() && steps_[start].Columnar(); ++start) {
        const Step& step = steps_[start];
        CountConsumedN(batch.NumEvents());
        switch (step.kind) {
          case Step::Kind::kSelect:
            EvalSelectColumnar(batch.columnar_payload(), *step.select_spec);
            batch.CompactColumnar();
            break;
          case Step::Kind::kProject:
            ApplyProjectColumnar(batch.columnar_payload(), *step.project_spec);
            break;
          case Step::Kind::kAlter:
            if (ApplyAlterColumnar(batch.columnar_payload(), step.alter)) {
              batch.CompactColumnar();
            }
            batch.TransformCtis([&step](Timestamp t) {
              return MapLifetimeCti(step.alter, t);
            });
            break;
        }
      }
      if (start == steps_.size()) {
        EmitBatch(std::move(batch));
        return;
      }
      batch.EnsureRows();
    }
    batch.FilterEvents([this, start](Event& e) { return ApplyFrom(e, start); });
    batch.TransformCtis(
        [this, start](Timestamp t) { return MapCtiFrom(t, start); });
    EmitBatch(std::move(batch));
  }

  size_t num_steps() const { return steps_.size(); }

 private:
  bool ApplyFrom(Event& event, size_t start) {
    for (size_t i = start; i < steps_.size(); ++i) {
      const Step& step = steps_[i];
      CountConsumed();  // the unfused operator for this step would consume it
      switch (step.kind) {
        case Step::Kind::kSelect:
          if (step.select_spec.has_value()
                  ? !EvalSelectRow(*step.select_spec, event.payload)
                  : !step.pred(event.payload)) {
            return false;
          }
          break;
        case Step::Kind::kProject:
          event.payload = step.fn(event.payload);
          break;
        case Step::Kind::kAlter:
          if (!ApplyLifetime(step.alter, event)) return false;
          break;
      }
    }
    return true;
  }

  Timestamp MapCtiFrom(Timestamp t, size_t start) const {
    for (size_t i = start; i < steps_.size(); ++i) {
      if (steps_[i].kind == Step::Kind::kAlter) {
        t = MapLifetimeCti(steps_[i].alter, t);
      }
    }
    return t;
  }

  std::vector<Step> steps_;
};

}  // namespace timr::temporal
