// Closing the M3 loop (paper §I challenge 2, §VII): run a TiMR-annotated plan
// over a *live* feed.
//
// The paper observes that pipelined map-reduce (MapReduce Online, SOPA) lets
// the very same compiled {fragment, key} pairs process real-time data. This
// module is that execution mode: each fragment becomes a long-running engine
// instance; fragment outputs stream into downstream fragments' inputs as they
// are produced (the role the pipelined shuffle plays), and the whole DAG is
// driven by PushEvent/PushCti exactly like a DSMS deployment.
//
// Because the temporal algebra is application-time-only, a LivePipeline's
// cumulative output is identical to running the same annotated plan as an
// offline TiMR job over the same events — asserted in live_pipeline_test.cc.
// Partitioned parallelism is not simulated here (one engine per fragment);
// the point is the reuse of the *unmodified* fragment plans.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "temporal/executor.h"
#include "timr/fragments.h"

namespace timr::framework {

class LivePipeline {
 public:
  /// Compile `annotated_root` into fragments and instantiate the streaming
  /// DAG. External sources keep their plan names.
  static Result<std::unique_ptr<LivePipeline>> Create(
      const temporal::PlanNodePtr& annotated_root);

  ~LivePipeline();  // out-of-line: Forwarder is defined in the .cc

  /// Feed one event into an external source: a batch of one. Events per
  /// source arrive in non-decreasing LE order at or above the last CTI; an
  /// event below either is rejected with Status::Invalid and reaches nothing.
  Status PushEvent(const std::string& source, temporal::Event event);

  /// Feed a morsel (events + CTI marks, row or columnar) into an external
  /// source, checked like PushEvent. The batch is cloned for all consumers
  /// but the last, which takes it intact.
  Status PushBatch(const std::string& source, temporal::EventBatch&& batch);

  /// Advance every external source's progress marker.
  void PushCti(temporal::Timestamp t);

  /// End-of-stream: flush all fragment state.
  void Finish();

  /// Drain the final fragment's output produced so far.
  std::vector<temporal::Event> TakeOutput();

  /// Also deliver final output to `sink` as it is produced.
  void AddOutputSink(temporal::EventSink* sink);

  size_t num_fragments() const { return fragments_.fragments.size(); }

 private:
  LivePipeline() = default;

  // Forwards one fragment's output into the same-named input of downstream
  // fragments (the pipelined-shuffle stand-in).
  struct Forwarder;

  FragmentedPlan fragments_;
  std::vector<std::unique_ptr<temporal::Executor>> executors_;
  std::vector<std::unique_ptr<Forwarder>> forwarders_;
  // source name -> executors consuming it directly.
  std::map<std::string, std::vector<temporal::Executor*>> source_feeds_;
  temporal::CollectorSink output_;
  temporal::Executor* final_executor_ = nullptr;
};

}  // namespace timr::framework
