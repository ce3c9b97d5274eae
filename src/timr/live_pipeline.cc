#include "timr/live_pipeline.h"

#include <set>

namespace timr::framework {

using temporal::Event;
using temporal::Timestamp;

/// Streams one producer fragment's output into one consumer executor's input.
struct LivePipeline::Forwarder : public temporal::EventSink {
  Forwarder(temporal::Executor* consumer_in, std::string input_in)
      : consumer(consumer_in), input(std::move(input_in)) {}

  void OnBatch(temporal::EventBatch&& batch) override {
    // Keep the batch intact across the executor boundary.
    TIMR_CHECK_OK(consumer->PushBatch(input, std::move(batch)));
  }

  temporal::Executor* consumer;
  std::string input;
};

LivePipeline::~LivePipeline() = default;

Result<std::unique_ptr<LivePipeline>> LivePipeline::Create(
    const temporal::PlanNodePtr& annotated_root) {
  auto pipeline = std::unique_ptr<LivePipeline>(new LivePipeline());
  TIMR_ASSIGN_OR_RETURN(pipeline->fragments_, MakeFragments(annotated_root));
  const auto& frags = pipeline->fragments_.fragments;

  // Instantiate engines in topological (vector) order, then wire edges:
  // producers appear before consumers, so all upstream executors exist.
  std::map<std::string, temporal::Executor*> by_fragment_name;
  for (const Fragment& frag : frags) {
    TIMR_ASSIGN_OR_RETURN(std::unique_ptr<temporal::Executor> exec,
                          temporal::Executor::Create(frag.root));
    by_fragment_name[frag.name] = exec.get();
    pipeline->executors_.push_back(std::move(exec));
  }
  for (size_t i = 0; i < frags.size(); ++i) {
    temporal::Executor* consumer = pipeline->executors_[i].get();
    for (size_t j = 0; j < frags[i].inputs.size(); ++j) {
      const std::string& name = frags[i].inputs[j];
      if (frags[i].input_is_external[j]) {
        pipeline->source_feeds_[name].push_back(consumer);
      } else {
        auto it = by_fragment_name.find(name);
        if (it == by_fragment_name.end()) {
          return Status::Invalid("fragment consumes unknown dataset " + name);
        }
        auto fwd = std::make_unique<Forwarder>(consumer, name);
        it->second->AddOutputSink(fwd.get());
        pipeline->forwarders_.push_back(std::move(fwd));
      }
    }
  }
  pipeline->final_executor_ = pipeline->executors_.back().get();
  pipeline->final_executor_->AddOutputSink(&pipeline->output_);
  if (pipeline->source_feeds_.empty()) {
    return Status::Invalid("pipeline has no external sources");
  }
  return pipeline;
}

Status LivePipeline::PushEvent(const std::string& source, Event event) {
  return PushBatch(source, temporal::EventBatch::Of(std::move(event)));
}

Status LivePipeline::PushBatch(const std::string& source,
                               temporal::EventBatch&& batch) {
  auto it = source_feeds_.find(source);
  if (it == source_feeds_.end()) {
    return Status::KeyError("no external source named " + source);
  }
  // Every consumer of a source sees the same pushes, so the first one's
  // verdict on the batch is every consumer's: a rejected batch reaches none.
  auto& consumers = it->second;
  for (size_t i = 0; i + 1 < consumers.size(); ++i) {
    TIMR_RETURN_NOT_OK(consumers[i]->PushBatch(source, batch.Clone()));
  }
  if (!consumers.empty()) {
    TIMR_RETURN_NOT_OK(consumers.back()->PushBatch(source, std::move(batch)));
  }
  return Status::OK();
}

void LivePipeline::PushCti(Timestamp t) {
  for (auto& [name, consumers] : source_feeds_) {
    for (temporal::Executor* exec : consumers) {
      TIMR_CHECK_OK(exec->PushCti(name, t));
    }
  }
}

void LivePipeline::Finish() { PushCti(temporal::kMaxTime); }

std::vector<Event> LivePipeline::TakeOutput() { return output_.TakeEvents(); }

void LivePipeline::AddOutputSink(temporal::EventSink* sink) {
  final_executor_->AddOutputSink(sink);
}

}  // namespace timr::framework
