#include "timr/timr.h"

#include <atomic>
#include <iterator>
#include <memory>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/fragment_checks.h"
#include "temporal/convert.h"
#include "temporal/executor.h"
#include "timr/suite.h"

namespace timr::framework {

using temporal::Event;
using temporal::kMaxTime;
using temporal::PartitionSpec;
using temporal::Timestamp;

namespace {

/// Span arithmetic for temporal partitioning (paper §III-B). Span i receives
/// events with timestamp in [base + s*i - w, base + s*(i+1)) and owns output
/// in [base + s*i, base + s*(i+1)).
struct SpanLayout {
  Timestamp base = 0;
  Timestamp span_width = 1;
  Timestamp overlap = 0;
  int num_spans = 1;

  std::pair<Timestamp, Timestamp> OwnedInterval(int i) const {
    const Timestamp lo = base + span_width * i;
    const Timestamp hi =
        i + 1 == num_spans ? kMaxTime : base + span_width * (i + 1);
    return {lo, hi};
  }

  /// Spans that must receive an event with lifetime [le, re): every span whose
  /// owned output could be influenced by it given windows up to `overlap`.
  void TargetsFor(Timestamp le, Timestamp re, std::vector<int>* out) const {
    int64_t lo = (le - base) / span_width;
    if (le < base) lo = 0;
    int64_t hi = (std::min(re, base + span_width * int64_t{num_spans}) - base +
                  overlap) / span_width;
    lo = std::max<int64_t>(lo, 0);
    // When the span count is capped, the last span owns the open-ended tail:
    // route tail events to it rather than dropping them.
    lo = std::min<int64_t>(lo, num_spans - 1);
    hi = std::min<int64_t>(hi, num_spans - 1);
    for (int64_t i = lo; i <= hi; ++i) out->push_back(static_cast<int>(i));
  }
};

struct RowTimes {
  Timestamp le;
  Timestamp re;
};

RowTimes TimesOf(const Schema& row_schema, const Row& row) {
  const Timestamp le = row[0].AsInt64();
  if (temporal::IsIntervalLayout(row_schema)) {
    return {le, row[1].AsInt64()};
  }
  return {le, le + temporal::kTick};
}

}  // namespace

Result<mr::MRStage> CompileFragment(
    const Fragment& fragment, const std::vector<Schema>& row_schemas,
    int default_partitions, const TimrOptions& options,
    std::pair<Timestamp, Timestamp> time_range, FragmentStats* stats) {
  mr::MRStage stage;
  stage.name = fragment.name;
  stage.inputs = fragment.inputs;
  stage.output = fragment.name;
  TIMR_ASSIGN_OR_RETURN(Schema payload_schema, fragment.root->OutputSchema());
  stage.output_schema = temporal::IntervalRowSchema(payload_schema);

  // --- Map phase: the exchange semantics. ---
  std::shared_ptr<SpanLayout> spans;  // set iff temporal partitioning
  if (fragment.key.kind == PartitionSpec::Kind::kTemporal) {
    auto layout = std::make_shared<SpanLayout>();
    layout->base = time_range.first;
    layout->span_width = std::max<Timestamp>(1, fragment.key.span_width);
    layout->overlap = fragment.key.overlap;
    const Timestamp range = time_range.second - time_range.first + 1;
    layout->num_spans = static_cast<int>(
        std::min<int64_t>((range + layout->span_width - 1) / layout->span_width,
                          options.max_temporal_partitions));
    spans = layout;
    stage.num_partitions = layout->num_spans;
    stage.partition_fn = [layout, row_schemas](int input_index, const Row& row,
                                               int, std::vector<int>* targets) {
      const RowTimes t = TimesOf(row_schemas[input_index], row);
      layout->TargetsFor(t.le, t.re, targets);
    };
  } else if (fragment.key.keys.empty()) {
    stage.num_partitions = 1;
    stage.partition_fn = mr::SinglePartition();
  } else {
    stage.num_partitions = default_partitions;
    std::vector<std::vector<int>> key_indices;
    for (const Schema& rs : row_schemas) {
      TIMR_ASSIGN_OR_RETURN(std::vector<int> idx, rs.IndicesOf(fragment.key.keys));
      key_indices.push_back(std::move(idx));
    }
    stage.partition_fn = mr::HashPartitioner(key_indices);
    // Keyed exchanges are eligible for adaptive skew-aware repartitioning:
    // the key hash lets the cluster detect hot keys and split them across
    // salted virtual partitions without breaking the per-key co-location the
    // fragment's embedded engine relies on (§III-A exchange placement:
    // exchange keys ⊆ downstream grouping keys, so hash(key) % n is a valid
    // routing for any n). Temporal and singleton fragments never set
    // key_hash_fn and are never split.
    stage.key_hash_fn = mr::MakeKeyHasher(std::move(key_indices));
    stage.skew = options.job.skew;
    stage.skew.adaptive_repartition =
        options.job.skew.adaptive_repartition || fragment.key.adaptive_split;
  }

  // --- Reduce phase: the paper's P (row pump) around P' (embedded engine). ---
  // With validate_streams on, the embedded plan is instrumented with
  // ConformanceCheck operators above each input and below the root, so a
  // corrupted intermediate dataset or misbehaving operator fails the stage
  // with provenance instead of producing wrong output.
  temporal::PlanNodePtr plan =
      options.validate_streams
          ? analysis::InstrumentFragmentPlan(fragment.name, fragment.root)
          : fragment.root;
  std::vector<std::string> input_names = fragment.inputs;
  auto engine_events = std::make_shared<std::atomic<uint64_t>>(0);
  const bool want_stats = options.collect_engine_stats;
  const size_t batch_size = options.engine_batch_size;
  const bool columnar = options.engine_columnar;
  const size_t cti_thinning = options.cti_thinning;
  const bool sorted_shuffle = options.assume_sorted_shuffle;
  stage.reducer = [plan, input_names, row_schemas, spans, engine_events,
                   want_stats, batch_size, columnar, cti_thinning,
                   sorted_shuffle](
                      int partition,
                      const std::vector<std::vector<Row>>& inputs,
                      std::vector<Row>* output) -> Status {
    // Convert partition rows to events, per input.
    std::map<std::string, std::vector<Event>> event_inputs;
    for (size_t i = 0; i < inputs.size(); ++i) {
      TIMR_ASSIGN_OR_RETURN(std::vector<Event> events,
                            temporal::EventsFromRows(row_schemas[i], inputs[i]));
      event_inputs[input_names[i]] = std::move(events);
    }
    // A fresh engine instance per reducer invocation (paper §III-A step 4);
    // restartable because results depend only on application time.
    TIMR_ASSIGN_OR_RETURN(std::unique_ptr<temporal::Executor> exec,
                          temporal::Executor::Create(plan));
    if (batch_size != 0) exec->set_batch_size(batch_size);
    exec->set_columnar(columnar);
    exec->set_cti_thinning(cti_thinning);
    // Shuffle output arrives Time-sorted per partition; skip the defensive
    // re-sort (debug builds still assert sortedness).
    exec->set_assume_sorted_inputs(sorted_shuffle);
    std::vector<Event> result;
    TIMR_ASSIGN_OR_RETURN(result, exec->RunBatch(std::move(event_inputs)));
    const std::vector<std::string> violations = exec->ConformanceViolations();
    if (!violations.empty()) {
      std::ostringstream os;
      os << "stream conformance violated in partition " << partition << ":";
      for (const std::string& v : violations) os << "\n  " << v;
      return Status::ExecutionError(os.str());
    }
    if (want_stats) engine_events->fetch_add(exec->TotalEventsConsumed());
    // Temporal spans own only their output interval: clip (paper §III-B).
    if (spans) {
      auto [lo, hi] = spans->OwnedInterval(partition);
      std::vector<Event> clipped;
      clipped.reserve(result.size());
      for (Event& e : result) {
        const Timestamp le = std::max(e.le, lo);
        const Timestamp re = std::min(e.re, hi);
        if (le < re) clipped.push_back(Event(le, re, std::move(e.payload)));
      }
      result = std::move(clipped);
    }
    TIMR_ASSIGN_OR_RETURN(*output, temporal::RowsFromEvents(result, true));
    return Status::OK();
  };
  if (stats != nullptr) {
    stats->name = fragment.name;
    stats->engine_events = engine_events;
  }
  return stage;
}

Result<std::pair<Timestamp, Timestamp>> ScanTimeRange(
    const std::vector<const mr::Dataset*>& datasets) {
  Timestamp lo = kMaxTime;
  Timestamp hi = temporal::kMinTime;
  for (const mr::Dataset* d : datasets) {
    for (size_t p = 0; p < d->num_partitions(); ++p) {
      for (const Row& r : d->partition(p)) {
        // A malformed Time cell is the stage's to quarantine or reject.
        if (r.empty() || !r[0].is_int64()) continue;
        const Timestamp t = r[0].AsInt64();
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
    }
  }
  if (lo > hi) return std::make_pair<Timestamp, Timestamp>(0, 0);
  return std::make_pair(lo, hi);
}

Status RunFragments(mr::LocalCluster* cluster, const FragmentedPlan& plan,
                    const std::set<std::string>& protected_outputs,
                    std::map<std::string, mr::Dataset>* store,
                    const TimrOptions& options, mr::JobStats* job_stats,
                    std::vector<FragmentStats>* fragment_stats) {
  const std::vector<Fragment>& fragments = plan.fragments;
  // A fragment writes its output under its own name: a source or another
  // fragment of the same name would be overwritten mid-job, or read as the
  // wrong dataset.
  std::vector<std::string> names;
  std::set<std::string> produced;
  for (const Fragment& f : fragments) {
    if (store->count(f.name) != 0 || !produced.insert(f.name).second) {
      return Status::Invalid("TiMR: fragment dataset name is already taken: " +
                             f.name);
    }
    names.push_back(f.name);
  }
  if (options.validate_streams) {
    TIMR_RETURN_NOT_OK(analysis::CheckFragments(plan).ToStatus());
  }

  cluster->set_fault_tolerance(options.fault_tolerance);
  cluster->set_process_options(options.process);

  // Resume: replay checkpointed fragment outputs (and input releases) into
  // the store and skip the restored prefix. The store must hold the plan's
  // external sources again, exactly as for a fresh run.
  TIMR_ASSIGN_OR_RETURN(
      const size_t resume_from,
      cluster->ResumeJob(names, store, options.job, job_stats));
  if (options.job.checkpoint != nullptr && options.validate_streams) {
    // The restored prefix must be a valid cut of *this* plan: same stage
    // names at the same cuts, and no released dataset still needed past
    // the resume point (invariant "checkpoint-cut").
    TIMR_RETURN_NOT_OK(analysis::CheckCheckpointCut(plan,
                                                    *options.job.checkpoint,
                                                    resume_from,
                                                    protected_outputs)
                           .ToStatus());
  }

  // Last-use analysis for copy-free routing: an intermediate dataset (an
  // upstream fragment's output) that no later fragment reads again can be
  // *consumed* by its final reader — the shuffle then moves its rows instead
  // of copying them and releases the dataset's partitions. A dataset read by
  // several fragments is consumable only at the highest-indexed one; external
  // sources and protected outputs are never consumed. The declared stages
  // carry what each fragment reads, consumes and writes: the job's edges.
  std::map<std::string, size_t> last_use;
  for (size_t f = 0; f < fragments.size(); ++f) {
    for (const std::string& name : fragments[f].inputs) last_use[name] = f;
  }
  std::vector<mr::MRStage> declared(fragments.size());
  std::vector<FragmentStats> fstats(fragments.size());
  for (size_t f = 0; f < fragments.size(); ++f) {
    const Fragment& fragment = fragments[f];
    fstats[f].name = fragment.name;
    mr::MRStage& stage = declared[f];
    stage.name = fragment.name;
    stage.inputs = fragment.inputs;
    stage.output = fragment.name;
    for (size_t i = 0; i < fragment.inputs.size(); ++i) {
      const std::string& name = fragment.inputs[i];
      if (!fragment.input_is_external[i] && last_use.at(name) == f &&
          protected_outputs.count(name) == 0) {
        stage.consumable_inputs.push_back(static_cast<int>(i));
      }
    }
  }

  // Compile each fragment once its inputs exist: a temporal one needs their
  // time range.
  const auto build = [&](size_t frag_index,
                         const std::vector<const mr::Dataset*>& datasets)
      -> Result<mr::MRStage> {
    const Fragment& fragment = fragments[frag_index];
    std::vector<Schema> row_schemas;
    for (size_t i = 0; i < datasets.size(); ++i) {
      if (datasets[i] == nullptr) {
        return Status::KeyError("TiMR: dataset not found: " +
                                fragment.inputs[i]);
      }
      row_schemas.push_back(datasets[i]->schema());
    }
    std::pair<Timestamp, Timestamp> range{0, 0};
    if (fragment.key.kind == PartitionSpec::Kind::kTemporal) {
      TIMR_ASSIGN_OR_RETURN(range, ScanTimeRange(datasets));
    }
    TIMR_ASSIGN_OR_RETURN(
        mr::MRStage stage,
        CompileFragment(fragment, row_schemas, cluster->num_machines(), options,
                        range, &fstats[frag_index]));
    stage.consumable_inputs = declared[frag_index].consumable_inputs;
    if (options.validate_streams) {
      TIMR_RETURN_NOT_OK(analysis::CheckStage(plan, frag_index, stage,
                                              protected_outputs)
                             .ToStatus());
    }
    return stage;
  };
  TIMR_RETURN_NOT_OK(cluster->RunJobStages(declared, resume_from, build, store,
                                           options.job, job_stats));
  for (size_t f = resume_from; f < fragments.size(); ++f) {
    fstats[f].engine_events_consumed = fstats[f].engine_events->load();
  }
  fragment_stats->insert(fragment_stats->end(),
                         std::make_move_iterator(fstats.begin()),
                         std::make_move_iterator(fstats.end()));
  return Status::OK();
}

Result<TimrRunResult> RunPlan(mr::LocalCluster* cluster,
                              const temporal::PlanNodePtr& annotated_root,
                              std::map<std::string, mr::Dataset>* store,
                              const TimrOptions& options) {
  TIMR_ASSIGN_OR_RETURN(SuiteRunResult run,
                        RunPlanSet(cluster, {{"frag_0", annotated_root}}, store,
                                   options, /*share=*/false));
  TimrRunResult result;
  result.output = std::move(run.outputs[0]);
  result.job_stats = std::move(run.job_stats);
  result.fragments = std::move(run.fragments);
  result.fragment_stats = std::move(run.fragment_stats);
  result.elided_exchanges = std::move(run.elided_exchanges);
  return result;
}

Result<TimrRunResult> RunPlanOnEvents(
    mr::LocalCluster* cluster, const temporal::PlanNodePtr& annotated_root,
    const std::map<std::string, std::pair<Schema, std::vector<temporal::Event>>>&
        inputs,
    const TimrOptions& options) {
  std::map<std::string, mr::Dataset> store;
  for (const auto& [name, schema_events] : inputs) {
    const auto& [payload_schema, events] = schema_events;
    bool all_points = true;
    for (const Event& e : events) {
      if (!e.IsPoint()) {
        all_points = false;
        break;
      }
    }
    TIMR_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          temporal::RowsFromEvents(events, !all_points));
    Schema row_schema = all_points
                            ? temporal::PointRowSchema(payload_schema)
                            : temporal::IntervalRowSchema(payload_schema);
    store[name] = mr::Dataset::FromRows(std::move(row_schema), std::move(rows));
  }
  return RunPlan(cluster, annotated_root, &store, options);
}

}  // namespace timr::framework
