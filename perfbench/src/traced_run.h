// Traced re-drive of framework::RunPlan and framework::RunPlanSuite.
//
// To see the engine and the row<->event codec from outside the library, the
// traced run drives fragments itself through the same public calls the
// library makes (VerifyPlanForExecution, SelectSharedFragments, MakeFragments,
// CompileFragment, CheckStage, LocalCluster::RunStage) and replaces each
// stage's reducer with a copy of TiMR's row pump (EventsFromRows ->
// Executor::Create -> Executor::RunBatch -> RowsFromEvents) that opens a span
// around every call. Outputs must equal the untraced run's; the workloads
// check that. Covers the options the workloads use: no exchange elision,
// checkpointing or chaos kill.
//
// In process mode, around every stage the traced run also encodes and decodes
// the stage's input and output datasets with the RPC wire codec
// (WireWriter::Rows / WireReader::Rows) in probe spans, which are cut out of
// the job wall.

#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mr/cluster.h"
#include "temporal/event.h"
#include "temporal/plan.h"
#include "timr/suite.h"
#include "timr/timr.h"
#include "trace.h"

namespace perfbench {

/// Where a traced job's spans go: the tracer, the job id, and the job span
/// every top-level span of the job hangs under.
struct TraceContext {
  Tracer* tracer = nullptr;
  uint32_t job = 0;
  uint64_t parent = 0;
};

struct TracedRunResult {
  /// One output per query (a single plan has one), in the order the library
  /// call returns them: RunPlan's output order, RunPlanSuite's canonical order.
  std::vector<std::vector<timr::temporal::Event>> outputs;
  timr::mr::JobStats job_stats;
};

timr::Result<TracedRunResult> TracedRunPlan(
    const TraceContext& ctx, timr::mr::LocalCluster* cluster,
    const timr::temporal::PlanNodePtr& annotated_root,
    std::map<std::string, timr::mr::Dataset>* store,
    const timr::framework::TimrOptions& options);

timr::Result<TracedRunResult> TracedRunSuite(
    const TraceContext& ctx, timr::mr::LocalCluster* cluster,
    const std::vector<std::pair<std::string, timr::temporal::PlanNodePtr>>& queries,
    std::map<std::string, timr::mr::Dataset>* store,
    const timr::framework::SuiteOptions& options);

}  // namespace perfbench
