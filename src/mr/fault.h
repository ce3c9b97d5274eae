// Fault model for the LocalCluster (paper §III-C.1).
//
// The paper inherits fault tolerance from Cosmos/Dryad: a failed reducer task
// is simply re-executed, and §III-C.1 argues this is *safe* for TiMR because
// shuffle output is persisted and canonically sorted, and the temporal algebra
// is deterministic — a restarted task reproduces its output byte for byte.
// This header supplies the machinery that turns that argument into enforced,
// chaos-tested behavior:
//
//  - FaultKind / Fault: the kinds of task misbehavior the runtime must absorb
//    (crash, transient error, partial output, lost output, straggler,
//    corrupted input read);
//  - FaultInjector: the pluggable fault source the stage pipeline probes
//    once per reduce attempt. ScriptedFaultInjector (scripted per-attempt
//    faults) covers targeted tests; ChaosInjector draws faults from a seeded
//    PRNG keyed on (stage, partition, attempt), so a chaos run is fully
//    replayable;
//  - FaultToleranceOptions: the retry / speculative-execution / quarantine
//    knobs of the stage pipeline's attempt scheduler (pipeline.cc).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/row.h"
#include "common/status.h"

namespace timr::mr {

enum class FaultKind : uint8_t {
  kNone = 0,
  kCrash,           // the task throws an exception mid-execution
  kTransientError,  // the task fails with a transient Status error
  kPartialOutput,   // the task aborts after emitting part of its output
  kDiscardOutput,   // the task completes but its output is lost (machine loss
                    // after completion)
  kStraggler,       // the task stalls; what speculative execution exists for
  kCorruptInput,    // one input row is corrupted for this attempt only (a bad
                    // read, caught by the same schema check as quarantine)
};

const char* FaultKindName(FaultKind kind);

struct Fault {
  FaultKind kind = FaultKind::kNone;
  double straggler_seconds = 0;  // kStraggler: how long the task stalls
};

/// Pluggable fault source, probed once per reduce attempt by the attempt
/// scheduler, on the thread that called RunStage. Implementations should be
/// deterministic in (stage, partition, attempt) so fault runs are
/// replayable.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Fault to apply to this attempt (kNone = run clean). `attempt` counts
  /// from 0 per (stage, partition) and includes speculative backups;
  /// `max_attempts` is the retry bound the cluster enforces.
  virtual Fault OnReduceAttempt(const std::string& stage, int partition,
                                int attempt, int max_attempts) = 0;
};

/// Scripted per-attempt faults for targeted tests: inject exactly the given
/// fault at (stage, partition, attempt), clean everywhere else.
class ScriptedFaultInjector : public FaultInjector {
 public:
  void InjectAt(std::string stage, int partition, int attempt, Fault fault) {
    std::lock_guard<std::mutex> lock(mu_);
    scripted_[{std::move(stage), partition, attempt}] = fault;
  }

  Fault OnReduceAttempt(const std::string& stage, int partition, int attempt,
                        int /*max_attempts*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = scripted_.find({stage, partition, attempt});
    if (it == scripted_.end()) return Fault{};
    Fault f = it->second;
    scripted_.erase(it);
    return f;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return scripted_.empty();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::tuple<std::string, int, int>, Fault> scripted_;
};

/// Per-attempt fault probabilities for ChaosInjector. All zero = no chaos.
struct FaultPlan {
  uint64_t seed = 0;
  double crash_probability = 0;
  double transient_error_probability = 0;
  double partial_output_probability = 0;
  double discard_output_probability = 0;
  double straggler_probability = 0;
  double corrupt_input_probability = 0;
  double straggler_seconds = 0.05;

  /// Never fault the last allowed attempt, so a chaos run with any retry
  /// bound is guaranteed to terminate (a real reducer error still exhausts
  /// the budget and fails the job — chaos only exercises recoverable faults).
  bool spare_last_attempt = true;

  /// Every fault kind at probability `p` each.
  static FaultPlan AllKinds(uint64_t seed, double p,
                            double straggler_seconds = 0.05);
};

/// Deterministic chaos source: the fault drawn for an attempt is a pure
/// function of (plan.seed, stage, partition, attempt), so the same seed
/// replays the same fault schedule regardless of thread interleaving.
class ChaosInjector : public FaultInjector {
 public:
  explicit ChaosInjector(FaultPlan plan) : plan_(plan) {}

  Fault OnReduceAttempt(const std::string& stage, int partition, int attempt,
                        int max_attempts) override;

  /// Total faults injected so far (all kinds); per-kind counts.
  int total_injected() const;
  int injected(FaultKind kind) const {
    return counts_[static_cast<size_t>(kind)].load(std::memory_order_relaxed);
  }

 private:
  FaultPlan plan_;
  mutable std::array<std::atomic<int>, 7> counts_{};
};

// ---------------------------------------------------------------------------
// Process-level faults (the multi-process driver/worker runtime, driver.h).
// Unlike FaultKind — which simulates task misbehavior inside one process —
// these are *real* transport- and process-level failures: a worker is
// SIGKILLed, a response frame is truncated mid-transfer, an RPC message is
// dropped or delayed. The driver's recovery machinery (heartbeat deadlines,
// per-RPC timeouts with capped backoff, requeue on worker loss, in-process
// fallback) must absorb all of them with bit-identical final output.
// ---------------------------------------------------------------------------

enum class ProcessFaultKind : uint8_t {
  kNone = 0,
  kKillAtTaskStart,    // worker SIGKILLs itself upon receiving the task
  kTruncateResponse,   // worker sends a truncated response, then SIGKILLs
  kDropResponse,       // driver discards a completed response (lost message)
  kDelayResponse,      // driver delays handling a response
};

const char* ProcessFaultKindName(ProcessFaultKind kind);

/// Targeted worker-death windows for the worker-loss tests. Each entry fires
/// at most once per process holding the plan; worker-side windows are
/// consumed in the worker's own (forked) copy, so entries are scoped by
/// worker slot to make exactly one worker die.
struct ScriptedProcessKill {
  enum class Window : uint8_t {
    kOnReduceRequest,    // between map-commit and reduce-fetch: die on
                         // receiving the first reduce request of the stage
    kAfterMapResponse,   // idle death right after shipping a map response
    kMidReduceResponse,  // mid-shuffle-transfer: truncate the reduce
                         // response frame, then die
    kHangSilently,       // on the next reduce request: stop heartbeating and
                         // responding without dying (heartbeat-gap window)
  };
  std::string stage = "*";  // exact stage name, or "*" for any stage
  Window window = Window::kOnReduceRequest;
  int worker_index = 0;  // slot in the gang that should die
};

/// Process-level chaos plan. Probabilistic draws are pure functions of
/// (seed, stage, side, message kind, task id, dispatch count) — replayable
/// like FaultPlan, independent of scheduling. Worker-side kinds (kill,
/// truncate) are evaluated in the worker; driver-side kinds (drop, delay) in
/// the driver's receive path.
struct ProcessFaultPlan {
  uint64_t seed = 0;
  double kill_probability = 0;      // kKillAtTaskStart — a real SIGKILL
  double truncate_probability = 0;  // kTruncateResponse — also a real SIGKILL
  double drop_probability = 0;      // kDropResponse
  double delay_probability = 0;     // kDelayResponse
  double delay_seconds = 0.02;

  /// Probabilistic faults only fire while the task's transport dispatch count
  /// is <= this bound. Recovery terminates regardless (the driver degrades to
  /// in-process execution when workers run out) — the bound just keeps chaos
  /// runs from chewing through the whole respawn budget on one task.
  int max_faulted_dispatch = 1;

  /// Targeted one-shot death windows (see ScriptedProcessKill).
  std::vector<ScriptedProcessKill> scripted;

  bool any() const {
    return kill_probability > 0 || truncate_probability > 0 ||
           drop_probability > 0 || delay_probability > 0 || !scripted.empty();
  }

  /// Every probabilistic kind at probability `p` each.
  static ProcessFaultPlan AllKinds(uint64_t seed, double p,
                                   double delay_seconds = 0.005);
};

/// Deterministic chaos draw for one RPC. `worker_side` selects which kinds
/// can fire (kill/truncate in the worker, drop/delay in the driver);
/// `msg_kind` is the request/response message type byte, `dispatch` the
/// task's transport-level send count.
ProcessFaultKind DrawProcessFault(const ProcessFaultPlan& plan,
                                  bool worker_side, const std::string& stage,
                                  uint8_t msg_kind, int task_id, int dispatch);

/// Knobs for the cluster's fault-handling task-execution path. Defaults keep
/// the always-on machinery (exception containment, bounded retries) active and
/// the opt-in machinery (speculation, quarantine) off; see DESIGN.md §5b.7.
struct FaultToleranceOptions {
  /// Attempts per (stage, partition), speculative backups included. A task
  /// whose every attempt fails exhausts the budget and fails the job with a
  /// structured StatusCode::kTaskFailed naming stage/partition/attempts.
  int max_task_attempts = 3;

  /// Launch a backup attempt for a reduce task whose current attempt has run
  /// longer than max(min_straggler_seconds, straggler_factor * median
  /// completed-task wall time); first finisher wins, and both outputs are
  /// byte-compared when both complete (§III-C.1 repeatability as a runtime
  /// check). Off by default: on a saturated local host a "straggler" is just
  /// a bigger partition, and a backup doubles its cost.
  bool speculative_execution = false;
  double straggler_factor = 4.0;
  double min_straggler_seconds = 0.25;

  /// Validate every input row against its dataset's schema during the map
  /// phase; rows that fail are diverted to the `<stage>.quarantine` dataset
  /// instead of poisoning the shuffle (graceful degradation for dirty ad
  /// logs). When more than max_input_error_rate of a stage's input rows are
  /// quarantined, the stage fails with StatusCode::kDataError.
  bool quarantine_inputs = false;
  double max_input_error_rate = 0.01;
};

/// Name of the dataset that receives a stage's quarantined rows.
inline std::string QuarantineDatasetName(const std::string& stage_name) {
  return stage_name + ".quarantine";
}

/// Schema of quarantine datasets. Each quarantined row is stored as
/// [input_index, original cells...]; the tail is deliberately not described by
/// the schema — poison rows are quarantined precisely because they match no
/// schema.
Schema QuarantineSchema();

}  // namespace timr::mr
