#include "mr/driver.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "mr/rpc.h"

namespace timr::mr {

bool ProcessModeSupported() {
#if defined(__SANITIZE_THREAD__)
  return false;  // TSan cannot follow a fork of a multi-threaded process
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

namespace {

using Clock = TaskBackend::Clock;

/// Transport re-dispatches allowed per task before it runs in-process.
/// Requeued tasks wait min(backoff_cap, backoff_base * 2^dispatches).
constexpr int kMaxRpcRetries = 3;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Clock::duration DurationOf(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// What a reader thread hands the transport loop: a response from its worker,
/// already decoded, or the news that the worker's connection is gone.
struct Event {
  enum class Kind : uint8_t { kResponse, kDead };
  Kind kind = Kind::kDead;
  int slot = -1;
  rpc::MsgType type = rpc::MsgType::kHeartbeat;
  bool ids_ok = false;  // the payload starts with [task_id, dispatch]
  uint32_t task_id = 0;
  uint32_t dispatch = 0;
  bool decoded = false;         // the whole payload decoded
  wire::MapResponse map;        // type == kMapResponse
  wire::ReduceResponse reduce;  // type == kReduceResponse
};

/// Decode a worker's response frame on its slot's reader thread, so the
/// transport loop, which every worker waits on, never decodes rows.
Event DecodeResponse(int slot, const rpc::Frame& frame) {
  Event e;
  e.kind = Event::Kind::kResponse;
  e.slot = slot;
  e.type = frame.type;
  e.ids_ok = wire::PeekIds(frame.payload, &e.task_id, &e.dispatch);
  if (frame.type == rpc::MsgType::kMapResponse) {
    e.decoded = wire::DecodeMapResponse(frame.payload, &e.map).ok();
  } else if (frame.type == rpc::MsgType::kReduceResponse) {
    e.decoded = wire::DecodeReduceResponse(frame.payload, &e.reduce).ok();
  }
  return e;
}

struct WorkerSlot {
  pid_t pid = -1;
  int fd = -1;         // driver-side end of the socketpair
  bool alive = false;  // transport's view; set false exactly once per spawn
  int inflight = -1;   // shipment currently dispatched here, -1 = idle
  std::atomic<int64_t> last_beat_ns{0};  // any frame counts as liveness
  std::thread reader;
};

/// One unit of transport work: a map task or one reduce attempt. Shipment
/// ids are unique for the backend's lifetime, across both phases.
struct Shipment {
  enum class St : uint8_t { kPending, kInflight, kDone };
  St st = St::kPending;
  bool map = true;
  int task = 0;                  // morsel index / physical partition
  ReduceAttemptContext reduce;   // reduce shipments only
  int worker = -1;
  Clock::time_point eligible{};  // backoff gate for the next dispatch
  Clock::time_point deadline{};  // RPC deadline of the current dispatch
};

/// The transport loop is single-threaded on the caller: only reader threads
/// run concurrently, and they touch nothing but the event queue, their slot's
/// heartbeat stamp and the response byte count.
class WorkerBackend final : public TaskBackend {
 public:
  WorkerBackend(const StageInputs& in, const ShuffleSegment& segment,
                const ProcessOptions& opts, StageStats* stats)
      : in_(in), segment_(segment), opts_(opts), stats_(stats) {}
  ~WorkerBackend() override { ShutdownAll(); }

  int SpawnGang(int n);

  size_t parallelism() const override { return workers_.size(); }

  void RunMaps(const std::vector<MapTaskSpec>& specs,
               std::vector<MapTaskResult>* results,
               std::vector<Status>* statuses) override;
  void StartReduce(const ReduceAttemptContext& ctx) override;
  void Wait(Clock::time_point deadline,
            std::vector<AttemptReport>* reports) override;

 private:
  // ---- gang management ----
  bool Spawn(int slot);
  bool TryRespawn();
  void OnWorkerLost(int slot);
  /// Make a worker exit and wake its reader: the shutdown frame (when
  /// `clean`), shutdown(fd), SIGKILL.
  void SignalWorker(int slot, bool clean);
  /// Join a signalled worker's reader, close its fd and reap the process.
  void ReapWorker(int slot);
  /// Signal every worker, then reap them all: their exits overlap.
  void ShutdownAll();
  int AliveCount() const;
  int FindIdleWorker() const;

  // ---- transport ----
  void BeginPhase(rpc::MsgType resp_type);
  void Enqueue(Shipment s);
  void Requeue(int id);
  bool Dispatch(int id, int worker, Clock::time_point now);
  /// Take a decoded response as the shipment's result; false = garbage, or a
  /// map result that fails CheckMapResult.
  bool Complete(int id, Event* e);
  void RunInProcess(int id);
  /// One round of the loop: dispatch, sleep until an event or `deadline`,
  /// handle events, sweep heartbeat and RPC deadlines.
  void Pump(Clock::time_point deadline);

  const StageInputs& in_;
  const ShuffleSegment& segment_;
  const ProcessOptions& opts_;
  StageStats* stats_;

  rpc::MsgType resp_type_ = rpc::MsgType::kMapResponse;  // current phase
  std::vector<Shipment> ships_;
  std::deque<int> ready_;
  int outstanding_ = 0;  // shipments not yet done
  // Per task of the current phase: the shipment behind each dispatch. Its
  // size is the task's dispatch count, which keys process chaos.
  std::vector<std::vector<int>> dispatches_;

  const std::vector<MapTaskSpec>* map_specs_ = nullptr;
  std::vector<MapTaskResult>* map_results_ = nullptr;
  std::vector<Status>* map_statuses_ = nullptr;
  std::vector<AttemptReport> reports_;

  // unique_ptr: WorkerSlot holds an atomic and a thread (neither movable),
  // and reader threads keep raw pointers to their slot.
  std::vector<std::unique_ptr<WorkerSlot>> workers_;
  int restarts_used_ = 0;

  std::mutex ev_mu_;
  std::condition_variable ev_cv_;
  std::deque<Event> events_;
  std::atomic<uint64_t> response_bytes_{0};  // payload bytes readers received
};

// ------------------------------------------------------- gang management --

bool WorkerBackend::Spawn(int slot) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Worker process. Drop every inherited driver-side fd: keeping them open
    // would hold other workers' connections alive past their death.
    ::close(sv[0]);
    for (const auto& w : workers_) {
      if (w != nullptr && w->fd >= 0) ::close(w->fd);
    }
    WorkerEnv env;
    env.worker_index = slot;
    env.inputs = &in_;
    env.segment_fd = segment_.fd();
    env.chaos = opts_.chaos;
    env.heartbeat_interval_seconds = opts_.heartbeat_interval_seconds;
    WorkerMain(sv[1], env);  // [[noreturn]]
  }
  // Driver side. A send deadline on the socket keeps a full buffer to a hung
  // worker from blocking the transport forever: the send fails and the
  // worker is declared lost.
  ::close(sv[1]);
  timeval tv;
  tv.tv_sec = static_cast<time_t>(opts_.rpc_timeout_seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (opts_.rpc_timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  WorkerSlot* w = workers_[static_cast<size_t>(slot)].get();
  w->pid = pid;
  w->fd = sv[0];
  w->alive = true;
  w->inflight = -1;
  w->last_beat_ns.store(NowNs(), std::memory_order_relaxed);
  const int fd = w->fd;
  w->reader = std::thread([this, slot, fd, w] {
    for (;;) {
      rpc::Frame frame;
      if (!rpc::RecvFrame(fd, &frame).ok()) {
        Event dead;  // Kind::kDead
        dead.slot = slot;
        std::lock_guard<std::mutex> lock(ev_mu_);
        events_.push_back(std::move(dead));
        ev_cv_.notify_all();
        return;
      }
      w->last_beat_ns.store(NowNs(), std::memory_order_relaxed);
      response_bytes_.fetch_add(frame.payload.size(),
                                std::memory_order_relaxed);
      if (frame.type == rpc::MsgType::kHeartbeat ||
          frame.type == rpc::MsgType::kHello) {
        continue;
      }
      Event e = DecodeResponse(slot, frame);
      std::lock_guard<std::mutex> lock(ev_mu_);
      events_.push_back(std::move(e));
      ev_cv_.notify_all();
    }
  });
  return true;
}

int WorkerBackend::SpawnGang(int n) {
  workers_.reserve(static_cast<size_t>(std::max(0, n)));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<WorkerSlot>());
  }
  int spawned = 0;
  for (int i = 0; i < n; ++i) {
    if (Spawn(i)) ++spawned;
  }
  return spawned;
}

bool WorkerBackend::TryRespawn() {
  if (restarts_used_ >= opts_.max_worker_restarts) return false;
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->alive) continue;
    SignalWorker(static_cast<int>(i), /*clean=*/false);  // reap old corpse
    ReapWorker(static_cast<int>(i));
    if (!Spawn(static_cast<int>(i))) return false;
    ++restarts_used_;
    stats_->worker_restarts++;
    return true;
  }
  return false;
}

void WorkerBackend::OnWorkerLost(int slot) {
  WorkerSlot& w = *workers_[static_cast<size_t>(slot)];
  if (!w.alive) return;  // a send failure and the reader's EOF both report
  w.alive = false;
  const int id = w.inflight;
  w.inflight = -1;
  if (id >= 0 && ships_[id].st == Shipment::St::kInflight &&
      ships_[id].worker == slot) {
    Requeue(id);
  }
  TryRespawn();
}

void WorkerBackend::SignalWorker(int slot, bool clean) {
  WorkerSlot& w = *workers_[static_cast<size_t>(slot)];
  if (w.pid < 0) return;
  if (clean && w.fd >= 0) {
    rpc::SendFrame(w.fd, rpc::MsgType::kShutdown, {});  // best effort
  }
  if (w.fd >= 0) ::shutdown(w.fd, SHUT_RDWR);  // wake a blocked reader
  // SIGKILL unconditionally: a clean worker already _exit(0)ed on the
  // shutdown frame or the closed socket; a hung one (chaos) never will.
  ::kill(w.pid, SIGKILL);
}

void WorkerBackend::ReapWorker(int slot) {
  WorkerSlot& w = *workers_[static_cast<size_t>(slot)];
  if (w.pid < 0) return;
  if (w.reader.joinable()) w.reader.join();
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  int wstatus = 0;
  ::waitpid(w.pid, &wstatus, 0);
  w.pid = -1;
  w.alive = false;
  w.inflight = -1;
}

void WorkerBackend::ShutdownAll() {
  for (size_t i = 0; i < workers_.size(); ++i) {
    SignalWorker(static_cast<int>(i), /*clean=*/true);
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    ReapWorker(static_cast<int>(i));
  }
  stats_->rpc_response_bytes += response_bytes_.load(std::memory_order_relaxed);
}

int WorkerBackend::AliveCount() const {
  int n = 0;
  for (const auto& w : workers_) n += w->alive ? 1 : 0;
  return n;
}

int WorkerBackend::FindIdleWorker() const {
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->alive && workers_[i]->inflight < 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// ------------------------------------------------------------- transport --

void WorkerBackend::BeginPhase(rpc::MsgType resp_type) {
  resp_type_ = resp_type;
  dispatches_.clear();
}

void WorkerBackend::Enqueue(Shipment s) {
  if (static_cast<size_t>(s.task) >= dispatches_.size()) {
    dispatches_.resize(static_cast<size_t>(s.task) + 1);
  }
  s.eligible = Clock::now();
  ships_.push_back(std::move(s));
  ready_.push_back(static_cast<int>(ships_.size()) - 1);
  ++outstanding_;
}

void WorkerBackend::Requeue(int id) {
  Shipment& s = ships_[id];
  stats_->rpc_retries++;
  s.st = Shipment::St::kPending;
  s.worker = -1;
  // Capped exponential backoff over the task's dispatch count.
  const int sent = static_cast<int>(dispatches_[s.task].size());
  const double backoff =
      std::min(opts_.backoff_cap_seconds,
               opts_.backoff_base_seconds *
                   static_cast<double>(uint64_t{1} << std::min(sent, 30)));
  s.eligible = Clock::now() + DurationOf(backoff);
  ready_.push_back(id);
}

bool WorkerBackend::Dispatch(int id, int worker, Clock::time_point now) {
  Shipment& s = ships_[id];
  std::vector<int>& sent = dispatches_[s.task];
  const auto dispatch = static_cast<uint32_t>(sent.size());
  std::string payload;
  if (s.map) {
    MapTaskSpec spec = (*map_specs_)[s.task];
    spec.dispatch = dispatch;
    wire::EncodeMapRequest(spec, &payload);
  } else {
    const ReduceAttemptContext& ctx = s.reduce;
    wire::ReduceRequest req;
    req.task_id = static_cast<uint32_t>(s.task);
    req.dispatch = dispatch;
    req.attempt = static_cast<uint32_t>(ctx.attempt);
    req.base_partition = static_cast<uint32_t>(ctx.base_partition);
    req.sort_output = ctx.sort_output;
    req.fault_kind = ctx.fault.kind;
    req.straggler_seconds = ctx.fault.straggler_seconds;
    req.inputs = *ctx.slices;
    wire::EncodeReduceRequest(req, &payload);
  }
  sent.push_back(id);
  WorkerSlot& w = *workers_[static_cast<size_t>(worker)];
  const rpc::MsgType type =
      s.map ? rpc::MsgType::kMapRequest : rpc::MsgType::kReduceRequest;
  if (!rpc::SendFrame(w.fd, type, payload).ok()) return false;
  stats_->rpc_request_bytes += payload.size();
  w.inflight = id;
  s.st = Shipment::St::kInflight;
  s.worker = worker;
  s.deadline = now + DurationOf(opts_.rpc_timeout_seconds);
  return true;
}

bool WorkerBackend::Complete(int id, Event* e) {
  if (!e->decoded) return false;
  Shipment& s = ships_[id];
  if (s.map) {
    wire::MapResponse& resp = e->map;
    // Refs index into the driver's own datasets: one that strays outside its
    // task's rows is treated like a malformed frame, never dereferenced.
    if (resp.status.ok() &&
        !CheckMapResult((*map_specs_)[s.task], resp.result).ok()) {
      return false;
    }
    (*map_statuses_)[s.task] = std::move(resp.status);
    (*map_results_)[s.task] = std::move(resp.result);
  } else {
    wire::ReduceResponse& resp = e->reduce;
    AttemptReport report;
    report.task = s.task;
    report.attempt = s.reduce.attempt;
    report.status = std::move(resp.status);
    report.rows = std::move(resp.rows);
    report.cpu_seconds = resp.cpu_seconds;
    reports_.push_back(std::move(report));
  }
  s.st = Shipment::St::kDone;
  s.worker = -1;
  --outstanding_;
  return true;
}

void WorkerBackend::RunInProcess(int id) {
  Shipment& s = ships_[id];
  if (s.map) {
    (*map_statuses_)[s.task] =
        RunMapTask(in_, (*map_specs_)[s.task], &(*map_results_)[s.task]);
  } else {
    reports_.push_back(RunReduceAttemptOnSegment(segment_.bytes(), s.reduce));
  }
  s.st = Shipment::St::kDone;
  --outstanding_;
}

void WorkerBackend::Pump(Clock::time_point deadline) {
  Clock::time_point now = Clock::now();

  // Assign eligible shipments to idle workers; run transport-exhausted ones
  // in-process.
  for (size_t scan = 0; scan < ready_.size();) {
    const int id = ready_[scan];
    Shipment& s = ships_[id];
    if (s.st != Shipment::St::kPending) {
      // Stale duplicate entry: the shipment advanced through another path
      // while queued here — e.g. it was requeued off a presumed-lost worker
      // whose response then arrived anyway.
      ready_.erase(ready_.begin() + static_cast<long>(scan));
      continue;
    }
    if (static_cast<int>(dispatches_[s.task].size()) > kMaxRpcRetries) {
      ready_.erase(ready_.begin() + static_cast<long>(scan));
      RunInProcess(id);
      continue;
    }
    if (s.eligible > now) {
      ++scan;
      continue;
    }
    const int w = FindIdleWorker();
    if (w < 0) break;  // every live worker is busy (or none is left)
    if (!Dispatch(id, w, now)) {
      OnWorkerLost(w);
      continue;  // id is still at ready_[scan]; try the next worker
    }
    ready_.erase(ready_.begin() + static_cast<long>(scan));
  }

  // Graceful degradation: every worker lost and the respawn budget spent —
  // run what remains in-process and keep going.
  if (AliveCount() == 0 && !TryRespawn()) {
    std::deque<int> rest;
    rest.swap(ready_);
    for (int id : rest) {
      if (ships_[id].st == Shipment::St::kPending) RunInProcess(id);
    }
    return;
  }
  if (outstanding_ == 0) return;

  // Sleep until something can happen: an event, an RPC or heartbeat
  // deadline, a backoff expiry, or the caller's deadline.
  Clock::time_point wake =
      std::min(deadline, now + std::chrono::milliseconds(100));
  const Clock::duration hb_deadline =
      DurationOf(opts_.heartbeat_deadline_seconds);
  for (const auto& wp : workers_) {
    const WorkerSlot& w = *wp;
    if (!w.alive) continue;
    const auto beat = Clock::time_point(std::chrono::nanoseconds(
        w.last_beat_ns.load(std::memory_order_relaxed)));
    wake = std::min(wake, beat + hb_deadline);
    if (w.inflight >= 0) wake = std::min(wake, ships_[w.inflight].deadline);
  }
  for (int id : ready_) wake = std::min(wake, ships_[id].eligible);
  std::deque<Event> evs;
  {
    std::unique_lock<std::mutex> lock(ev_mu_);
    ev_cv_.wait_until(lock, wake, [&] { return !events_.empty(); });
    evs.swap(events_);
  }

  for (Event& e : evs) {
    if (e.kind == Event::Kind::kDead) {
      OnWorkerLost(e.slot);
      continue;
    }
    WorkerSlot& w = *workers_[static_cast<size_t>(e.slot)];
    if (e.type != resp_type_) {
      // A late answer from a finished phase: the worker is idle again.
      if (w.inflight >= 0 && ships_[w.inflight].st == Shipment::St::kDone) {
        w.inflight = -1;
      }
      continue;
    }
    const uint32_t tid = e.task_id;
    const uint32_t disp = e.dispatch;
    if (!e.ids_ok || tid >= dispatches_.size() ||
        disp >= dispatches_[tid].size()) {
      // Garbage from this worker: treat the process as compromised.
      if (w.alive) {
        ::kill(w.pid, SIGKILL);
        OnWorkerLost(e.slot);
      }
      continue;
    }
    // Driver-side chaos: lose or delay the response. A dropped response
    // leaves the worker marked busy; the RPC deadline below detects it,
    // kills the worker, and requeues the shipment — the full recovery path.
    const ProcessFaultKind pf = DrawProcessFault(
        opts_.chaos, /*worker_side=*/false, in_.stage->name,
        static_cast<uint8_t>(resp_type_), static_cast<int>(tid),
        static_cast<int>(disp));
    if (pf == ProcessFaultKind::kDropResponse) continue;
    if (pf == ProcessFaultKind::kDelayResponse) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts_.chaos.delay_seconds));
    }
    // The first response for a shipment is its result; a later one (the
    // same attempt, re-dispatched by the transport) is dropped.
    const int id = dispatches_[tid][disp];
    if (ships_[id].st != Shipment::St::kDone && !Complete(id, &e)) {
      // Undecodable payload: kill the worker; its loss requeues the task.
      if (w.alive) {
        ::kill(w.pid, SIGKILL);
        OnWorkerLost(e.slot);
      }
      continue;
    }
    if (w.alive && w.inflight == id) w.inflight = -1;
  }

  // Deadline sweeps: a worker that stopped heartbeating, or that sat on an
  // RPC past its deadline, is presumed lost — SIGKILL it (it may be hung,
  // not dead) and requeue its shipment.
  now = Clock::now();
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerSlot& w = *workers_[i];
    if (!w.alive) continue;
    const auto beat = Clock::time_point(std::chrono::nanoseconds(
        w.last_beat_ns.load(std::memory_order_relaxed)));
    const bool hb_lost = now - beat > hb_deadline;
    const bool rpc_lost = w.inflight >= 0 && now > ships_[w.inflight].deadline;
    if (!hb_lost && !rpc_lost) continue;
    if (hb_lost) stats_->heartbeat_timeouts++;
    ::kill(w.pid, SIGKILL);
    OnWorkerLost(static_cast<int>(i));
  }
}

void WorkerBackend::RunMaps(const std::vector<MapTaskSpec>& specs,
                            std::vector<MapTaskResult>* results,
                            std::vector<Status>* statuses) {
  map_specs_ = &specs;
  map_results_ = results;
  map_statuses_ = statuses;
  BeginPhase(rpc::MsgType::kMapResponse);
  for (size_t t = 0; t < specs.size(); ++t) {
    Shipment s;
    s.task = static_cast<int>(t);
    Enqueue(std::move(s));
  }
  while (outstanding_ > 0) Pump(Clock::time_point::max());
  BeginPhase(rpc::MsgType::kReduceResponse);
}

void WorkerBackend::StartReduce(const ReduceAttemptContext& ctx) {
  Shipment s;
  s.map = false;
  s.task = ctx.physical_partition;
  s.reduce = ctx;
  Enqueue(std::move(s));
}

void WorkerBackend::Wait(Clock::time_point deadline,
                         std::vector<AttemptReport>* reports) {
  while (reports_.empty() && outstanding_ > 0 && Clock::now() < deadline) {
    Pump(deadline);
  }
  for (AttemptReport& r : reports_) reports->push_back(std::move(r));
  reports_.clear();
}

}  // namespace

std::unique_ptr<TaskBackend> SpawnWorkerBackend(const StageInputs& in,
                                                const ShuffleSegment& segment,
                                                const ProcessOptions& options,
                                                StageStats* stats) {
  if (!ProcessModeSupported()) return nullptr;
  auto backend = std::make_unique<WorkerBackend>(in, segment, options, stats);
  stats->workers = backend->SpawnGang(options.workers);
  if (stats->workers == 0) return nullptr;
  return backend;
}

}  // namespace timr::mr
