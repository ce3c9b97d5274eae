#include "mr/worker.h"

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/hash.h"
#include "mr/rpc.h"
#include "mr/runtime_util.h"

namespace timr::mr {

// ------------------------------------------------- shared map task body --

Status RunMapTask(const StageInputs& in, const MapTaskSpec& spec,
                  MapTaskResult* out, const std::atomic<bool>* abort) {
  const MRStage& stage = *in.stage;
  const auto input = static_cast<size_t>(spec.input_index);
  const Schema& input_schema = in.schemas[input];
  const std::vector<Row>& src_rows =
      in.datasets[input]->partition(spec.src_partition);
  out->refs.assign(static_cast<size_t>(spec.parts), {});
  std::unordered_map<uint64_t, uint32_t> sketch;
  std::vector<int> targets;
  try {
    for (uint64_t r = spec.begin; r < spec.end; ++r) {
      if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
        return Status::OK();
      }
      const Row& row = src_rows[r];
      ++out->rows_in;
      if (spec.quarantine) {
        Status vs = ValidateRowSchema(input_schema, row);
        if (!vs.ok()) {
          if (out->first_bad.empty()) out->first_bad = vs.message();
          Row q;
          q.reserve(row.size() + 1);
          q.push_back(Value(static_cast<int64_t>(spec.input_index)));
          q.insert(q.end(), row.begin(), row.end());
          out->quarantined.push_back(std::move(q));
          continue;
        }
      }
      targets.clear();
      if (spec.skew_enabled) {
        const uint64_t h = stage.key_hash_fn(spec.input_index, row);
        targets.push_back(
            static_cast<int>(h % static_cast<uint64_t>(spec.parts)));
        // Sample by a hash of the absolute source row index: deterministic
        // for any thread count and morsel layout, free of aliasing against
        // periodically interleaved keys.
        if ((HashMix(r) & spec.sample_mask) == 0) sketch[h] += 1;
      } else {
        stage.partition_fn(spec.input_index, row, spec.parts, &targets);
      }
      for (int t : targets) {
        if (t < 0 || t >= spec.parts) {
          return Status::ExecutionError("partitioner produced target " +
                                        std::to_string(t) + " out of range");
        }
      }
      out->rows_shuffled += targets.size();
      // Never throws: a malformed Time cell is the shuffle's to report.
      const int64_t time =
          !row.empty() && row[0].is_int64() ? row[0].AsInt64() : 0;
      for (int t : targets) {
        out->refs[static_cast<size_t>(t)].push_back(RowRef{time, r});
      }
    }
  } catch (const std::exception& e) {
    // Partitioners are framework-supplied today, but contain UDO-shaped code
    // the same way reducers do: an escaped exception becomes a Status.
    return Status::ExecutionError("stage " + stage.name +
                                  ": map phase threw: " + e.what());
  }
  out->sketch.assign(sketch.begin(), sketch.end());
  return Status::OK();
}

Status CheckMapResult(const MapTaskSpec& spec, const MapTaskResult& result) {
  if (result.refs.size() != static_cast<size_t>(spec.parts)) {
    return Status::RpcError("map result has " +
                            std::to_string(result.refs.size()) +
                            " buckets for " + std::to_string(spec.parts) +
                            " partitions");
  }
  for (const std::vector<RowRef>& bucket : result.refs) {
    for (const RowRef& ref : bucket) {
      if (ref.row < spec.begin || ref.row >= spec.end) {
        return Status::RpcError("map result references row " +
                                std::to_string(ref.row) + " outside [" +
                                std::to_string(spec.begin) + ", " +
                                std::to_string(spec.end) + ")");
      }
    }
  }
  return Status::OK();
}

// -------------------------------------------- shared reduce attempt body --

AttemptReport RunReduceAttempt(const ReduceAttemptContext& ctx) {
  const MRStage& stage = *ctx.stage;
  const Fault& fault = ctx.fault;
  const int p = ctx.physical_partition;
  AttemptReport report;
  report.task = p;
  report.attempt = ctx.attempt;
  const double cpu0 = ThreadCpuSeconds();
  std::vector<Row>* out_rows = &report.rows;
  Status st;
  // Task boundary: nothing a reducer does — throw, error, stall, emit and
  // lose output — escapes this block as anything but a Status.
  try {
    switch (fault.kind) {
      case FaultKind::kTransientError:
        st = Status::ExecutionError("injected transient error");
        break;
      case FaultKind::kCrash:
        throw std::runtime_error("injected task crash");
      case FaultKind::kCorruptInput: {
        // A corrupted read of one shuffle row for this attempt only: the
        // schema/decode check guarding reducer input (the same check the
        // quarantine uses) rejects it and the attempt fails; the retry
        // re-reads the intact shuffle data.
        Status check;
        for (size_t i = 0; i < ctx.buckets->size() && check.ok(); ++i) {
          if ((*ctx.buckets)[i].empty()) continue;
          Row corrupt = (*ctx.buckets)[i].front();
          corrupt.push_back(Value(int64_t{0}));  // arity mismatch
          check = ValidateRowSchema((*ctx.input_schemas)[i], corrupt);
        }
        if (check.ok()) {
          // Nothing to corrupt (empty partition): attempt runs clean.
          st = stage.reducer(ctx.base_partition, *ctx.buckets, out_rows);
        } else {
          st = Status::DataError("injected corrupt input read: " +
                                 check.message());
        }
        break;
      }
      default: {
        if (fault.kind == FaultKind::kStraggler) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(fault.straggler_seconds));
        }
        st = stage.reducer(ctx.base_partition, *ctx.buckets, out_rows);
        if (st.ok() && fault.kind == FaultKind::kPartialOutput) {
          const size_t emitted = out_rows->size() / 2;
          st = Status::ExecutionError(
              "injected abort mid-output after emitting " +
              std::to_string(emitted) + " of " +
              std::to_string(out_rows->size()) + " rows");
        } else if (st.ok() && fault.kind == FaultKind::kDiscardOutput) {
          st = Status::ExecutionError("injected output loss after completion");
        }
        break;
      }
    }
  } catch (const std::exception& e) {
    st = Status::ExecutionError(TaskLabel(stage.name, p) + " attempt " +
                                std::to_string(ctx.attempt) +
                                ": reducer threw: " + e.what());
  } catch (...) {
    st = Status::ExecutionError(TaskLabel(stage.name, p) + " attempt " +
                                std::to_string(ctx.attempt) +
                                ": reducer threw a non-standard exception");
  }
  if (!st.ok()) out_rows->clear();  // per-attempt output discard
  if (st.ok() && ctx.sort_output) {
    // Split-partition outputs (base remainder and every virtual sibling) are
    // put into canonical RowTimeLess order *before* acceptance, so the
    // driver's coalesce is a pure k-way merge and duplicate-output
    // byte-compares see order-independent outputs.
    std::sort(out_rows->begin(), out_rows->end(), RowTimeLess);
  }
  report.status = std::move(st);
  report.cpu_seconds = ThreadCpuSeconds() - cpu0;
  return report;
}

AttemptReport RunReduceAttemptOnSegment(std::string_view segment,
                                        const ReduceAttemptContext& ctx) {
  const std::vector<SegmentSlice>& slices = *ctx.slices;
  std::vector<std::vector<Row>> buckets(slices.size());
  Status st;
  if (slices.size() != ctx.input_schemas->size()) {
    st = Status::RpcError("reduce request names " +
                          std::to_string(slices.size()) + " buckets for " +
                          std::to_string(ctx.input_schemas->size()) +
                          " inputs");
  }
  for (size_t i = 0; i < slices.size() && st.ok(); ++i) {
    st = DecodeBucket(segment, slices[i], &buckets[i]);
  }
  if (!st.ok()) {
    AttemptReport report;
    report.task = ctx.physical_partition;
    report.attempt = ctx.attempt;
    report.status = Status::RpcError(TaskLabel(ctx.stage->name,
                                               ctx.physical_partition) +
                                     ": " + st.message());
    return report;
  }
  ReduceAttemptContext on_rows = ctx;
  on_rows.buckets = &buckets;
  return RunReduceAttempt(on_rows);
}

// ------------------------------------------------- request/response wire --

namespace wire {

namespace {

bool DecodeStatus(rpc::WireReader* r, Status* st) {
  uint8_t code = 0;
  std::string msg;
  if (!r->U8(&code) || !r->Str(&msg)) return false;
  if (code > static_cast<uint8_t>(StatusCode::kRpcError)) return false;
  *st = Status::FromCode(static_cast<StatusCode>(code), std::move(msg));
  return true;
}

}  // namespace

void EncodeStatus(const Status& st, std::string* out) {
  rpc::WireWriter w;
  w.U8(static_cast<uint8_t>(st.code()));
  w.Str(st.message());
  out->append(w.buf());
}

void EncodeMapRequest(const MapTaskSpec& spec, std::string* payload) {
  rpc::WireWriter w;
  w.U32(spec.task_id);
  w.U32(spec.dispatch);
  w.U32(static_cast<uint32_t>(spec.input_index));
  w.U64(spec.src_partition);
  w.U64(spec.begin);
  w.U64(spec.end);
  w.U32(static_cast<uint32_t>(spec.parts));
  uint8_t flags = 0;
  if (spec.quarantine) flags |= 1;
  if (spec.skew_enabled) flags |= 2;
  w.U8(flags);
  w.U64(spec.sample_mask);
  *payload = w.Take();
}

Status DecodeMapRequest(std::string_view payload, MapTaskSpec* spec) {
  rpc::WireReader r(payload);
  uint32_t input_index = 0;
  uint32_t parts = 0;
  uint8_t flags = 0;
  r.U32(&spec->task_id);
  r.U32(&spec->dispatch);
  r.U32(&input_index);
  r.U64(&spec->src_partition);
  r.U64(&spec->begin);
  r.U64(&spec->end);
  r.U32(&parts);
  r.U8(&flags);
  r.U64(&spec->sample_mask);
  TIMR_RETURN_NOT_OK(r.Finish("map request"));
  spec->input_index = static_cast<int>(input_index);
  spec->parts = static_cast<int>(parts);
  spec->quarantine = (flags & 1) != 0;
  spec->skew_enabled = (flags & 2) != 0;
  return Status::OK();
}

void EncodeMapResponse(const MapResponse& resp, std::string* payload) {
  rpc::WireWriter w;
  w.U32(resp.task_id);
  w.U32(resp.dispatch);
  w.U8(resp.status.ok() ? 1 : 0);
  if (!resp.status.ok()) {
    EncodeStatus(resp.status, payload);
    std::string head = w.Take();
    payload->insert(0, head);
    return;
  }
  const MapTaskResult& res = resp.result;
  w.U64(res.rows_in);
  w.U64(res.rows_shuffled);
  w.Str(res.first_bad);
  w.U32(static_cast<uint32_t>(res.refs.size()));
  for (const std::vector<RowRef>& bucket : res.refs) {
    w.U64(bucket.size());
    for (const RowRef& ref : bucket) {
      w.U64(static_cast<uint64_t>(ref.time));
      w.U64(ref.row);
    }
  }
  w.Rows(res.quarantined);
  w.U64(res.sketch.size());
  for (const auto& [h, c] : res.sketch) {
    w.U64(h);
    w.U32(c);
  }
  *payload = w.Take();
}

Status DecodeMapResponse(std::string_view payload, MapResponse* resp) {
  rpc::WireReader r(payload);
  uint8_t ok = 0;
  if (!r.U32(&resp->task_id) || !r.U32(&resp->dispatch) || !r.U8(&ok)) {
    return Status::RpcError("malformed map response payload");
  }
  if (ok == 0) {
    if (!DecodeStatus(&r, &resp->status) || !resp->status.ok()) {
      // Either a parse failure or (expected) the shipped task error.
      if (!r.ok()) return Status::RpcError("malformed map response payload");
      return r.Finish("map response");
    }
    return Status::RpcError("map response marked failed but carries OK");
  }
  MapTaskResult& res = resp->result;
  uint32_t nbuckets = 0;
  if (!r.U64(&res.rows_in) || !r.U64(&res.rows_shuffled) ||
      !r.Str(&res.first_bad) || !r.U32(&nbuckets) ||
      nbuckets > (1u << 24)) {
    return Status::RpcError("malformed map response payload");
  }
  res.refs.resize(nbuckets);
  for (std::vector<RowRef>& bucket : res.refs) {
    uint64_t nrefs = 0;
    // A ref is 16 bytes: a count beyond what is left cannot be genuine.
    if (!r.U64(&nrefs) || nrefs > r.remaining() / 16) {
      return Status::RpcError("malformed map response payload");
    }
    bucket.resize(nrefs);
    for (RowRef& ref : bucket) {
      uint64_t time = 0;
      r.U64(&time);
      r.U64(&ref.row);
      ref.time = static_cast<int64_t>(time);
    }
  }
  if (!r.Rows(&res.quarantined)) {
    return Status::RpcError("malformed map response payload");
  }
  uint64_t nsketch = 0;
  if (!r.U64(&nsketch) || nsketch > (uint64_t{1} << 32)) {
    return Status::RpcError("malformed map response payload");
  }
  res.sketch.reserve(
      std::min<uint64_t>(nsketch, payload.size() / 12 + 1));
  for (uint64_t i = 0; i < nsketch; ++i) {
    uint64_t h = 0;
    uint32_t c = 0;
    if (!r.U64(&h) || !r.U32(&c)) {
      return Status::RpcError("malformed map response payload");
    }
    res.sketch.emplace_back(h, c);
  }
  resp->status = Status::OK();
  return r.Finish("map response");
}

void EncodeReduceRequest(const ReduceRequest& req, std::string* payload) {
  rpc::WireWriter w;
  w.U32(req.task_id);
  w.U32(req.dispatch);
  w.U32(req.attempt);
  w.U32(req.base_partition);
  w.U8(req.sort_output ? 1 : 0);
  w.U8(static_cast<uint8_t>(req.fault_kind));
  w.F64(req.straggler_seconds);
  w.U32(static_cast<uint32_t>(req.inputs.size()));
  for (const SegmentSlice& slice : req.inputs) {
    w.U64(slice.offset);
    w.U64(slice.length);
  }
  *payload = w.Take();
}

Status DecodeReduceRequest(std::string_view payload, ReduceRequest* req) {
  rpc::WireReader r(payload);
  uint8_t sort_output = 0;
  uint8_t fault_kind = 0;
  uint32_t ninputs = 0;
  // A slice is 16 bytes: a count beyond what is left cannot be genuine.
  if (!r.U32(&req->task_id) || !r.U32(&req->dispatch) ||
      !r.U32(&req->attempt) || !r.U32(&req->base_partition) ||
      !r.U8(&sort_output) || !r.U8(&fault_kind) ||
      !r.F64(&req->straggler_seconds) || !r.U32(&ninputs) ||
      ninputs > r.remaining() / 16 ||
      fault_kind > static_cast<uint8_t>(FaultKind::kCorruptInput)) {
    return Status::RpcError("malformed reduce request payload");
  }
  req->sort_output = sort_output != 0;
  req->fault_kind = static_cast<FaultKind>(fault_kind);
  req->inputs.resize(ninputs);
  for (SegmentSlice& slice : req->inputs) {
    r.U64(&slice.offset);
    r.U64(&slice.length);
  }
  return r.Finish("reduce request");
}

void EncodeReduceResponse(const ReduceResponse& resp, std::string* payload) {
  rpc::WireWriter w;
  w.U32(resp.task_id);
  w.U32(resp.dispatch);
  w.F64(resp.cpu_seconds);
  w.U8(resp.status.ok() ? 1 : 0);
  if (resp.status.ok()) {
    w.Rows(resp.rows);
  } else {
    std::string st;
    EncodeStatus(resp.status, &st);
    w.Str(st);  // nested, but keeps the ok/error layouts self-delimiting
  }
  *payload = w.Take();
}

Status DecodeReduceResponse(std::string_view payload, ReduceResponse* resp) {
  rpc::WireReader r(payload);
  uint8_t ok = 0;
  if (!r.U32(&resp->task_id) || !r.U32(&resp->dispatch) ||
      !r.F64(&resp->cpu_seconds) || !r.U8(&ok)) {
    return Status::RpcError("malformed reduce response payload");
  }
  if (ok != 0) {
    if (!r.Rows(&resp->rows)) {
      return Status::RpcError("malformed reduce response payload");
    }
    resp->status = Status::OK();
    return r.Finish("reduce response");
  }
  std::string nested;
  if (!r.Str(&nested)) {
    return Status::RpcError("malformed reduce response payload");
  }
  rpc::WireReader nr(nested);
  if (!DecodeStatus(&nr, &resp->status) || resp->status.ok()) {
    return Status::RpcError("malformed reduce response payload");
  }
  return r.Finish("reduce response");
}

bool PeekIds(std::string_view payload, uint32_t* task_id, uint32_t* dispatch) {
  rpc::WireReader r(payload);
  return r.U32(task_id) && r.U32(dispatch);
}

}  // namespace wire

// ------------------------------------------------------- worker process --

namespace {

[[noreturn]] void DieBySigkill() {
  ::kill(::getpid(), SIGKILL);
  for (;;) ::pause();  // unreachable; SIGKILL cannot be blocked
}

/// Raw send of the first `cut` bytes of an encoded frame, then SIGKILL: the
/// receiver observes a payload truncated mid-transfer. The send mutex is
/// deliberately left held — the process is about to die.
[[noreturn]] void SendTruncatedAndDie(int fd, rpc::MsgType type,
                                      const std::string& payload,
                                      std::mutex* send_mu) {
  std::string frame;
  rpc::EncodeFrame(type, payload, &frame);
  const size_t cut = payload.empty() ? rpc::kFrameHeaderBytes / 2
                                     : rpc::kFrameHeaderBytes + payload.size() / 2;
  send_mu->lock();
  size_t off = 0;
  while (off < cut) {
    const ssize_t w = ::send(fd, frame.data() + off, cut - off, MSG_NOSIGNAL);
    if (w <= 0) break;
    off += static_cast<size_t>(w);
  }
  DieBySigkill();
}

class ScriptedKillState {
 public:
  explicit ScriptedKillState(const WorkerEnv& env) : env_(env) {
    fired_.assign(env.chaos.scripted.size(), 0);
  }

  /// True exactly once for the first not-yet-fired entry matching this
  /// worker, stage, and window.
  bool Fires(ScriptedProcessKill::Window window) {
    const auto& scripted = env_.chaos.scripted;
    for (size_t i = 0; i < scripted.size(); ++i) {
      if (fired_[i] != 0) continue;
      const ScriptedProcessKill& s = scripted[i];
      if (s.worker_index != env_.worker_index || s.window != window) continue;
      if (s.stage != "*" && s.stage != env_.inputs->stage->name) continue;
      fired_[i] = 1;
      return true;
    }
    return false;
  }

 private:
  const WorkerEnv& env_;
  std::vector<char> fired_;
};

}  // namespace

void WorkerMain(int fd, const WorkerEnv& env) {
  const MRStage& stage = *env.inputs->stage;
  // Mapped at the first reduce request: the driver sizes the segment after
  // the map phase, and never again.
  std::string_view segment;
  bool segment_mapped = false;
  std::mutex send_mu;
  std::atomic<bool> hb_stop{false};
  // Heartbeats flow from a dedicated thread so a long-running task does not
  // read as a dead worker. Detached: worker threads die with _exit/SIGKILL.
  std::thread([fd, &send_mu, &hb_stop, interval = env.heartbeat_interval_seconds] {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
      if (hb_stop.load(std::memory_order_relaxed)) return;
      std::lock_guard<std::mutex> lock(send_mu);
      if (!rpc::SendFrame(fd, rpc::MsgType::kHeartbeat, {}).ok()) return;
    }
  }).detach();

  ScriptedKillState scripted(env);
  {
    rpc::WireWriter w;
    w.U32(static_cast<uint32_t>(env.worker_index));
    w.U64(static_cast<uint64_t>(::getpid()));
    std::lock_guard<std::mutex> lock(send_mu);
    if (!rpc::SendFrame(fd, rpc::MsgType::kHello, w.buf()).ok()) _exit(2);
  }

  for (;;) {
    rpc::Frame frame;
    if (!rpc::RecvFrame(fd, &frame).ok()) _exit(2);  // driver gone / garbage
    switch (frame.type) {
      case rpc::MsgType::kShutdown:
        _exit(0);

      case rpc::MsgType::kMapRequest: {
        MapTaskSpec spec;
        if (!wire::DecodeMapRequest(frame.payload, &spec).ok()) _exit(2);
        const ProcessFaultKind chaos = DrawProcessFault(
            env.chaos, /*worker_side=*/true, stage.name,
            static_cast<uint8_t>(rpc::MsgType::kMapRequest),
            static_cast<int>(spec.task_id), static_cast<int>(spec.dispatch));
        if (chaos == ProcessFaultKind::kKillAtTaskStart) DieBySigkill();
        wire::MapResponse resp;
        resp.task_id = spec.task_id;
        resp.dispatch = spec.dispatch;
        resp.status = RunMapTask(*env.inputs, spec, &resp.result);
        std::string payload;
        wire::EncodeMapResponse(resp, &payload);
        if (chaos == ProcessFaultKind::kTruncateResponse) {
          SendTruncatedAndDie(fd, rpc::MsgType::kMapResponse, payload, &send_mu);
        }
        {
          std::lock_guard<std::mutex> lock(send_mu);
          if (!rpc::SendFrame(fd, rpc::MsgType::kMapResponse, payload).ok()) {
            _exit(2);
          }
        }
        if (scripted.Fires(ScriptedProcessKill::Window::kAfterMapResponse)) {
          DieBySigkill();
        }
        break;
      }

      case rpc::MsgType::kReduceRequest: {
        wire::ReduceRequest req;
        if (!wire::DecodeReduceRequest(frame.payload, &req).ok()) _exit(2);
        if (scripted.Fires(ScriptedProcessKill::Window::kOnReduceRequest)) {
          // The worker-loss window between map-commit and reduce-fetch: map
          // outputs are already shipped and committed driver-side; this task
          // dies before producing anything.
          DieBySigkill();
        }
        if (scripted.Fires(ScriptedProcessKill::Window::kHangSilently)) {
          // Heartbeat-gap window: stop heartbeating and responding without
          // dying. Only the driver's heartbeat deadline can detect this.
          hb_stop.store(true, std::memory_order_relaxed);
          for (;;) ::pause();
        }
        const ProcessFaultKind chaos = DrawProcessFault(
            env.chaos, /*worker_side=*/true, stage.name,
            static_cast<uint8_t>(rpc::MsgType::kReduceRequest),
            static_cast<int>(req.task_id), static_cast<int>(req.dispatch));
        if (chaos == ProcessFaultKind::kKillAtTaskStart) DieBySigkill();

        ReduceAttemptContext ctx;
        ctx.stage = &stage;
        ctx.physical_partition = static_cast<int>(req.task_id);
        ctx.base_partition = static_cast<int>(req.base_partition);
        ctx.attempt = static_cast<int>(req.attempt);
        ctx.sort_output = req.sort_output;
        ctx.slices = &req.inputs;
        ctx.input_schemas = &env.inputs->schemas;
        ctx.fault = Fault{req.fault_kind, req.straggler_seconds};
        Status st;
        if (!segment_mapped) {
          st = MapSegmentReadOnly(env.segment_fd, &segment);
          segment_mapped = st.ok();
        }
        AttemptReport report;
        if (st.ok()) {
          report = RunReduceAttemptOnSegment(segment, ctx);
        } else {
          report.status = std::move(st);
        }
        wire::ReduceResponse resp;
        resp.task_id = req.task_id;
        resp.dispatch = req.dispatch;
        resp.cpu_seconds = report.cpu_seconds;
        resp.status = std::move(report.status);
        resp.rows = std::move(report.rows);

        std::string payload;
        wire::EncodeReduceResponse(resp, &payload);
        const bool truncate =
            chaos == ProcessFaultKind::kTruncateResponse ||
            scripted.Fires(ScriptedProcessKill::Window::kMidReduceResponse);
        if (truncate) {
          SendTruncatedAndDie(fd, rpc::MsgType::kReduceResponse, payload,
                              &send_mu);
        }
        {
          std::lock_guard<std::mutex> lock(send_mu);
          if (!rpc::SendFrame(fd, rpc::MsgType::kReduceResponse, payload).ok()) {
            _exit(2);
          }
        }
        break;
      }

      default:
        _exit(2);  // protocol violation from the driver: die, driver requeues
    }
  }
}

}  // namespace timr::mr
