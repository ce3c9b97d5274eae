// Span recorder for the benchmark's traced runs.
//
// The benchmark measures each layer from outside: it opens a span around each
// of its own calls into a module's public functions. Spans live in one
// fixed-size MAP_SHARED anonymous mapping created before any worker process
// is forked, so spans recorded by reducers running inside process-mode
// workers land in the same buffer as the driver's. Times are steady_clock
// (CLOCK_MONOTONIC) nanoseconds, which every process on the host shares.
//
// A span's self time is its duration minus the part of it covered by child
// spans on the same lane (pid, tid). Children on other lanes (reducers on
// pool threads or in workers) run in parallel with their parent; they count
// as busy time of their own layer, not as time taken out of the parent.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

/// One recorded span. `name` is a NUL-terminated layer name such as
/// "temporal.engine"; `count` is the work the span did (engine events, bytes).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 0;
  uint32_t job = 0;
  int32_t pid = 0;
  int32_t tid = 0;
  /// Probe spans time work the benchmark adds to a traced job to measure a
  /// layer the job does not expose (the wire codec). They are cut out of the
  /// job's wall time.
  uint32_t probe = 0;
  char name[40] = {};
};

class Tracer {
 public:
  /// Maps room for `capacity` spans. Spans beyond it are counted as dropped.
  explicit Tracer(size_t capacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId();
  /// Process- and thread-safe append.
  void Record(const SpanRecord& span);

  std::vector<SpanRecord> Spans() const;
  uint64_t dropped() const;

 private:
  struct Header {
    std::atomic<uint64_t> next_id;
    std::atomic<uint64_t> size;
    std::atomic<uint64_t> dropped;
  };
  Header* header_ = nullptr;
  SpanRecord* spans_ = nullptr;
  size_t capacity_ = 0;
  size_t bytes_ = 0;
};

/// RAII span: records [construction, destruction) when `tracer` is non-null,
/// and costs one branch otherwise.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t parent, uint32_t job,
       bool probe = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return rec_.id; }
  void set_count(uint64_t n) { rec_.count = n; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
};

/// Per-layer rollup of one traced run.
struct LayerTotals {
  std::map<std::string, double> self_seconds;  // by span name, every lane
  std::map<std::string, uint64_t> counts;      // by span name
  /// Self time by span name of the spans on their job's own lane (the
  /// driver thread) below its "job" span, probe spans excluded.
  std::map<std::string, double> driver_self_seconds;
  /// Over root spans named "job": their wall with probe spans cut out and
  /// their own self time (the untraced gap).
  double job_wall_seconds = 0;
  double gap_seconds = 0;
  size_t jobs = 0;
  /// Each job's wall with probe spans cut out, by job id.
  std::map<uint32_t, double> job_wall_by_id;
};

LayerTotals Rollup(const std::vector<SpanRecord>& spans);

/// Write spans as Chrome trace-event JSON ("X" events; args carry id,
/// parent, job, count and probe).
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path);

}  // namespace perfbench
