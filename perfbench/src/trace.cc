#include "trace.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(size_t capacity) : capacity_(capacity) {
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "span counters must work across forked processes");
  bytes_ = sizeof(Header) + capacity * sizeof(SpanRecord);
  void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("perfbench: span buffer mmap");
  header_ = new (p) Header{{1}, {0}, {0}};
  spans_ = reinterpret_cast<SpanRecord*>(static_cast<char*>(p) + sizeof(Header));
}

Tracer::~Tracer() { ::munmap(header_, bytes_); }

uint64_t Tracer::NewId() {
  return header_->next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(const SpanRecord& span) {
  const uint64_t slot = header_->size.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= capacity_) {
    header_->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_[slot] = span;
}

std::vector<SpanRecord> Tracer::Spans() const {
  const uint64_t n =
      std::min<uint64_t>(header_->size.load(std::memory_order_acquire), capacity_);
  // A slot is reserved before it is written; a span whose end is still zero
  // belongs to a writer that died mid-copy (a killed worker) and is skipped.
  std::vector<SpanRecord> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (spans_[i].id != 0 && spans_[i].end_ns != 0) out.push_back(spans_[i]);
  }
  return out;
}

uint64_t Tracer::dropped() const {
  return header_->dropped.load(std::memory_order_relaxed);
}

Span::Span(Tracer* tracer, const char* name, uint64_t parent, uint32_t job,
           bool probe)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  rec_.id = tracer_->NewId();
  rec_.parent = parent;
  rec_.job = job;
  rec_.probe = probe ? 1 : 0;
  rec_.pid = static_cast<int32_t>(::getpid());
  rec_.tid = static_cast<int32_t>(::syscall(SYS_gettid));
  std::strncpy(rec_.name, name, sizeof(rec_.name) - 1);
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = NowNs();
  tracer_->Record(rec_);
}

namespace {

bool SameLane(const SpanRecord& a, const SpanRecord& b) {
  return a.pid == b.pid && a.tid == b.tid;
}

/// Length of the union of `intervals` clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (s >= e) continue;
    if (open && s <= cur_hi) {
      cur_hi = std::max(cur_hi, e);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = s;
    cur_hi = e;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

LayerTotals Rollup(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }

  std::vector<int64_t> self_ns(spans.size());
  LayerTotals t;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> kids;
    for (size_t c : children[i]) {
      if (SameLane(spans[c], s)) kids.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    self_ns[i] = (s.end_ns - s.start_ns) - CoveredNs(std::move(kids), s.start_ns, s.end_ns);
    t.self_seconds[s.name] += self_ns[i] * 1e-9;
    t.counts[s.name] += s.count;
  }

  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, "job") != 0) continue;
    ++t.jobs;
    int64_t probe_ns = 0;
    std::vector<size_t> stack(children[i].begin(), children[i].end());
    while (!stack.empty()) {
      const size_t c = stack.back();
      stack.pop_back();
      if (!SameLane(spans[c], spans[i])) continue;
      if (spans[c].probe != 0) {
        probe_ns += spans[c].end_ns - spans[c].start_ns;
      } else {
        t.driver_self_seconds[spans[c].name] += self_ns[c] * 1e-9;
        stack.insert(stack.end(), children[c].begin(), children[c].end());
      }
    }
    const double wall = (spans[i].end_ns - spans[i].start_ns - probe_ns) * 1e-9;
    t.job_wall_by_id[spans[i].job] = wall;
    t.job_wall_seconds += wall;
    t.gap_seconds += self_ns[i] * 1e-9;
  }
  return t;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"job\":%u,\"count\":%llu,\"probe\":%u}}",
                 i == 0 ? "" : ",", s.name, (s.start_ns - origin) * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, s.pid, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.job,
                 static_cast<unsigned long long>(s.count), s.probe);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
