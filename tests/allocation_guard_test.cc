// Allocation regression guard for the batched stateless hot path.
//
// This TU replaces global operator new/delete with counting wrappers (gtest
// links them into this test binary only). The batched execution path promises
// a steady-state allocation budget that is O(1) per batch — pooled batch
// storage (temporal/event.cc), in-place FilterEvents rewrites, and move-into-
// last-sink Emit mean that pumping a warm Select→AlterLifetime chain does not
// allocate per event. The test pins that down with a hard ceiling so a future
// "harmless" copy on the hot path fails loudly instead of silently costing
// 2x throughput.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "temporal/executor.h"
#include "temporal/query.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Counting global allocator. Deliberately malloc-based and exception-correct;
// all forms forward here so sized/aligned deallocations stay matched.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace timr::temporal {
namespace {

class AllocationScope {
 public:
  AllocationScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

EventBatch MakeBatch(size_t n, Timestamp start) {
  EventBatch batch;
  Timestamp t = start;
  for (size_t i = 0; i < n; ++i) {
    if (i % 4 == 0) {
      ++t;
      batch.AddCti(t);
    }
    batch.Add(Event::Point(
        t, {Value(static_cast<int64_t>(i % 7)), Value(static_cast<int64_t>(i))}));
  }
  return batch;
}

TEST(AllocationGuard, StatelessBatchPathIsO1AllocationsPerBatch) {
  Schema kv = Schema::Of({{"K", ValueType::kInt64}, {"V", ValueType::kInt64}});
  // A fusable stateless chain: filter + window. No payload is rebuilt, so a
  // warm pipeline should move rows end to end without touching the allocator.
  Query q = Query::Input("S", kv)
                .Where([](const Row& r) { return r[1].AsInt64() % 3 != 0; })
                .Window(100);
  auto exec = Executor::Create(q.node()).ValueOrDie();

  constexpr size_t kBatchEvents = 1024;
  constexpr int kWarmupBatches = 4;
  constexpr int kMeasuredBatches = 8;

  // Warm up: grows the thread-local batch pool, the collector vector, and any
  // operator-internal capacity to steady state.
  Timestamp t = 0;
  for (int i = 0; i < kWarmupBatches; ++i) {
    EventBatch batch = MakeBatch(kBatchEvents, t);
    t += kBatchEvents;
    TIMR_CHECK_OK(exec->PushBatch("S", std::move(batch)));
  }
  const size_t warm_output = exec->TakeOutput().size();
  ASSERT_GT(warm_output, 0u);

  // Measure: batches are built outside the counting window (building the
  // input legitimately allocates one Row per event); only the push — the
  // engine's work — is counted.
  uint64_t total = 0;
  for (int i = 0; i < kMeasuredBatches; ++i) {
    EventBatch batch = MakeBatch(kBatchEvents, t);
    t += kBatchEvents;
    AllocationScope scope;
    TIMR_CHECK_OK(exec->PushBatch("S", std::move(batch)));
    total += scope.count();
  }

  // O(1) per batch, emphatically not O(events): the collector's amortized
  // vector growth is the only allowed customer. 8 allocations per 1024-event
  // batch is two orders of magnitude below the per-event regime.
  EXPECT_LE(total, static_cast<uint64_t>(kMeasuredBatches) * 8)
      << "stateless batch path allocated " << total << " times over "
      << kMeasuredBatches << " batches of " << kBatchEvents << " events";
}

EventBatch MakeColumnarBatch(const Schema& schema, size_t n, Timestamp start) {
  EventBatch batch;
  batch.BeginColumnar(schema);
  Timestamp t = start;
  for (size_t i = 0; i < n; ++i) {
    if (i % 4 == 0) {
      ++t;
      batch.AddCti(t);
    }
    const Row row = {Value(static_cast<int64_t>(i % 7)),
                     Value(static_cast<int64_t>(i % 5))};
    TIMR_CHECK(batch.TryAppendColumnar(t, t + kTick, row));
  }
  return batch;
}

TEST(AllocationGuard, ColumnarBatchPathIsO1AllocationsPerBatch) {
  Schema kv = Schema::Of({{"K", ValueType::kInt64}, {"V", ValueType::kInt64}});
  // Structured filter + window: the fused chain evaluates the SelectSpec as a
  // selection bitmap, compacts columns in place, and rewrites timestamps —
  // all without materializing a single Row. Column buffers come from (and
  // return to) the pooled batch storage, so a warm pipeline stays O(1)
  // allocations per columnar batch too.
  Query q = Query::Input("S", kv)
                .WhereCmp("V", CmpOp::kNe, Value(int64_t{0}))
                .Window(100);
  auto exec = Executor::Create(q.node()).ValueOrDie();

  constexpr size_t kBatchEvents = 1024;
  constexpr int kWarmupBatches = 4;
  constexpr int kMeasuredBatches = 8;

  Timestamp t = 0;
  for (int i = 0; i < kWarmupBatches; ++i) {
    EventBatch batch = MakeColumnarBatch(kv, kBatchEvents, t);
    t += kBatchEvents;
    TIMR_CHECK_OK(exec->PushBatch("S", std::move(batch)));
  }
  const size_t warm_output = exec->TakeOutput().size();
  ASSERT_GT(warm_output, 0u);

  uint64_t total = 0;
  for (int i = 0; i < kMeasuredBatches; ++i) {
    EventBatch batch = MakeColumnarBatch(kv, kBatchEvents, t);
    t += kBatchEvents;
    AllocationScope scope;
    TIMR_CHECK_OK(exec->PushBatch("S", std::move(batch)));
    total += scope.count();
  }

  // Same budget as the row path: the validity bitmap (one vector per batch)
  // and amortized collector growth are the only allowed customers.
  EXPECT_LE(total, static_cast<uint64_t>(kMeasuredBatches) * 8)
      << "columnar batch path allocated " << total << " times over "
      << kMeasuredBatches << " batches of " << kBatchEvents << " events";
}

TEST(AllocationGuard, PerEventPathStillBoundedAfterWarmup) {
  // Companion guard for the per-event push: PushEvent wraps the event in a
  // batch of one from the pooled batch storage, so a warm Select chain pushes
  // a point event end to end with no allocations.
  Schema kv = Schema::Of({{"K", ValueType::kInt64}, {"V", ValueType::kInt64}});
  Query q = Query::Input("S", kv)
                .Where([](const Row& r) { return r[1].AsInt64() % 3 != 0; })
                .Window(100);
  auto exec = Executor::Create(q.node()).ValueOrDie();

  for (int i = 0; i < 512; ++i) {
    TIMR_CHECK_OK(exec->PushEvent(
        "S", Event::Point(i, {Value(int64_t{1}), Value(int64_t{i})})));
  }
  (void)exec->TakeOutput();

  std::vector<Event> prebuilt;
  prebuilt.reserve(256);
  for (int i = 0; i < 256; ++i) {
    prebuilt.push_back(
        Event::Point(512 + i, {Value(int64_t{1}), Value(int64_t{i})}));
  }
  uint64_t total = 0;
  for (Event& e : prebuilt) {
    AllocationScope scope;
    TIMR_CHECK_OK(exec->PushEvent("S", std::move(e)));
    total += scope.count();
  }
  // Amortized collector growth only.
  EXPECT_LE(total, 16u) << "per-event stateless path allocated " << total
                        << " times over 256 events";
}

}  // namespace
}  // namespace timr::temporal
