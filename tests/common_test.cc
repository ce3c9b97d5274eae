// Unit tests for the common substrate: Status/Result, rows and schemas,
// hashing, RNG, and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/row.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace timr {
namespace {

// ---------- Status / Result ----------

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::Invalid("bad news");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalid);
  EXPECT_EQ(st.message(), "bad news");
  EXPECT_EQ(st.ToString(), "Invalid: bad news");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  TIMR_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).ValueOrDie(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(Result, MoveValueWorks) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(std::move(r).MoveValue(), "hello");
}

// ---------- Value / Row ----------

TEST(Value, TypesAndEquality) {
  EXPECT_TRUE(Value(int64_t{3}).is_int64());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(3.0));  // different types differ
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_DOUBLE_EQ(Value(int64_t{4}).AsNumeric(), 4.0);
}

TEST(Value, HashIsStableAndDiscriminates) {
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(int64_t{42}).Hash());
  EXPECT_NE(Value(int64_t{42}).Hash(), Value(int64_t{43}).Hash());
  EXPECT_EQ(Value("k").Hash(), Value("k").Hash());
}

TEST(Value, InternedIsStringByContent) {
  Value interned = Value::Interned("keyword");
  EXPECT_TRUE(interned.is_string());
  EXPECT_TRUE(interned.is_interned());
  EXPECT_EQ(interned.AsString(), "keyword");
  // Content equality across representations, both directions.
  EXPECT_EQ(interned, Value("keyword"));
  EXPECT_EQ(Value("keyword"), interned);
  EXPECT_NE(interned, Value("other"));
  // Two interns of the same content share one allocation.
  Value again = Value::Interned("keyword");
  EXPECT_EQ(&interned.AsString(), &again.AsString());
  EXPECT_EQ(interned, again);
  // Hash and ordering agree with the plain-string representation.
  EXPECT_EQ(interned.Hash(), Value("keyword").Hash());
  EXPECT_FALSE(interned < Value("keyword"));
  EXPECT_FALSE(Value("keyword") < interned);
  EXPECT_TRUE(Value("a") < interned);
}

TEST(Value, IsSixteenBytes) {
  EXPECT_EQ(sizeof(Value), 16u);
}

// Every storage form through copy/move construction and assignment,
// including self-assignment; ASan builds check that no rep leaks or is freed
// twice.
TEST(Value, CopyMoveAndAssignEveryForm) {
  const std::vector<Value> forms = {
      Value(int64_t{-7}), Value(2.5),
      Value(std::string(100, 'x')),  // past any small-string buffer
      Value("short"), Value::Interned("interned-form")};
  for (const Value& original : forms) {
    SCOPED_TRACE(original.ToString());
    Value copy(original);
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.is_interned(), original.is_interned());
    Value moved(std::move(copy));
    EXPECT_EQ(moved, original);

    for (const Value& other : forms) {
      Value target = other;
      target = original;
      EXPECT_EQ(target, original);
      Value sink = other;
      Value source = original;
      sink = std::move(source);
      EXPECT_EQ(sink, original);
    }

    Value self = original;
    const Value& alias = self;
    self = alias;
    EXPECT_EQ(self, original);
    Value& move_alias = self;
    self = std::move(move_alias);
    EXPECT_EQ(self, original);
  }
}

TEST(Value, MovedFromIsValidAndAssignable) {
  Value s("payload that is not tiny at all");
  Value taken = std::move(s);
  EXPECT_EQ(taken.AsString(), "payload that is not tiny at all");
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is defined.
  EXPECT_TRUE(s.is_int64());
  EXPECT_EQ(s, Value(int64_t{0}));
  s = Value("again");
  EXPECT_EQ(s.AsString(), "again");
  s = taken;
  EXPECT_EQ(s, taken);
}

TEST(Value, WrongTypeReadThrowsBadVariantAccess) {
  EXPECT_THROW(Value("k").AsInt64(), std::bad_variant_access);
  EXPECT_THROW(Value::Interned("k").AsDouble(), std::bad_variant_access);
  EXPECT_THROW(Value(int64_t{1}).AsString(), std::bad_variant_access);
  EXPECT_THROW(Value(1.5).AsInt64(), std::bad_variant_access);
  EXPECT_THROW(Value(int64_t{1}).AsDouble(), std::bad_variant_access);
  EXPECT_THROW(Value("k").AsNumeric(), std::bad_variant_access);
}

// One owned string rep copied and dropped from several threads at once: the
// refcount must neither free it early nor leak it (TSan/ASan builds check).
TEST(Value, ConcurrentStringCopiesShareOneRep) {
  const Value shared(std::string(64, 'q'));
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, &mismatches] {
      std::vector<Value> held;
      for (int i = 0; i < 20000; ++i) {
        Value copy = shared;
        if (&copy.AsString() != &shared.AsString()) ++mismatches;
        held.push_back(std::move(copy));
        if (held.size() == 64) held.clear();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(shared.AsString(), std::string(64, 'q'));
}

// ==, < and Hash agree on doubles: one zero, and one NaN above +inf.
TEST(Value, DoubleEqualityAndHashAgree) {
  EXPECT_EQ(Value(0.0), Value(-0.0));
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan = -std::nan("7");
  EXPECT_EQ(Value(nan), Value(nan));
  EXPECT_EQ(Value(nan), Value(other_nan));
  EXPECT_EQ(Value(nan).Hash(), Value(other_nan).Hash());
  EXPECT_NE(Value(nan), Value(1.0));
  EXPECT_EQ(HashRow({Value(-0.0), Value(other_nan)}),
            HashRow({Value(0.0), Value(nan)}));
}

TEST(Value, DoubleOrderIsStrictWeakWithNaN) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> v = {Value(nan), Value(-inf), Value(1.0),
                                Value(-0.0), Value(inf), Value(-std::nan("3")),
                                Value(0.0), Value(-1.0)};
  auto equiv = [](const Value& a, const Value& b) {
    return !(a < b) && !(b < a);
  };
  for (const Value& a : v) {
    EXPECT_FALSE(a < a) << a.ToString();
    for (const Value& b : v) {
      EXPECT_FALSE(a < b && b < a);
      // Equivalence under < is exactly ==.
      EXPECT_EQ(equiv(a, b), a == b) << a.ToString() << " " << b.ToString();
      for (const Value& c : v) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c);
        }
        if (equiv(a, b) && equiv(b, c)) {
          EXPECT_TRUE(equiv(a, c));
        }
      }
    }
  }
  EXPECT_TRUE(Value(inf) < Value(nan));
  EXPECT_FALSE(Value(nan) < Value(inf));
  std::vector<Value> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(sorted.front(), Value(-inf));
  EXPECT_EQ(sorted[6], Value(nan));
  EXPECT_EQ(sorted[7], Value(nan));
}

TEST(Row, ExtractKeySelectsColumns) {
  Row r = {Value(1), Value(2), Value(3)};
  EXPECT_EQ(ExtractKey(r, {2, 0}), (Row{Value(3), Value(1)}));
}

TEST(Row, HashKeyOfMatchesHashOfExtractedKey) {
  Row r = {Value(7), Value("k"), Value(3.5)};
  EXPECT_EQ(HashKeyOf(r, {1, 0}), HashRow(ExtractKey(r, {1, 0})));
  EXPECT_EQ(HashKeyOf(r, {}), HashRow(Row{}));
}

// ---------- Schema ----------

TEST(Schema, IndexOfFindsAndFails) {
  Schema s = Schema::Of({{"A", ValueType::kInt64}, {"B", ValueType::kString}});
  EXPECT_EQ(s.IndexOf("B").ValueOrDie(), 1);
  EXPECT_FALSE(s.IndexOf("C").ok());
  EXPECT_TRUE(s.HasField("A"));
  EXPECT_FALSE(s.HasField("Z"));
}

TEST(Schema, ConcatRenamesCollisions) {
  Schema a = Schema::Of({{"X", ValueType::kInt64}});
  Schema b = Schema::Of({{"X", ValueType::kInt64}, {"Y", ValueType::kInt64}});
  Schema c = a.Concat(b);
  ASSERT_EQ(c.num_fields(), 3u);
  EXPECT_EQ(c.field(0).name, "X");
  EXPECT_EQ(c.field(1).name, "X_2");
  EXPECT_EQ(c.field(2).name, "Y");
}

TEST(Schema, SelectPreservesOrder) {
  Schema s = Schema::Of({{"A", ValueType::kInt64},
                         {"B", ValueType::kInt64},
                         {"C", ValueType::kInt64}});
  Schema sel = s.Select({2, 0});
  ASSERT_EQ(sel.num_fields(), 2u);
  EXPECT_EQ(sel.field(0).name, "C");
  EXPECT_EQ(sel.field(1).name, "A");
}

TEST(Schema, EqualityComparesNamesAndTypes) {
  Schema a = Schema::Of({{"A", ValueType::kInt64}});
  Schema b = Schema::Of({{"A", ValueType::kDouble}});
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Schema::Of({{"A", ValueType::kInt64}}));
}

// ---------- Hash ----------

TEST(Hash, MixAvalanchesLowBits) {
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 64; ++i) buckets.insert(HashMix(i) % 16);
  EXPECT_GT(buckets.size(), 8u);  // consecutive keys spread across buckets
}

TEST(Hash, RowHashMatchesEqualRows) {
  Row a = {Value(int64_t{1}), Value("k")};
  Row b = {Value(int64_t{1}), Value("k")};
  EXPECT_EQ(HashRow(a), HashRow(b));
}

// ---------- Rng / Zipf ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(Rng(7).Next(), c.Next());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(2);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Zipf, HeadIsMorePopularThanTail) {
  ZipfSampler zipf(1000, 1.1);
  Rng rng(3);
  int head = 0, tail = 0;
  for (int i = 0; i < 20000; ++i) {
    size_t k = zipf.Sample(&rng);
    ASSERT_LT(k, 1000u);
    if (k < 10) ++head;
    if (k >= 990) ++tail;
  }
  EXPECT_GT(head, 20 * std::max(tail, 1));
}

// ---------- ThreadPool ----------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(3);
  int ran = 0;
  pool.ParallelFor(0, [&](size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  pool.ParallelFor(1, [&](size_t) { ++ran; });  // inline path
  EXPECT_EQ(ran, 1);
  std::atomic<int> wide{0};
  pool.ParallelFor(2, [&](size_t) { wide.fetch_add(1); });
  EXPECT_EQ(wide.load(), 2);
}

TEST(ThreadPool, ParallelForSingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.ParallelFor(64, [&](size_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(500,
                                [&](size_t i) {
                                  ran.fetch_add(1);
                                  if (i == 137) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<int> again{0};
  pool.ParallelFor(100, [&](size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 100);
  EXPECT_LE(ran.load(), 500);
}

TEST(ThreadPool, ParallelForBatchesInterleaveWithSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> submitted{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&] { submitted.fetch_add(1); });
  std::atomic<int> looped{0};
  pool.ParallelFor(200, [&](size_t) { looped.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(submitted.load(), 50);
  EXPECT_EQ(looped.load(), 200);
}

// Stages on one cluster issue ParallelFor batches from several threads at
// once: each caller must get exactly its own iterations and its own first
// exception, never another batch's.
TEST(ThreadPool, ConcurrentCallersGetTheirOwnIterationsAndException) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    constexpr size_t kN = 400;
    std::vector<std::atomic<int>> hits_a(kN);
    std::vector<std::atomic<int>> hits_b(kN);
    std::string caught_a;
    std::string caught_b;
    const auto run = [&](std::vector<std::atomic<int>>* hits, size_t bad,
                         const std::string& what, std::string* caught) {
      try {
        pool.ParallelFor(kN, [&, hits](size_t i) {
          (*hits)[i].fetch_add(1);
          if (i == bad) throw std::runtime_error(what);
        });
      } catch (const std::runtime_error& e) {
        *caught = e.what();
      }
    };
    std::thread a([&] { run(&hits_a, SIZE_MAX, "a", &caught_a); });
    std::thread b([&] { run(&hits_b, 200, "b", &caught_b); });
    a.join();
    b.join();
    // A ran clean: every one of its iterations exactly once.
    for (const auto& h : hits_a) EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(caught_a, "");
    // B threw: its own exception, and no iteration ran twice.
    EXPECT_EQ(caught_b, "b");
    EXPECT_EQ(hits_b[200].load(), 1);
    for (const auto& h : hits_b) EXPECT_LE(h.load(), 1);
  }
}

// A pool task that issues a ParallelFor claims iterations itself, so the
// batch completes even when every pool thread is such a task.
TEST(ThreadPool, ParallelForInsidePoolTaskCompletes) {
  ThreadPool pool(2);
  std::vector<std::promise<int>> done(2);
  for (auto& d : done) {
    pool.Submit([&pool, &d] {
      std::atomic<int> n{0};
      pool.ParallelFor(100, [&](size_t) { n.fetch_add(1); });
      d.set_value(n.load());
    });
  }
  for (auto& d : done) {
    std::future<int> f = d.get_future();
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    EXPECT_EQ(f.get(), 100);
  }
}

TEST(ThreadPool, HandOffRunsEveryIterationOnThePool) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  std::atomic<int> ran{0};
  {
    ThreadPool::HandOff hand_off;
    for (size_t n : {size_t{1}, size_t{64}}) {
      pool.ParallelFor(n, [&](size_t) {
        ran.fetch_add(1);
        if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), 65);
  EXPECT_EQ(on_caller.load(), 0);
  // Out of scope, the caller helps again: a 1-iteration batch runs inline.
  pool.ParallelFor(1, [&](size_t) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(on_caller.load(), 1);
}

}  // namespace
}  // namespace timr
