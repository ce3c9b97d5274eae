// Property tests: the engine's output must match independent brute-force
// reference implementations of the temporal algebra across randomized inputs
// (parameterized sweeps over seed, cardinality, window size and key space).

#include <gtest/gtest.h>

#include <map>

#include "analysis/analyzer.h"
#include "common/rng.h"
#include "mr/cluster.h"
#include "property_plans.h"
#include "temporal/conformance.h"
#include "temporal/executor.h"
#include "temporal/query.h"
#include "timr/timr.h"

namespace timr::temporal {
namespace {

Schema KV() {
  return Schema::Of({{"K", ValueType::kInt64}, {"V", ValueType::kInt64}});
}

std::vector<Event> RandomPoints(int n, int64_t horizon, int64_t keys,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    events.push_back(Event::Point(
        rng.UniformInt(0, horizon),
        {Value(rng.UniformInt(0, keys - 1)), Value(rng.UniformInt(0, 50))}));
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.le < b.le; });
  return events;
}

// Brute-force reference for per-key windowed aggregates: enumerate every
// snapshot boundary and recompute the aggregate from scratch.
std::vector<Event> ReferenceGroupedAgg(const std::vector<Event>& points,
                                       Timestamp w, AggKind kind) {
  std::map<int64_t, std::vector<const Event*>> by_key;
  for (const Event& e : points) by_key[e.payload[0].AsInt64()].push_back(&e);
  std::vector<Event> out;
  for (auto& [key, events] : by_key) {
    std::set<Timestamp> boundaries;
    for (const Event* e : events) {
      boundaries.insert(e->le);
      boundaries.insert(e->le + w);
    }
    std::vector<Timestamp> b(boundaries.begin(), boundaries.end());
    for (size_t i = 0; i + 1 <= b.size(); ++i) {
      const Timestamp lo = b[i];
      const Timestamp hi = i + 1 < b.size() ? b[i + 1] : lo + 1;
      if (lo >= hi) continue;
      // Aggregate over events active at `lo` (constant until hi).
      int64_t count = 0;
      double sum = 0, mn = 1e300, mx = -1e300;
      for (const Event* e : events) {
        if (e->le <= lo && lo < e->le + w) {
          ++count;
          const double v = e->payload[1].AsNumeric();
          sum += v;
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
      }
      if (count == 0) continue;
      Value result;
      switch (kind) {
        case AggKind::kCount: result = Value(count); break;
        case AggKind::kSum: result = Value(sum); break;
        case AggKind::kMin: result = Value(mn); break;
        case AggKind::kMax: result = Value(mx); break;
        case AggKind::kAvg: result = Value(sum / count); break;
      }
      out.push_back(Event(lo, hi, {Value(key), result}));
    }
  }
  return out;
}

// ---------- Parameterized aggregate sweep ----------

struct AggCase {
  uint64_t seed;
  int n;
  int64_t keys;
  Timestamp window;
  AggKind kind;
};

class GroupedAggProperty : public ::testing::TestWithParam<AggCase> {};

TEST_P(GroupedAggProperty, MatchesBruteForce) {
  const AggCase& c = GetParam();
  auto events = RandomPoints(c.n, /*horizon=*/400, c.keys, c.seed);

  AggregateSpec spec;
  spec.kind = c.kind;
  spec.value_column = "V";
  spec.output_name = "agg";
  Query q = Query::Input("S", KV()).GroupApply({"K"}, [&](Query g) {
    return g.Window(c.window).Aggregate(spec);
  });
  auto got = Executor::Execute(q.node(), {{"S", events}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  auto expected = ReferenceGroupedAgg(events, c.window, c.kind);
  EXPECT_TRUE(SameTemporalRelation(got.ValueOrDie(), expected))
      << "seed=" << c.seed << " n=" << c.n << " w=" << c.window;
}

std::vector<AggCase> AggCases() {
  std::vector<AggCase> cases;
  uint64_t seed = 1;
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                       AggKind::kMax, AggKind::kAvg}) {
    for (Timestamp w : {1, 3, 17, 100}) {
      for (int n : {1, 13, 120}) {
        cases.push_back({seed++, n, 4, w, kind});
      }
    }
  }
  // A few high-collision cases (many simultaneous timestamps).
  cases.push_back({97, 200, 2, 5, AggKind::kCount});
  cases.push_back({98, 200, 1, 50, AggKind::kMax});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupedAggProperty,
                         ::testing::ValuesIn(AggCases()));

// ---------- Parameterized join sweep ----------

struct JoinCase {
  uint64_t seed;
  int n;
  int64_t keys;
  Timestamp lw, rw;  // window applied to each side
};

class JoinProperty : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinProperty, MatchesBruteForce) {
  const JoinCase& c = GetParam();
  auto left = RandomPoints(c.n, 300, c.keys, c.seed);
  auto right = RandomPoints(c.n, 300, c.keys, c.seed + 1000);

  Query q = Query::TemporalJoin(Query::Input("L", KV()).Window(c.lw),
                                Query::Input("R", KV()).Window(c.rw), {"K"},
                                {"K"});
  auto got = Executor::Execute(q.node(), {{"L", left}, {"R", right}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  std::vector<Event> expected;
  for (const Event& l : left) {
    for (const Event& r : right) {
      if (l.payload[0] != r.payload[0]) continue;
      const Timestamp le = std::max(l.le, r.le);
      const Timestamp re = std::min(l.le + c.lw, r.le + c.rw);
      if (le >= re) continue;
      Row payload = l.payload;
      payload.insert(payload.end(), r.payload.begin(), r.payload.end());
      expected.push_back(Event(le, re, std::move(payload)));
    }
  }
  EXPECT_TRUE(SameTemporalRelation(got.ValueOrDie(), expected))
      << "seed=" << c.seed;
}

std::vector<JoinCase> JoinCases() {
  std::vector<JoinCase> cases;
  uint64_t seed = 11;
  for (Timestamp lw : {2, 20}) {
    for (Timestamp rw : {2, 20, 150}) {
      for (int n : {5, 40, 90}) cases.push_back({seed++, n, 3, lw, rw});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinProperty, ::testing::ValuesIn(JoinCases()));

// ---------- Parameterized anti-semi-join sweep ----------

class AsjProperty : public ::testing::TestWithParam<JoinCase> {};

TEST_P(AsjProperty, MatchesBruteForce) {
  const JoinCase& c = GetParam();
  auto left = RandomPoints(c.n, 300, c.keys, c.seed);
  auto right = RandomPoints(c.n / 2 + 1, 300, c.keys, c.seed + 500);

  Query q = Query::AntiSemiJoin(Query::Input("L", KV()),
                                Query::Input("R", KV()).Window(c.rw), {"K"},
                                {"K"});
  auto got = Executor::Execute(q.node(), {{"L", left}, {"R", right}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  std::vector<Event> expected;
  for (const Event& l : left) {
    bool covered = false;
    for (const Event& r : right) {
      if (l.payload[0] == r.payload[0] && r.le <= l.le && l.le < r.le + c.rw) {
        covered = true;
        break;
      }
    }
    if (!covered) expected.push_back(l);
  }
  EXPECT_TRUE(SameTemporalRelation(got.ValueOrDie(), expected))
      << "seed=" << c.seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AsjProperty, ::testing::ValuesIn(JoinCases()));

// ---------- TiMR equivalence sweep ----------

struct TimrCase {
  uint64_t seed;
  int machines;
  bool temporal_partitioning;
};

class TimrEquivalence : public ::testing::TestWithParam<TimrCase> {};

TEST_P(TimrEquivalence, DistributedMatchesSingleNode) {
  const TimrCase& c = GetParam();
  auto events = RandomPoints(800, 6 * kHour, 12, c.seed);

  Query plain = Query::Input("S", KV()).GroupApply({"K"}, [](Query g) {
    return g.Window(600).Count();
  });
  Query annotated =
      c.temporal_partitioning
          ? Query::Input("S", KV())
                .Exchange(PartitionSpec::ByTime(30 * kMinute, 600))
                .GroupApply({"K"},
                            [](Query g) { return g.Window(600).Count(); })
          : Query::Input("S", KV())
                .Exchange(PartitionSpec::ByKeys({"K"}))
                .GroupApply({"K"},
                            [](Query g) { return g.Window(600).Count(); });

  auto single = Executor::Execute(plain.node(), {{"S", events}});
  ASSERT_TRUE(single.ok());
  mr::LocalCluster cluster(c.machines, 2);
  auto dist = framework::RunPlanOnEvents(&cluster, annotated.node(),
                                         {{"S", {KV(), events}}});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_TRUE(
      SameTemporalRelation(single.ValueOrDie(), dist.ValueOrDie().output))
      << "seed=" << c.seed << " machines=" << c.machines
      << " temporal=" << c.temporal_partitioning;
}

std::vector<TimrCase> TimrCases() {
  std::vector<TimrCase> cases;
  uint64_t seed = 21;
  for (int machines : {1, 3, 8, 32}) {
    for (bool temporal : {false, true}) cases.push_back({seed++, machines, temporal});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimrEquivalence,
                         ::testing::ValuesIn(TimrCases()));

// ---------- Batched execution equivalence sweep ----------
//
// The engine's contract: an EventBatch is exactly the per-item call sequence
// it expands to, and the driver's morsel size never changes output. These
// sweeps drive every operator family (a) strictly per event, (b) through
// RunBatch at several batch sizes, and (c) with randomized batch cut points
// that put CTI marks mid-batch, and require *bit-identical* output events and
// identical conformance verdicts — not just the same temporal relation.

struct DriveResult {
  std::vector<Event> output;
  std::vector<std::string> violations;
};

// The strict per-event reference driver (the engine's pre-batching loop):
// globally merge sources by LE, advance every source's CTI before each LE
// advance, push events one at a time.
DriveResult RunPerEvent(const PlanNodePtr& plan,
                        std::map<std::string, std::vector<Event>> inputs) {
  auto exec = Executor::Create(plan).ValueOrDie();
  struct Cursor {
    std::string name;
    std::vector<Event>* events;
    size_t pos = 0;
  };
  std::vector<Cursor> cursors;
  for (auto& [name, events] : inputs) {
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.le < b.le; });
    cursors.push_back(Cursor{name, &events, 0});
  }
  Timestamp last_cti = kMinTime;
  while (true) {
    int pick = -1;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].pos >= cursors[i].events->size()) continue;
      const Timestamp le = (*cursors[i].events)[cursors[i].pos].le;
      if (pick == -1 || le < (*cursors[pick].events)[cursors[pick].pos].le) {
        pick = static_cast<int>(i);
      }
    }
    if (pick == -1) break;
    Cursor& c = cursors[pick];
    Event ev = std::move((*c.events)[c.pos++]);
    if (ev.le > last_cti) {
      last_cti = ev.le;
      exec->PushCtiAll(last_cti);
    }
    TIMR_CHECK_OK(exec->PushEvent(c.name, std::move(ev)));
  }
  exec->Finish();
  return {exec->TakeOutput(), exec->ConformanceViolations()};
}

// Batched driver with randomized morsel boundaries: same merge order, but
// events are packed into per-source EventBatches cut at random points (so CTI
// marks land mid-batch), delivered via PushBatch with a coarse catch-up CTI
// to the other sources at each flush — the same protocol as RunBatch.
DriveResult RunRandomBatches(const PlanNodePtr& plan,
                             std::map<std::string, std::vector<Event>> inputs,
                             uint64_t seed) {
  auto exec = Executor::Create(plan).ValueOrDie();
  Rng rng(seed);
  struct Cursor {
    std::string name;
    std::vector<Event>* events;
    size_t pos = 0;
  };
  std::vector<Cursor> cursors;
  for (auto& [name, events] : inputs) {
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.le < b.le; });
    cursors.push_back(Cursor{name, &events, 0});
  }
  Timestamp last_cti = kMinTime;
  EventBatch batch;
  std::string batch_src;
  auto flush = [&]() {
    if (batch_src.empty()) return;
    std::string src = batch_src;
    batch_src.clear();
    TIMR_CHECK_OK(exec->PushBatch(src, std::move(batch)));
    batch = EventBatch();
    for (const std::string& name : exec->input_names()) {
      if (name != src) TIMR_CHECK_OK(exec->PushCti(name, last_cti));
    }
  };
  while (true) {
    int pick = -1;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].pos >= cursors[i].events->size()) continue;
      const Timestamp le = (*cursors[i].events)[cursors[i].pos].le;
      if (pick == -1 || le < (*cursors[pick].events)[cursors[pick].pos].le) {
        pick = static_cast<int>(i);
      }
    }
    if (pick == -1) break;
    Cursor& c = cursors[pick];
    const bool cut = rng.UniformInt(0, 4) == 0;  // random morsel boundary
    if (c.name != batch_src || cut) flush();
    batch_src = c.name;
    Event ev = std::move((*c.events)[c.pos++]);
    if (ev.le > last_cti) {
      last_cti = ev.le;
      batch.AddCti(last_cti);
    }
    batch.Add(std::move(ev));
  }
  flush();
  exec->Finish();
  return {exec->TakeOutput(), exec->ConformanceViolations()};
}

void ExpectBitIdentical(const std::vector<Event>& a,
                        const std::vector<Event>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].le, b[i].le) << what << " event " << i;
    ASSERT_EQ(a[i].re, b[i].re) << what << " event " << i;
    ASSERT_EQ(a[i].payload, b[i].payload) << what << " event " << i;
  }
}

struct BatchCase {
  const char* name;
  uint64_t seed;
};

// Without this, gtest prints the case as raw bytes, which include the address
// of `name`; the discovered ctest names would then change from run to run.
void PrintTo(const BatchCase& c, std::ostream* os) {
  *os << c.name << "_seed" << c.seed;
}

class BatchEquivalence : public ::testing::TestWithParam<BatchCase> {
 protected:
  // Every operator family, including a fusable stateless chain (the shared
  // catalog of tests/property_plans.h). Plans are instrumented with
  // ConformanceCheck operators so the batched checker runs on every edge and
  // its verdicts can be compared against the per-event run.
  static Query MakePlan(const std::string& name) {
    return testutil::MakePropertyPlan(name);
  }

  static std::map<std::string, std::vector<Event>> MakeInputs(
      const std::string& name, uint64_t seed) {
    std::map<std::string, std::vector<Event>> inputs;
    if (name == "join" || name == "asj" || name == "union") {
      inputs["L"] = RandomPoints(120, 300, 3, seed);
      inputs["R"] = RandomPoints(90, 300, 3, seed + 1000);
    } else {
      inputs["S"] = RandomPoints(150, 400, 4, seed);
    }
    return inputs;
  }
};

TEST_P(BatchEquivalence, BatchedMatchesPerEventBitForBit) {
  const BatchCase& c = GetParam();
  PlanNodePtr plan =
      analysis::InstrumentFragmentPlan("batch_eq", MakePlan(c.name).node());
  auto inputs = MakeInputs(c.name, c.seed);

  DriveResult reference = RunPerEvent(plan, inputs);
  EXPECT_TRUE(reference.violations.empty());

  // Both execution modes (columnar morsels with vectorized kernels, and the
  // row path) at every batch size must reproduce the per-event run bit for
  // bit, including the conformance checkers' verdicts.
  for (bool columnar : {true, false}) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
      auto exec = Executor::Create(plan).ValueOrDie();
      exec->set_batch_size(batch_size);
      exec->set_columnar(columnar);
      auto got = exec->RunBatch(inputs);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(reference.output, got.ValueOrDie(),
                         std::string(c.name) + " batch_size=" +
                             std::to_string(batch_size) +
                             (columnar ? " columnar" : " row"));
      EXPECT_EQ(reference.violations, exec->ConformanceViolations());
    }
  }

  for (uint64_t cut_seed = 0; cut_seed < 3; ++cut_seed) {
    DriveResult random = RunRandomBatches(plan, inputs, c.seed * 31 + cut_seed);
    ExpectBitIdentical(reference.output, random.output,
                       std::string(c.name) + " random cuts seed=" +
                           std::to_string(cut_seed));
    EXPECT_EQ(reference.violations, random.violations);
  }
}

// Punctuation thinning (one driver CTI per N merged LE advances) must never
// change output: operators are CTI-granularity-invariant, so both the legacy
// constant (16) and the extremes (every event, whole-morsel) are equivalent.
TEST_P(BatchEquivalence, CtiThinningInvariance) {
  const BatchCase& c = GetParam();
  PlanNodePtr plan =
      analysis::InstrumentFragmentPlan("cti_thin", MakePlan(c.name).node());
  auto inputs = MakeInputs(c.name, c.seed);

  DriveResult reference = RunPerEvent(plan, inputs);
  for (size_t thinning : {size_t{1}, size_t{16}, size_t{4096}}) {
    auto exec = Executor::Create(plan).ValueOrDie();
    exec->set_cti_thinning(thinning);
    auto got = exec->RunBatch(inputs);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(reference.output, got.ValueOrDie(),
                       std::string(c.name) + " cti_thinning=" +
                           std::to_string(thinning));
    EXPECT_TRUE(exec->ConformanceViolations().empty());
  }
}

std::vector<BatchCase> BatchCases() {
  std::vector<BatchCase> cases;
  uint64_t seed = 41;
  for (const std::string& name : testutil::PropertyPlanNames()) {
    for (int rep = 0; rep < 2; ++rep) cases.push_back({name.c_str(), seed++});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchEquivalence,
                         ::testing::ValuesIn(BatchCases()));

// ---------- GroupApply lowering vs per-group networks ----------
//
// A GroupApply over a scalar aggregate, or over a Union tree of them, runs as
// one GroupedAggregateOp; any other sub-plan keeps one operator network per
// group (GroupApplyOp). An identity Project at the head of the sub-plan is
// outside the lowered shape, so it forces the per-group path on the same
// query. The two must agree bit for bit — event order and Sum/Avg rounding
// included — and count the same engine events, at every batch size, CTI
// spacing and ingest layout.

struct LoweringCase {
  AggKind kind;
  const char* head;  // "window", "hop", "shift_window", "select_window"
  bool tail;         // a WhereCmp on the aggregate output
  bool string_key;   // group by {K, S} instead of {K}
  // Union-tree cases: one (kind, head) per branch, unioned left-deep; `kind`
  // and `head` are then unused and `tail` applies to the even branches.
  std::vector<std::pair<AggKind, const char*>> branches = {};
};

const char* AggKindTag(AggKind kind) {
  return kind == AggKind::kCount ? "count" : kind == AggKind::kSum ? "sum"
                                                                     : "avg";
}

void PrintTo(const LoweringCase& c, std::ostream* os) {
  if (c.branches.empty()) {
    *os << AggKindTag(c.kind) << "_" << c.head;
  } else {
    *os << "union";
    for (const auto& [kind, head] : c.branches) {
      *os << "_" << AggKindTag(kind) << "_" << head;
    }
  }
  *os << (c.tail ? "_tail" : "") << (c.string_key ? "_strkey" : "");
}

class GroupedAggregateLowering
    : public ::testing::TestWithParam<LoweringCase> {
 protected:
  static Schema KSV() {
    return Schema::Of({{"K", ValueType::kInt64},
                       {"S", ValueType::kString},
                       {"V", ValueType::kDouble}});
  }

  static std::vector<Event> Inputs() {
    Rng rng(2026);
    std::vector<Event> events;
    for (int i = 0; i < 400; ++i) {
      // Fractional values make Sum/Avg rounding depend on delta merge order.
      events.push_back(Event::Point(
          rng.UniformInt(0, 300),
          {Value(rng.UniformInt(0, 5)), Value(rng.UniformInt(0, 1) ? "a" : "b"),
           Value(static_cast<double>(rng.UniformInt(0, 1000)) / 7.0)}));
    }
    std::stable_sort(
        events.begin(), events.end(),
        [](const Event& a, const Event& b) { return a.le < b.le; });
    return events;
  }

  // Every key is active only in bursts — one 120-tick phase in three — so it
  // stays idle for 240 ticks, longer than any window here, and then returns:
  // its lanes go idle, their slot is retired, and the key comes back.
  static std::vector<Event> BurstyInputs() {
    Rng rng(2027);
    std::vector<Event> events;
    for (int i = 0; i < 900; ++i) {
      const int64_t t = rng.UniformInt(0, 1800);
      const int64_t k = 3 * rng.UniformInt(0, 2) + (3 - (t / 120) % 3) % 3;
      events.push_back(Event::Point(
          t, {Value(k), Value(rng.UniformInt(0, 1) ? "a" : "b"),
              Value(static_cast<double>(rng.UniformInt(0, 1000)) / 7.0)}));
    }
    std::stable_sort(
        events.begin(), events.end(),
        [](const Event& a, const Event& b) { return a.le < b.le; });
    return events;
  }

  static Query Branch(Query g, AggKind kind, const std::string& head,
                      bool tail) {
    if (head == "window") g = g.Window(23);
    if (head == "hop") g = g.HoppingWindow(40, 10);
    if (head == "shift_window") g = g.AlterLifetime(
        AlterLifetimeSpec::ShiftAndWindow(-5, 30));
    if (head == "select_window") {
      g = g.WhereCmp("V", CmpOp::kGt, Value(30.0)).Window(23);
    }
    AggregateSpec spec;
    spec.kind = kind;
    spec.value_column = "V";
    spec.output_name = "agg";
    g = g.Aggregate(spec);
    if (tail) {
      g = g.WhereCmp("agg", CmpOp::kGt,
                     kind == AggKind::kCount ? Value(int64_t{1}) : Value(40.0));
    }
    return g;
  }

  static Query MakePlan(const LoweringCase& c, bool per_group) {
    std::vector<std::string> keys = {"K"};
    if (c.string_key) keys.push_back("S");
    return Query::Input("S", KSV()).GroupApply(keys, [&](Query g) {
      if (per_group) g = g.SelectColumns({"K", "S", "V"});
      if (c.branches.empty()) return Branch(g, c.kind, c.head, c.tail);
      Query out = Branch(g, c.branches[0].first, c.branches[0].second, c.tail);
      for (size_t b = 1; b < c.branches.size(); ++b) {
        out = Query::Union(out, Branch(g, c.branches[b].first,
                                       c.branches[b].second,
                                       c.tail && b % 2 == 0));
      }
      return out;
    });
  }
};

TEST_P(GroupedAggregateLowering, MatchesPerGroupBitForBit) {
  const LoweringCase& c = GetParam();
  const PlanNodePtr lowered = MakePlan(c, /*per_group=*/false).node();
  const PlanNodePtr per_group = MakePlan(c, /*per_group=*/true).node();
  const auto shape = MatchGroupedAggregate(*lowered);
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->branches.size(), std::max<size_t>(1, c.branches.size()));
  ASSERT_FALSE(MatchGroupedAggregate(*per_group).has_value());

  const std::vector<Event> inputs =
      c.branches.empty() ? Inputs() : BurstyInputs();
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (size_t thinning : {size_t{1}, size_t{16}}) {
      for (bool columnar : {true, false}) {
        const std::string what =
            "batch_size=" + std::to_string(batch_size) +
            " cti_thinning=" + std::to_string(thinning) +
            " columnar=" + std::to_string(columnar);
        std::vector<Event> out[2];
        uint64_t consumed[2];
        for (int i = 0; i < 2; ++i) {
          auto exec =
              Executor::Create(i == 0 ? lowered : per_group).ValueOrDie();
          exec->set_batch_size(batch_size);
          exec->set_cti_thinning(thinning);
          exec->set_columnar(columnar);
          auto got = exec->RunBatch({{"S", inputs}});
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          out[i] = std::move(got).ValueOrDie();
          consumed[i] = exec->TotalEventsConsumed();
        }
        EXPECT_FALSE(out[0].empty()) << what;
        ExpectBitIdentical(out[1], out[0], what);
        EXPECT_EQ(consumed[1], consumed[0]) << what;
      }
    }
  }
}

std::vector<LoweringCase> LoweringCases() {
  std::vector<LoweringCase> cases;
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
    for (const char* head :
         {"window", "hop", "shift_window", "select_window"}) {
      for (bool tail : {false, true}) {
        for (bool string_key : {false, true}) {
          cases.push_back({kind, head, tail, string_key});
        }
      }
    }
  }
  // Union trees, appended so the single-chain cases keep their indices. A
  // Union needs one output schema: Count with Count, Sum/Avg (double) mixed.
  const std::vector<std::vector<std::pair<AggKind, const char*>>> unions = {
      {{AggKind::kCount, "select_window"}, {AggKind::kCount, "hop"}},
      {{AggKind::kSum, "hop"}, {AggKind::kAvg, "window"}},
      {{AggKind::kCount, "window"},
       {AggKind::kCount, "hop"},
       {AggKind::kCount, "shift_window"}},
      {{AggKind::kAvg, "shift_window"},
       {AggKind::kSum, "select_window"},
       {AggKind::kSum, "hop"}},
  };
  for (const auto& branches : unions) {
    for (bool tail : {false, true}) {
      for (bool string_key : {false, true}) {
        cases.push_back({AggKind::kCount, "", tail, string_key, branches});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupedAggregateLowering,
                         ::testing::ValuesIn(LoweringCases()));

// ---------- ConformanceCheckOp: batches of one == one batch on bad input ----------

// Member assignment, as EventBatch::EnsureRows does: the Event constructor
// DCHECKs re > le, and this stream is invalid on purpose.
Event RawEvent(Timestamp le, Timestamp re, int64_t v) {
  Event e;
  e.le = le;
  e.re = re;
  e.payload = {Value(v)};
  return e;
}

TEST(ConformanceBatch, BatchedVerdictsMatchPerEventOnBadStream) {
  // A stream with one of each violation class: inverted lifetime, event
  // preceding the delivered CTI (twice), and a regressed CTI.
  const std::vector<Event> events = {
      RawEvent(5, 10, 1),  // good
      RawEvent(7, 7, 2),   // inverted lifetime
      RawEvent(6, 9, 3),   // precedes CTI 8
      RawEvent(9, 12, 4),  // good
      RawEvent(3, 20, 5),  // precedes CTI 8
  };

  // The same stream as a sequence of batches of one (each event alone, each
  // CTI alone) and as one batch.
  ConformanceCheckOp per_event("edge");
  CollectorSink per_event_out;
  per_event.AddOutput(&per_event_out);
  per_event.OnBatch(EventBatch::Of(events[0]));
  per_event.OnBatch(EventBatch::Of(events[1]));
  per_event.OnBatch(EventBatch::OfCti(8));
  per_event.OnBatch(EventBatch::Of(events[2]));
  per_event.OnBatch(EventBatch::Of(events[3]));
  per_event.OnBatch(EventBatch::OfCti(4));  // regressed
  per_event.OnBatch(EventBatch::Of(events[4]));
  per_event.OnBatch(EventBatch::OfCti(30));

  ConformanceCheckOp batched("edge");
  CollectorSink batched_out;
  batched.AddOutput(&batched_out);
  EventBatch batch;
  for (const Event& e : events) batch.Add(e);
  // Mark positions are appended directly (AddCti would coalesce the regressed
  // mark away); {pos, t}: CTI fires before the event at `pos`.
  batch.mutable_ctis().push_back({2, 8});
  batch.mutable_ctis().push_back({4, 4});
  batch.mutable_ctis().push_back({5, 30});
  batched.OnBatch(std::move(batch));

  EXPECT_EQ(per_event.violations(), batched.violations());
  EXPECT_EQ(per_event.violations().size(), 4u);
  ExpectBitIdentical(per_event_out.events(), batched_out.events(),
                     "conformance passthrough");
  EXPECT_EQ(per_event_out.last_cti(), batched_out.last_cti());
  EXPECT_EQ(per_event.events_consumed(), batched.events_consumed());
}

}  // namespace
}  // namespace timr::temporal
