// Per-operator unit tests for the temporal engine: edge cases, error paths,
// schema handling, and the offline/online equivalence the paper leans on.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "temporal/convert.h"
#include "temporal/executor.h"
#include "temporal/query.h"

namespace timr::temporal {
namespace {

Schema KV() {
  return Schema::Of({{"K", ValueType::kInt64}, {"V", ValueType::kInt64}});
}

std::vector<Event> Points(std::vector<std::pair<Timestamp, Row>> data) {
  std::vector<Event> out;
  for (auto& [t, row] : data) out.push_back(Event::Point(t, std::move(row)));
  return out;
}

Result<std::vector<Event>> RunQ(const Query& q, std::vector<Event> events) {
  return Executor::Execute(q.node(), {{"S", std::move(events)}});
}

// ---------- AlterLifetime ----------

TEST(AlterLifetime, ShiftMovesBothEndpoints) {
  Query q = Query::Input("S", KV()).ShiftLifetime(10);
  auto out = RunQ(q, Points({{5, {1, 1}}}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.ValueOrDie()[0].le, 15);
  EXPECT_EQ(out.ValueOrDie()[0].re, 16);
}

TEST(AlterLifetime, NegativeShiftPreservesOrderAndResults) {
  Query q = Query::Input("S", KV()).ShiftLifetime(-100);
  auto out = RunQ(q, Points({{5, {1, 1}}, {7, {2, 2}}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 2u);
  EXPECT_EQ(out.ValueOrDie()[0].le, -95);
  EXPECT_EQ(out.ValueOrDie()[1].le, -93);
}

TEST(AlterLifetime, WindowSetsDuration) {
  Query q = Query::Input("S", KV()).Window(50);
  auto out = RunQ(q, Points({{5, {1, 1}}}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.ValueOrDie()[0].re, 55);
}

TEST(AlterLifetime, HopSnapsToGrid) {
  // Event at t=7, window 20, hop 10: visible at boundaries 10 and 20
  // (boundaries in [7, 27) on the 10-grid) -> lifetime [10, 30).
  Query q = Query::Input("S", KV()).HoppingWindow(20, 10);
  auto out = RunQ(q, Points({{7, {1, 1}}}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.ValueOrDie()[0].le, 10);
  EXPECT_EQ(out.ValueOrDie()[0].re, 30);
}

TEST(AlterLifetime, HopEventExactlyOnBoundary) {
  // t=10 is on the grid: first boundary that sees it is 10 itself.
  Query q = Query::Input("S", KV()).HoppingWindow(10, 10);
  auto out = RunQ(q, Points({{10, {1, 1}}}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.ValueOrDie()[0].le, 10);
  EXPECT_EQ(out.ValueOrDie()[0].re, 20);
}

TEST(AlterLifetime, ToPointCollapsesIntervals) {
  Query q = Query::Input("S", KV()).Window(100).ToPointEvents();
  auto out = RunQ(q, Points({{3, {1, 1}}}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.ValueOrDie()[0].IsPoint());
}

TEST(CeilToGridFn, HandlesNegativeAndExactValues) {
  EXPECT_EQ(CeilToGrid(0, 10), 0);
  EXPECT_EQ(CeilToGrid(1, 10), 10);
  EXPECT_EQ(CeilToGrid(10, 10), 10);
  EXPECT_EQ(CeilToGrid(-1, 10), 0);
  EXPECT_EQ(CeilToGrid(-10, 10), -10);
  EXPECT_EQ(CeilToGrid(-11, 10), -10);
}

// ---------- Aggregates ----------

TEST(Aggregate, EmptyInputProducesNoOutput) {
  Query q = Query::Input("S", KV()).Window(10).Count();
  auto out = RunQ(q, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.ValueOrDie().empty());
}

TEST(Aggregate, SingleEventSingleSnapshot) {
  Query q = Query::Input("S", KV()).Window(10).Count();
  auto out = RunQ(q, Points({{5, {1, 1}}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 1u);
  EXPECT_EQ(out.ValueOrDie()[0].le, 5);
  EXPECT_EQ(out.ValueOrDie()[0].re, 15);
  EXPECT_EQ(out.ValueOrDie()[0].payload[0].AsInt64(), 1);
}

TEST(Aggregate, SimultaneousEventsMergeIntoOneSnapshot) {
  Query q = Query::Input("S", KV()).Window(10).Count();
  auto out = RunQ(q, Points({{5, {1, 1}}, {5, {2, 2}}, {5, {3, 3}}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 1u);
  EXPECT_EQ(out.ValueOrDie()[0].payload[0].AsInt64(), 3);
}

TEST(Aggregate, SumTracksValues) {
  Query q = Query::Input("S", KV()).Window(10).Sum("V");
  auto out = RunQ(q, Points({{0, {1, 7}}, {5, {2, 3}}}));
  ASSERT_TRUE(out.ok());
  std::vector<Event> expected = {Event(0, 5, {Value(7.0)}),
                                 Event(5, 10, {Value(10.0)}),
                                 Event(10, 15, {Value(3.0)})};
  EXPECT_TRUE(SameTemporalRelation(out.ValueOrDie(), expected));
}

TEST(Aggregate, MinMaxSupportRetraction) {
  // Values 9 then 4; after 9 expires the max must fall back to 4.
  Query q = Query::Input("S", KV()).Window(10).Aggregate(
      AggregateSpec::Max("V", "m"));
  auto out = RunQ(q, Points({{0, {1, 9}}, {5, {2, 4}}}));
  ASSERT_TRUE(out.ok());
  std::vector<Event> expected = {Event(0, 10, {Value(9.0)}),
                                 Event(10, 15, {Value(4.0)})};
  EXPECT_TRUE(SameTemporalRelation(out.ValueOrDie(), expected));
}

TEST(Aggregate, AvgOverSnapshots) {
  Query q = Query::Input("S", KV()).Window(10).Aggregate(
      AggregateSpec::Avg("V", "a"));
  auto out = RunQ(q, Points({{0, {1, 2}}, {5, {2, 4}}}));
  ASSERT_TRUE(out.ok());
  std::vector<Event> expected = {Event(0, 5, {Value(2.0)}),
                                 Event(5, 10, {Value(3.0)}),
                                 Event(10, 15, {Value(4.0)})};
  EXPECT_TRUE(SameTemporalRelation(out.ValueOrDie(), expected));
}

TEST(Aggregate, UnknownValueColumnFailsAtBuild) {
  auto node = std::make_shared<PlanNode>();
  node->kind = OpKind::kAggregate;
  node->agg = AggregateSpec::Sum("Nope");
  auto input = std::make_shared<PlanNode>();
  input->kind = OpKind::kInput;
  input->name = "S";
  input->input_schema = KV();
  node->children = {input};
  auto exec = Executor::Create(node);
  EXPECT_FALSE(exec.ok());
}

// ---------- GroupApply ----------

TEST(GroupApply, EmptyGroupsNeverMaterialize) {
  Query q = Query::Input("S", KV()).GroupApply({"K"}, [](Query g) {
    return g.Window(10).Count();
  });
  auto out = RunQ(q, Points({{1, {7, 0}}}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 1u);
  EXPECT_EQ(out.ValueOrDie()[0].payload[0].AsInt64(), 7);  // key prepended
}

TEST(GroupApply, NestedGroupApply) {
  Schema s = Schema::Of({{"A", ValueType::kInt64},
                         {"B", ValueType::kInt64},
                         {"V", ValueType::kInt64}});
  // Outer by A, inner by B: per-(A,B) windowed count, A and B prepended.
  Query q = Query::Input("S", s).GroupApply({"A"}, [](Query ga) {
    return ga.GroupApply({"B"}, [](Query gb) { return gb.Window(10).Count(); });
  });
  auto out = Executor::Execute(
      q.node(), {{"S", Points({{1, {1, 1, 0}}, {2, {1, 2, 0}}, {3, {1, 1, 0}}})}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::vector<Event> expected = {
      Event(1, 3, {Value(1), Value(1), Value(int64_t{1})}),
      Event(3, 11, {Value(1), Value(1), Value(int64_t{2})}),
      Event(11, 13, {Value(1), Value(1), Value(int64_t{1})}),
      Event(2, 12, {Value(1), Value(2), Value(int64_t{1})})};
  EXPECT_TRUE(SameTemporalRelation(out.ValueOrDie(), expected));
}

TEST(GroupApply, ManyGroupsLazyPunctuationStillFlushes) {
  // More groups than the broadcast period; the final punctuation must still
  // flush every group's open aggregate state.
  std::vector<Event> events;
  for (int i = 0; i < 500; ++i) {
    events.push_back(Event::Point(i, {Value(int64_t{i}), Value(int64_t{1})}));
  }
  Query q = Query::Input("S", KV()).GroupApply({"K"}, [](Query g) {
    return g.Window(1000).Count();
  });
  auto out = RunQ(q, events);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.ValueOrDie().size(), 500u);  // one snapshot per group
}

// ---------- Joins ----------

TEST(TemporalJoin, ResidualPredicateFilters) {
  Query left = Query::Input("L", KV()).Window(10);
  Query right = Query::Input("R", KV()).Window(10);
  Query q = Query::TemporalJoin(
      left, right, {"K"}, {"K"},
      [](const Row& l, const Row& r) { return l[1].AsInt64() < r[1].AsInt64(); });
  auto out = Executor::Execute(q.node(), {{"L", Points({{1, {1, 5}}})},
                                          {"R", Points({{2, {1, 3}}})}});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.ValueOrDie().empty());  // 5 < 3 fails
}

TEST(TemporalJoin, CustomProjection) {
  Query left = Query::Input("L", KV()).Window(10);
  Query right = Query::Input("R", KV()).Window(10);
  Query q = Query::TemporalJoin(
      left, right, {"K"}, {"K"}, nullptr,
      [](const Row& l, const Row& r) {
        return Row{Value(l[1].AsInt64() + r[1].AsInt64())};
      },
      Schema::Of({{"Sum", ValueType::kInt64}}));
  auto out = Executor::Execute(q.node(), {{"L", Points({{1, {1, 5}}})},
                                          {"R", Points({{2, {1, 3}}})}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 1u);
  EXPECT_EQ(out.ValueOrDie()[0].payload[0].AsInt64(), 8);
}

TEST(TemporalJoin, SelfJoinOnSharedNode) {
  Query base = Query::Input("S", KV()).Window(5);
  Query q = Query::TemporalJoin(base, base, {"K"}, {"K"});
  auto out = RunQ(q, Points({{1, {1, 10}}, {3, {1, 20}}}));
  ASSERT_TRUE(out.ok());
  // Pairs: (e1,e1), (e1,e2), (e2,e1), (e2,e2) all intersect.
  EXPECT_EQ(out.ValueOrDie().size(), 4u);
}

TEST(AntiSemiJoin, RightEventAtSameInstantSuppresses) {
  // Right point at t=3 (window 1 tick) and left point at t=3: the merge
  // discipline must process the right side first and suppress the left.
  Query left = Query::Input("L", KV());
  Query right = Query::Input("R", KV());
  Query q = Query::AntiSemiJoin(left, right, {"K"}, {"K"});
  auto out = Executor::Execute(q.node(), {{"L", Points({{3, {1, 0}}})},
                                          {"R", Points({{3, {1, 0}}})}});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.ValueOrDie().empty());
}

TEST(AntiSemiJoin, KeysCanDifferByName) {
  Schema l = Schema::Of({{"A", ValueType::kInt64}});
  Schema r = Schema::Of({{"B", ValueType::kInt64}});
  Query q = Query::AntiSemiJoin(Query::Input("L", l),
                                Query::Input("R", r).Window(10), {"A"}, {"B"});
  auto out = Executor::Execute(
      q.node(),
      {{"L", Points({{5, {1}}, {5, {2}}})}, {"R", Points({{1, {1}}})}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 1u);
  EXPECT_EQ(out.ValueOrDie()[0].payload[0].AsInt64(), 2);
}

// ---------- Union / errors ----------

TEST(Union, MergesInTimestampOrder) {
  Query a = Query::Input("A", KV());
  Query b = Query::Input("B", KV());
  Query q = Query::Union(a, b);
  auto out = Executor::Execute(
      q.node(), {{"A", Points({{1, {1, 0}}, {5, {1, 0}}})},
                 {"B", Points({{3, {2, 0}}})}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 3u);
  EXPECT_EQ(out.ValueOrDie()[0].le, 1);
  EXPECT_EQ(out.ValueOrDie()[1].le, 3);
  EXPECT_EQ(out.ValueOrDie()[2].le, 5);
}

TEST(Executor, MissingInputNameIsKeyError) {
  Query q = Query::Input("S", KV());
  auto out = Executor::Execute(q.node(), {{"Other", {}}});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kKeyError);
}

TEST(Executor, PushEventToUnknownInputFails) {
  Query q = Query::Input("S", KV());
  auto exec = Executor::Create(q.node());
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec.ValueOrDie()->PushEvent("X", Event::Point(1, {1, 1})).ok());
}

TEST(Executor, IncrementalPushMatchesBatchExecution) {
  Query q = Query::Input("S", KV()).GroupApply({"K"}, [](Query g) {
    return g.Window(7).Count();
  });
  auto events = Points({{1, {1, 0}}, {2, {2, 0}}, {4, {1, 0}}, {9, {2, 0}}});

  auto batch = RunQ(q, events);
  ASSERT_TRUE(batch.ok());

  auto exec = Executor::Create(q.node());
  ASSERT_TRUE(exec.ok());
  for (const Event& e : events) {
    exec.ValueOrDie()->PushCtiAll(e.le);
    ASSERT_TRUE(exec.ValueOrDie()->PushEvent("S", e).ok());
  }
  exec.ValueOrDie()->Finish();
  EXPECT_TRUE(SameTemporalRelation(batch.ValueOrDie(),
                                   exec.ValueOrDie()->TakeOutput()));
}

TEST(Executor, RejectsEventBelowSourceCti) {
  // An event below its source's CTI is refused at the edge instead of
  // reaching an aggregate that already finalized the snapshots it touches.
  Query q = Query::Input("S", KV()).Window(10).Count();
  auto exec = Executor::Create(q.node()).ValueOrDie();
  std::vector<Event> accepted = Points({{105, {1, 0}}, {105, {1, 0}}});
  for (const Event& e : accepted) ASSERT_TRUE(exec->PushEvent("S", e).ok());
  ASSERT_TRUE(exec->PushCti("S", 200).ok());
  const Status below_cti = exec->PushEvent("S", Event::Point(105, {1, 0}));
  EXPECT_EQ(below_cti.code(), StatusCode::kInvalid) << below_cti.ToString();

  // Below a CTI mark earlier in the same batch.
  EventBatch marked;
  marked.AddCti(300);
  marked.Add(Event::Point(250, {1, 0}));
  EXPECT_EQ(exec->PushBatch("S", std::move(marked)).code(),
            StatusCode::kInvalid);

  // Nothing of either rejected push was delivered or advanced the source.
  accepted.push_back(Event::Point(250, {1, 0}));
  ASSERT_TRUE(exec->PushEvent("S", accepted.back()).ok());
  exec->Finish();
  auto offline = RunQ(q, accepted);
  ASSERT_TRUE(offline.ok());
  EXPECT_TRUE(SameTemporalRelation(offline.ValueOrDie(), exec->TakeOutput()));
}

TEST(Executor, RejectsLeRegressionWholeBatch) {
  Query q = Query::Input("S", KV()).Window(10).Count();
  auto exec = Executor::Create(q.node()).ValueOrDie();
  std::vector<Event> accepted = Points({{100, {1, 0}}});
  ASSERT_TRUE(exec->PushEvent("S", accepted[0]).ok());
  EXPECT_EQ(exec->PushEvent("S", Event::Point(90, {1, 0})).code(),
            StatusCode::kInvalid);
  // The in-order first event of a regressing batch is not delivered either.
  EventBatch regressed;
  regressed.Add(Event::Point(130, {1, 0}));
  regressed.Add(Event::Point(120, {1, 0}));
  EXPECT_EQ(exec->PushBatch("S", std::move(regressed)).code(),
            StatusCode::kInvalid);
  accepted.push_back(Event::Point(110, {1, 0}));
  ASSERT_TRUE(exec->PushEvent("S", accepted.back()).ok());
  exec->Finish();
  auto offline = RunQ(q, accepted);
  ASSERT_TRUE(offline.ok());
  EXPECT_TRUE(SameTemporalRelation(offline.ValueOrDie(), exec->TakeOutput()));
}

// ---------- UDO ----------

TEST(Udo, FiresOncePerBoundaryWithActiveEvents) {
  std::vector<std::pair<Timestamp, size_t>> calls;
  UdoFn fn = [&](Timestamp ws, Timestamp we,
                 const std::vector<Event>& active) {
    calls.emplace_back(we, active.size());
    (void)ws;
    return std::vector<Row>{{Value(static_cast<int64_t>(active.size()))}};
  };
  Query q = Query::Input("S", KV()).Udo(
      20, 10, fn, Schema::Of({{"N", ValueType::kInt64}}));
  auto out = RunQ(q, Points({{5, {1, 0}}, {12, {2, 0}}}));
  ASSERT_TRUE(out.ok());
  // Boundaries: 10 sees {5}; 20 sees {5,12}; 30 sees {12}.
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0], (std::pair<Timestamp, size_t>{10, 1}));
  EXPECT_EQ(calls[1], (std::pair<Timestamp, size_t>{20, 2}));
  EXPECT_EQ(calls[2], (std::pair<Timestamp, size_t>{30, 1}));
  // Output events live one hop each.
  EXPECT_EQ(out.ValueOrDie()[0].le, 10);
  EXPECT_EQ(out.ValueOrDie()[0].re, 20);
}

TEST(Udo, QuietStreamDoesNotSpinBoundaries) {
  int calls = 0;
  UdoFn fn = [&](Timestamp, Timestamp, const std::vector<Event>&) {
    ++calls;
    return std::vector<Row>{};
  };
  Query q = Query::Input("S", KV()).Udo(
      10, 10, fn, Schema::Of({{"N", ValueType::kInt64}}));
  // Two events very far apart: boundaries between them have no active events
  // and must be skipped, not enumerated.
  auto out = RunQ(q, Points({{5, {1, 0}}, {1000000, {2, 0}}}));
  ASSERT_TRUE(out.ok());
  EXPECT_LE(calls, 4);
}

// ---------- Convert ----------

TEST(Convert, PointRowRoundTrip) {
  Schema payload = KV();
  Schema rows = PointRowSchema(payload);
  Event e = Event::Point(42, {Value(1), Value(2)});
  auto row = RowFromEvent(e, false);
  ASSERT_TRUE(row.ok());
  auto back = EventFromRow(rows, row.ValueOrDie());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie().le, 42);
  EXPECT_TRUE(back.ValueOrDie().IsPoint());
  EXPECT_EQ(back.ValueOrDie().payload, e.payload);
}

TEST(Convert, IntervalRowRoundTrip) {
  Schema payload = KV();
  Schema rows = IntervalRowSchema(payload);
  Event e(10, 99, {Value(1), Value(2)});
  auto row = RowFromEvent(e, true);
  ASSERT_TRUE(row.ok());
  auto back = EventFromRow(rows, row.ValueOrDie());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie().le, 10);
  EXPECT_EQ(back.ValueOrDie().re, 99);
}

TEST(Convert, IntervalEventToPointLayoutFails) {
  Event e(10, 99, {Value(1)});
  EXPECT_FALSE(RowFromEvent(e, false).ok());
}

TEST(Convert, EmptyLifetimeRowRejected) {
  Schema rows = IntervalRowSchema(KV());
  EXPECT_FALSE(
      EventFromRow(rows, {Value(10), Value(10), Value(1), Value(2)}).ok());
}

// ---------- Select ----------

// The row path and the columnar kernel give a structured double compare the
// same IEEE meaning: a NaN cell passes only `!=`, and -0.0 equals 0.0.
TEST(Select, RowAndColumnarAgreeOnDoubleEdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> cells = {nan, -0.0, 0.0, 1.0};
  const Schema schema = Schema::Of({{"x", ValueType::kDouble}});
  std::vector<Event> input;
  for (size_t i = 0; i < cells.size(); ++i) {
    input.push_back(Event::Point(static_cast<Timestamp>(i), {Value(cells[i])}));
  }
  auto ieee = [](double a, CmpOp op, double b) {
    switch (op) {
      case CmpOp::kEq: return a == b;
      case CmpOp::kNe: return a != b;
      case CmpOp::kLt: return a < b;
      case CmpOp::kLe: return a <= b;
      case CmpOp::kGt: return a > b;
      case CmpOp::kGe: return a >= b;
    }
    return false;
  };
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    for (double lit : cells) {
      SCOPED_TRACE(std::string("x ") + CmpOpName(op) + " " +
                   Value(lit).ToString());
      std::vector<Timestamp> expected;
      for (size_t i = 0; i < cells.size(); ++i) {
        if (ieee(cells[i], op, lit)) {
          expected.push_back(static_cast<Timestamp>(i));
        }
      }
      const Query q = Query::Input("S", schema).WhereCmp("x", op, Value(lit));
      for (bool columnar : {false, true}) {
        auto exec = Executor::Create(q.node()).ValueOrDie();
        exec->set_columnar(columnar);
        auto out = exec->RunBatch({{"S", input}});
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        std::vector<Timestamp> kept;
        for (const Event& e : out.ValueOrDie()) kept.push_back(e.le);
        EXPECT_EQ(kept, expected) << (columnar ? "columnar" : "row");
      }
    }
  }
}

// Join and GroupApply keyed by a double column group -0.0 with 0.0 and every
// NaN with every other NaN, identically on the row path and on columnar
// batches (whose probes carry bulk-computed key hashes).
TEST(DoubleKeys, RowAndColumnarJoinAndGroupApplyAgree) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> keys = {-0.0, 0.0, nan, std::copysign(nan, -1.0)};
  const Schema schema =
      Schema::Of({{"K", ValueType::kDouble}, {"V", ValueType::kInt64}});
  std::vector<Event> input;
  for (size_t i = 0; i < keys.size(); ++i) {
    input.push_back(Event::Point(static_cast<Timestamp>(i + 1),
                                 {Value(keys[i]), Value(int64_t{1})}));
  }
  const Query base = Query::Input("S", schema).Window(10);
  const Query join = Query::TemporalJoin(base, base, {"K"}, {"K"});
  const Query count = Query::Input("S", schema).GroupApply(
      {"K"}, [](Query g) { return g.Window(10).Count(); });
  const Query shift = Query::Input("S", schema).GroupApply(
      {"K"}, [](Query g) { return g.ShiftLifetime(1); });

  // Each key class {-0.0, 0.0} and {NaN, -NaN} has two members, all alive
  // over [4, 11): every self-join pair matches.
  const std::vector<std::pair<const char*, Query>> queries = {
      {"join", join}, {"count", count}, {"shift", shift}};
  const std::vector<Event> count_expected = {
      Event(1, 2, {Value(0.0), Value(int64_t{1})}),
      Event(2, 11, {Value(0.0), Value(int64_t{2})}),
      Event(11, 12, {Value(0.0), Value(int64_t{1})}),
      Event(3, 4, {Value(nan), Value(int64_t{1})}),
      Event(4, 13, {Value(nan), Value(int64_t{2})}),
      Event(13, 14, {Value(nan), Value(int64_t{1})})};
  for (const auto& [name, q] : queries) {
    SCOPED_TRACE(name);
    std::vector<std::vector<Event>> outs;
    for (bool columnar : {false, true}) {
      auto exec = Executor::Create(q.node()).ValueOrDie();
      exec->set_columnar(columnar);
      auto out = exec->RunBatch({{"S", input}});
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      outs.push_back(out.ValueOrDie());
    }
    EXPECT_TRUE(SameTemporalRelation(outs[0], outs[1]));
    if (std::string(name) == "join") {
      EXPECT_EQ(outs[0].size(), 8u);
      EXPECT_EQ(outs[1].size(), 8u);
    } else if (std::string(name) == "count") {
      EXPECT_TRUE(SameTemporalRelation(outs[0], count_expected));
      EXPECT_TRUE(SameTemporalRelation(outs[1], count_expected));
    } else {
      EXPECT_EQ(outs[0].size(), keys.size());
      EXPECT_EQ(outs[1].size(), keys.size());
    }
  }
}

// ---------- SameTemporalRelation ----------

TEST(TemporalRelation, SplitLifetimesAreEquivalent) {
  std::vector<Event> whole = {Event(0, 10, {Value(1)})};
  std::vector<Event> split = {Event(0, 4, {Value(1)}), Event(4, 10, {Value(1)})};
  EXPECT_TRUE(SameTemporalRelation(whole, split));
}

TEST(TemporalRelation, MultiplicityMatters) {
  std::vector<Event> once = {Event(0, 10, {Value(1)})};
  std::vector<Event> twice = {Event(0, 10, {Value(1)}), Event(0, 10, {Value(1)})};
  EXPECT_FALSE(SameTemporalRelation(once, twice));
}

TEST(TemporalRelation, DifferentPayloadsDiffer) {
  EXPECT_FALSE(SameTemporalRelation({Event(0, 10, {Value(1)})},
                                    {Event(0, 10, {Value(2)})}));
}

}  // namespace
}  // namespace timr::temporal
