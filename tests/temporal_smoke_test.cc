// Early smoke tests for the temporal engine core; the full suites live in
// temporal_operator_test.cc / temporal_property_test.cc.

#include <gtest/gtest.h>

#include "temporal/executor.h"
#include "temporal/query.h"

namespace timr::temporal {
namespace {

Schema MeterSchema() {
  return Schema::Of({{"Id", ValueType::kInt64}, {"Power", ValueType::kInt64}});
}

std::vector<Event> Points(std::vector<std::pair<Timestamp, Row>> data) {
  std::vector<Event> out;
  for (auto& [t, row] : data) out.push_back(Event::Point(t, std::move(row)));
  return out;
}

TEST(TemporalSmoke, SelectFiltersEvents) {
  Query q = Query::Input("S", MeterSchema()).Where([](const Row& r) {
    return r[1].AsInt64() > 0;
  });
  auto out = Executor::Execute(
      q.node(), {{"S", Points({{1, {int64_t{1}, int64_t{0}}},
                               {2, {int64_t{1}, int64_t{5}}},
                               {3, {int64_t{1}, int64_t{0}}},
                               {4, {int64_t{1}, int64_t{7}}}})}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const auto& events = out.ValueOrDie();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].le, 2);
  EXPECT_EQ(events[1].le, 4);
}

// The paper's Figure 3: window w=3 then Count, over readings at t=1,2,3,5.
TEST(TemporalSmoke, WindowedCountMatchesFigure3Shape) {
  Query q = Query::Input("S", MeterSchema()).Window(3).Count();
  auto out = Executor::Execute(
      q.node(), {{"S", Points({{1, {int64_t{1}, int64_t{10}}},
                               {2, {int64_t{1}, int64_t{20}}},
                               {3, {int64_t{1}, int64_t{30}}},
                               {5, {int64_t{1}, int64_t{40}}}})}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Lifetimes: 1->[1,4), 2->[2,5), 3->[3,6), 5->[5,8). Active-count step
  // function: [1,2)=1 [2,3)=2 [3,4)=3 [4,5)=2 [5,6)=2 [6,8)=1.
  std::vector<Event> expected = {
      Event(1, 2, {Value(int64_t{1})}), Event(2, 3, {Value(int64_t{2})}),
      Event(3, 4, {Value(int64_t{3})}), Event(4, 5, {Value(int64_t{2})}),
      Event(5, 6, {Value(int64_t{2})}), Event(6, 8, {Value(int64_t{1})})};
  EXPECT_TRUE(SameTemporalRelation(out.ValueOrDie(), expected))
      << "got:";
}

TEST(TemporalSmoke, GroupApplyCountsPerKey) {
  Query q = Query::Input("S", MeterSchema()).GroupApply({"Id"}, [](Query g) {
    return g.Window(10).Count();
  });
  auto out = Executor::Execute(
      q.node(), {{"S", Points({{1, {int64_t{1}, int64_t{0}}},
                               {2, {int64_t{2}, int64_t{0}}},
                               {3, {int64_t{1}, int64_t{0}}}})}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Per key 1: count 1 on [1,3), 2 on [3,11), 1 on [11,13).
  // Per key 2: count 1 on [2,12).
  std::vector<Event> expected = {
      Event(1, 3, {Value(int64_t{1}), Value(int64_t{1})}),
      Event(3, 11, {Value(int64_t{1}), Value(int64_t{2})}),
      Event(11, 13, {Value(int64_t{1}), Value(int64_t{1})}),
      Event(2, 12, {Value(int64_t{2}), Value(int64_t{1})})};
  EXPECT_TRUE(SameTemporalRelation(out.ValueOrDie(), expected));
}

TEST(TemporalSmoke, TemporalJoinIntersectsLifetimes) {
  Schema s = MeterSchema();
  Query left = Query::Input("L", s).Window(5);
  Query right = Query::Input("R", s).Window(5);
  Query j = Query::TemporalJoin(left, right, {"Id"}, {"Id"});
  auto out = Executor::Execute(
      j.node(), {{"L", Points({{1, {int64_t{7}, int64_t{100}}}})},
                 {"R", Points({{3, {int64_t{7}, int64_t{200}}}})}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.ValueOrDie().size(), 1u);
  const Event& e = out.ValueOrDie()[0];
  EXPECT_EQ(e.le, 3);
  EXPECT_EQ(e.re, 6);
  ASSERT_EQ(e.payload.size(), 4u);
  EXPECT_EQ(e.payload[1].AsInt64(), 100);
  EXPECT_EQ(e.payload[3].AsInt64(), 200);
}

TEST(TemporalSmoke, AntiSemiJoinSuppressesCoveredPoints) {
  Schema s = MeterSchema();
  Query left = Query::Input("L", s);
  Query right = Query::Input("R", s).Window(4);
  Query a = Query::AntiSemiJoin(left, right, {"Id"}, {"Id"});
  // Right event at t=2 (key 7) covers [2,6). Left points: t=3 key 7 (dropped),
  // t=3 key 8 (kept), t=7 key 7 (kept: outside lifetime).
  auto out = Executor::Execute(
      a.node(), {{"L", Points({{3, {int64_t{7}, int64_t{1}}},
                               {3, {int64_t{8}, int64_t{2}}},
                               {7, {int64_t{7}, int64_t{3}}}})},
                 {"R", Points({{2, {int64_t{7}, int64_t{0}}}})}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.ValueOrDie().size(), 2u);
  EXPECT_EQ(out.ValueOrDie()[0].payload[0].AsInt64(), 8);
  EXPECT_EQ(out.ValueOrDie()[1].payload[1].AsInt64(), 3);
}

TEST(TemporalSmoke, MovedFromColumnarBatchReadsEmpty) {
  EventBatch batch;
  batch.BeginColumnar(MeterSchema());
  ASSERT_TRUE(batch.TryAppendColumnar(3, 4, {int64_t{7}, int64_t{1}}));
  batch.AddCti(5);

  EventBatch moved(std::move(batch));
  EXPECT_TRUE(moved.columnar());
  EXPECT_EQ(moved.NumEvents(), 1u);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the subject
  EXPECT_FALSE(batch.columnar());
  EXPECT_TRUE(batch.Empty());

  EventBatch assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.NumEvents(), 1u);
  EXPECT_FALSE(moved.columnar());
  EXPECT_TRUE(moved.Empty());
  // NOLINTEND(bugprone-use-after-move)
}

}  // namespace
}  // namespace timr::temporal
