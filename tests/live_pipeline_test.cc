// Tests for the §VII "M3 loop" execution mode: the same annotated fragments
// TiMR runs as offline map-reduce stages process a live feed incrementally
// with identical cumulative results.

#include <gtest/gtest.h>

#include "bt/queries.h"
#include "common/rng.h"
#include "mr/cluster.h"
#include "temporal/executor.h"
#include "timr/live_pipeline.h"
#include "timr/timr.h"
#include "workload/generator.h"

namespace timr::framework {
namespace {

using temporal::Event;
using temporal::kHour;
using temporal::PartitionSpec;
using temporal::Query;
using temporal::SameTemporalRelation;

Schema ClickSchema() {
  return Schema::Of({{"UserId", ValueType::kInt64}, {"AdId", ValueType::kInt64}});
}

std::vector<Event> MakeClicks(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  for (int i = 0; i < n; ++i) {
    events.push_back(Event::Point(
        rng.UniformInt(0, 24 * kHour),
        {Value(rng.UniformInt(1, 50)), Value(rng.UniformInt(1, 6))}));
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.le < b.le; });
  return events;
}

Query TwoFragmentPlan() {
  // per-(user,ad) counts, repartitioned, per-ad max — two fragments.
  return Query::Input("ClickLog", ClickSchema())
      .Exchange(PartitionSpec::ByKeys({"UserId", "AdId"}))
      .GroupApply({"UserId", "AdId"},
                  [](Query g) { return g.Window(6 * kHour).Count("c"); })
      .Exchange(PartitionSpec::ByKeys({"AdId"}))
      .GroupApply({"AdId"}, [](Query g) {
        return g.Aggregate(temporal::AggregateSpec::Max("c", "m"));
      });
}

TEST(LivePipeline, MatchesOfflineTimrJob) {
  auto clicks = MakeClicks(1200, 3);
  Query plan = TwoFragmentPlan();

  mr::LocalCluster cluster(4, 2);
  auto offline = RunPlanOnEvents(&cluster, plan.node(),
                                 {{"ClickLog", {ClickSchema(), clicks}}});
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();

  auto live = LivePipeline::Create(plan.node());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live.ValueOrDie()->num_fragments(), 2u);
  for (const Event& e : clicks) {
    live.ValueOrDie()->PushCti(e.le);
    ASSERT_TRUE(live.ValueOrDie()->PushEvent("ClickLog", e).ok());
  }
  live.ValueOrDie()->Finish();

  EXPECT_TRUE(SameTemporalRelation(offline.ValueOrDie().output,
                                   live.ValueOrDie()->TakeOutput()));
}

TEST(LivePipeline, DeliversOutputIncrementally) {
  Query plan = Query::Input("ClickLog", ClickSchema())
                   .Exchange(PartitionSpec::ByKeys({"AdId"}))
                   .GroupApply({"AdId"}, [](Query g) {
                     return g.Window(100).Count();
                   });
  auto live = LivePipeline::Create(plan.node());
  ASSERT_TRUE(live.ok());

  size_t seen = 0;
  temporal::CallbackSink sink([&](const Event&) { ++seen; });
  live.ValueOrDie()->AddOutputSink(&sink);

  // Push events far apart: output for earlier windows must arrive before
  // Finish (low-latency, not batch-at-end).
  for (int i = 0; i < 10; ++i) {
    const temporal::Timestamp t = i * 1000;
    live.ValueOrDie()->PushCti(t);
    ASSERT_TRUE(live.ValueOrDie()
                    ->PushEvent("ClickLog", Event::Point(t, {Value(1), Value(1)}))
                    .ok());
  }
  EXPECT_GE(seen, 5u) << "results should stream out before end-of-feed";
  live.ValueOrDie()->Finish();
  EXPECT_EQ(seen, 10u);
}

TEST(LivePipeline, RunsTheFullBtFeaturePipeline) {
  workload::GeneratorConfig gen;
  gen.num_users = 150;
  gen.duration = 2 * temporal::kDay;
  auto log = workload::GenerateBtLog(gen);
  bt::BtQueryConfig cfg;
  cfg.selection_period = 3 * temporal::kDay;
  cfg.bot_search_threshold = 40;
  cfg.bot_click_threshold = 25;

  Query plan = bt::BtFeaturePipeline(cfg, bt::Annotation::kStandard);
  auto offline = temporal::Executor::Execute(
      bt::BtFeaturePipeline(cfg, bt::Annotation::kNone).node(),
      {{bt::kBtInput, log.events}});
  ASSERT_TRUE(offline.ok());

  auto live = LivePipeline::Create(plan.node());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  for (const Event& e : log.events) {
    live.ValueOrDie()->PushCti(e.le);
    ASSERT_TRUE(live.ValueOrDie()->PushEvent(bt::kBtInput, e).ok());
  }
  live.ValueOrDie()->Finish();
  EXPECT_TRUE(SameTemporalRelation(offline.ValueOrDie(),
                                   live.ValueOrDie()->TakeOutput()));
}

TEST(LivePipeline, RejectsEventBelowCtiAndStillMatchesOfflineReplay) {
  auto clicks = MakeClicks(400, 7);
  Query plan = TwoFragmentPlan();
  auto live = LivePipeline::Create(plan.node());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  std::vector<Event> accepted;
  size_t rejected = 0;
  for (size_t i = 0; i < clicks.size(); ++i) {
    // Now and then the source promises progress an hour ahead of the feed;
    // the events that then arrive inside that hour are below its CTI.
    if (i % 100 == 99) live.ValueOrDie()->PushCti(clicks[i].le + kHour);
    live.ValueOrDie()->PushCti(clicks[i].le);
    const Status st = live.ValueOrDie()->PushEvent("ClickLog", clicks[i]);
    if (st.ok()) {
      accepted.push_back(clicks[i]);
    } else {
      EXPECT_EQ(st.code(), StatusCode::kInvalid) << st.ToString();
      ++rejected;
    }
  }
  live.ValueOrDie()->Finish();
  EXPECT_GT(rejected, 0u);

  mr::LocalCluster cluster(4, 2);
  auto offline = RunPlanOnEvents(&cluster, plan.node(),
                                 {{"ClickLog", {ClickSchema(), accepted}}});
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  EXPECT_TRUE(SameTemporalRelation(offline.ValueOrDie().output,
                                   live.ValueOrDie()->TakeOutput()));
}

TEST(LivePipeline, UnknownSourceRejected) {
  auto live = LivePipeline::Create(TwoFragmentPlan().node());
  ASSERT_TRUE(live.ok());
  EXPECT_FALSE(
      live.ValueOrDie()->PushEvent("Nope", Event::Point(1, {Value(1), Value(1)}))
          .ok());
}

}  // namespace
}  // namespace timr::framework
