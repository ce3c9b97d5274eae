// Quickstart: the paper's Example 1 (RunningClickCount).
//
// A data analyst wants the number of clicks per ad over a sliding 6-hour
// window, across a large click log. The temporal query is four lines; TiMR
// runs the same, unmodified query on the map-reduce substrate.
//
//   build/examples/quickstart

#include <cstdio>

#include "common/rng.h"
#include "mr/cluster.h"
#include "temporal/executor.h"
#include "temporal/query.h"
#include "timr/timr.h"

using namespace timr;
namespace T = timr::temporal;

int main() {
  // --- A toy click log: [UserId, AdId] point events over two days. ---
  Schema click_schema =
      Schema::Of({{"UserId", ValueType::kInt64}, {"AdId", ValueType::kInt64}});
  Rng rng(1);
  std::vector<T::Event> clicks;
  for (int i = 0; i < 5000; ++i) {
    clicks.push_back(T::Event::Point(
        rng.UniformInt(0, 2 * T::kDay),
        {Value(rng.UniformInt(1, 200)), Value(rng.UniformInt(1, 5))}));
  }

  // --- The temporal query (paper §III-A; compare the LINQ in the paper). ---
  T::Query running_click_count =
      T::Query::Input("ClickLog", click_schema)
          .GroupApply({"AdId"}, [](T::Query per_ad) {
            return per_ad.Window(6 * T::kHour).Count("ClickCount");
          });

  // --- Run it single-node (what a DSMS would do over a live feed). ---
  auto single =
      T::Executor::Execute(running_click_count.node(), {{"ClickLog", clicks}});
  TIMR_CHECK_OK(single.status());
  std::printf("single-node: %zu count-change events\n",
              single.ValueOrDie().size());
  std::printf("first few snapshots (ad, count, valid interval):\n");
  for (size_t i = 0; i < 5 && i < single.ValueOrDie().size(); ++i) {
    const T::Event& e = single.ValueOrDie()[i];
    std::printf("  ad=%lld count=%lld over [%llds, %llds)\n",
                static_cast<long long>(e.payload[0].AsInt64()),
                static_cast<long long>(e.payload[1].AsInt64()),
                static_cast<long long>(e.le), static_cast<long long>(e.re));
  }

  // --- Run the SAME query through TiMR on the map-reduce cluster. The only
  // change is one annotation: partition by AdId (paper Figure 7). ---
  T::Query annotated =
      T::Query::Input("ClickLog", click_schema)
          .Exchange(T::PartitionSpec::ByKeys({"AdId"}))
          .GroupApply({"AdId"}, [](T::Query per_ad) {
            return per_ad.Window(6 * T::kHour).Count("ClickCount");
          });
  mr::LocalCluster cluster(/*num_machines=*/8);
  auto dist = framework::RunPlanOnEvents(
      &cluster, annotated.node(), {{"ClickLog", {click_schema, clicks}}});
  TIMR_CHECK_OK(dist.status());

  std::printf("\nTiMR on %d machines: %zu events across %d partitions\n",
              cluster.num_machines(), dist.ValueOrDie().output.size(),
              dist.ValueOrDie().job_stats.stages[0].partitions);
  const bool identical = T::SameTemporalRelation(single.ValueOrDie(),
                                                 dist.ValueOrDie().output);
  std::printf("outputs identical to single-node: %s\n",
              identical ? "yes" : "NO (bug!)");
  TIMR_CHECK(identical);
  return 0;
}
