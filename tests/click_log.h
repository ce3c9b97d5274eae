// A synthetic click log for tests of small click-count plans: the schema
// and a seeded generator.

#pragma once

#include <vector>

#include "common/rng.h"
#include "common/row.h"
#include "temporal/event.h"

namespace timr::testutil {

inline Schema ClickSchema() {
  return Schema::Of({{"UserId", ValueType::kInt64}, {"AdId", ValueType::kInt64}});
}

// `n` events over `horizon` seconds, `ads` ad ids.
inline std::vector<temporal::Event> MakeClicks(int n, temporal::Timestamp horizon,
                                               int ads, uint64_t seed) {
  Rng rng(seed);
  std::vector<temporal::Event> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    events.push_back(temporal::Event::Point(
        rng.UniformInt(0, horizon),
        {Value(rng.UniformInt(1, 1000)), Value(rng.UniformInt(1, ads))}));
  }
  return events;
}

}  // namespace timr::testutil
