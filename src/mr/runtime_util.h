// Small helpers shared by the stage pipeline (pipeline.cc), the task bodies
// (worker.cc), and the skew logic (skew.cc): the canonical shuffle order every
// sort and merge must agree on, and the simulated-makespan model.

#pragma once

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/row.h"

namespace timr::mr {

inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Canonical shuffle sort order: primary by the Time column, ties broken by
/// full lexicographic row comparison, so reducer input is a pure function of
/// the routed row *set* — independent of arrival order, thread count, morsel
/// boundaries, and which process did the sorting (paper §III-C.1).
inline bool RowTimeLess(const Row& a, const Row& b) {
  const int64_t ta = a[0].AsInt64();
  const int64_t tb = b[0].AsInt64();
  if (ta != tb) return ta < tb;
  return std::lexicographical_compare(a.begin() + 1, a.end(), b.begin() + 1,
                                      b.end());
}

/// Deterministic list scheduling: assign task durations (in partition order)
/// to the least-loaded of `machines`; returns the makespan.
inline double Makespan(const std::vector<double>& task_seconds, int machines) {
  std::priority_queue<double, std::vector<double>, std::greater<>> loads;
  for (int i = 0; i < machines; ++i) loads.push(0.0);
  for (double t : task_seconds) {
    double least = loads.top();
    loads.pop();
    loads.push(least + t);
  }
  double makespan = 0;
  while (!loads.empty()) {
    makespan = std::max(makespan, loads.top());
    loads.pop();
  }
  return makespan;
}

inline std::string TaskLabel(const std::string& stage, int partition) {
  return "stage " + stage + " partition " + std::to_string(partition);
}

/// Median with the even-size convention used throughout the stats (mean of
/// the two middle elements). Takes the vector by value: nth_element reorders.
inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

}  // namespace timr::mr
