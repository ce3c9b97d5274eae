// Benchmark program: runs one workload and prints a human-readable summary
// followed by one JSON report line (the last line of stdout).
//
//   timr_perfbench --workload bt_batch --seed 20120401 --seconds 10 --trace 0
//                  [--size full|tiny] [--perturb] [--trace-out spans.json]
//
// perfbench/run.py builds this binary and turns the report into the
// benchmark's result line.

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Report;

/// A "Key:   123 kB" field of /proc/<pid>/status, in kB (0 when absent).
long StatusKb(const std::string& pid, const char* key) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, len, key) == 0) return std::atol(line.c_str() + len);
  }
  return 0;
}

/// Resident kB of this process's direct children (process-mode workers).
long ChildrenRssKb() {
  long total = 0;
  DIR* tasks = ::opendir("/proc/self/task");
  if (tasks == nullptr) return 0;
  while (dirent* t = ::readdir(tasks)) {
    if (t->d_name[0] == '.') continue;
    std::ifstream f(std::string("/proc/self/task/") + t->d_name + "/children");
    std::string pid;
    while (f >> pid) total += StatusKb(pid, "VmRSS:");
  }
  ::closedir(tasks);
  return total;
}

/// Samples the children's resident memory every 10 ms; peak_rss_mb is this
/// process's high-water mark plus the largest children total seen.
class ChildrenRssSampler {
 public:
  ChildrenRssSampler()
      : thread_([this] {
          while (!stop_.load()) {
            const long kb = ChildrenRssKb();
            if (kb > peak_kb_.load()) peak_kb_.store(kb);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }) {}
  ~ChildrenRssSampler() {
    stop_.store(true);
    thread_.join();
  }
  ChildrenRssSampler(const ChildrenRssSampler&) = delete;
  ChildrenRssSampler& operator=(const ChildrenRssSampler&) = delete;

  long peak_kb() const { return peak_kb_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<long> peak_kb_{0};
  std::thread thread_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(metrics[i].name) + ":{\"value\":" +
           JsonNumber(metrics[i].value) + ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "          [--size full|tiny] [--perturb] [--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--perturb") {
      args.perturb = true;
    } else if (!has_value) {
      return Usage(argv[0]);
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--size") {
      args.size = argv[++i];
    } else if (flag == "--trace-out") {
      args.trace_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.workload.empty() || (args.size != "full" && args.size != "tiny")) {
    return Usage(argv[0]);
  }

  Report report;
  long children_peak_kb = 0;
  {
    ChildrenRssSampler sampler;
    report = perfbench::RunWorkload(args);
    children_peak_kb = sampler.peak_kb();
  }
  const long self_peak_kb = StatusKb("self", "VmHWM:");
  report.end_to_end.push_back(
      {"peak_rss_mb", static_cast<double>(self_peak_kb + children_peak_kb) / 1024.0, "MB"});
  report.ungated.push_back(
      {"failed_ops_ratio",
       report.attempted > 0 ? static_cast<double>(report.failed) / report.attempted : 1.0,
       "ratio"});

  std::printf("workload %s, seed %llu, %lld input events, %lld measured jobs per median\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(report.input_events),
              static_cast<long long>(report.samples));
  PrintMetrics("end-to-end (gated):", report.end_to_end);
  PrintMetrics("end-to-end (not gated):", report.ungated);
  if (args.trace) PrintMetrics("per-layer (traced run):", report.per_layer);
  for (const std::string& f : report.failures) std::printf("FAILED: %s\n", f.c_str());

  std::ostringstream os;
  os << "{\"workload\":" << JsonString(args.workload) << ",\"seed\":" << args.seed
     << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"size\":" << JsonString(args.size)
     << ",\"seconds\":" << JsonNumber(args.seconds)
     << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << JsonString(std::string("gcc-compatible ") + __VERSION__)
     << ",\"input_events\":" << report.input_events << ",\"samples\":" << report.samples
     << ",\"job_walls_s\":" << JsonArray(report.job_walls)
     << ",\"custom_walls_s\":" << JsonArray(report.custom_walls)
     << ",\"attempted\":" << report.attempted << ",\"failed\":" << report.failed
     << ",\"failures\":[";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    os << (i == 0 ? "" : ",") << JsonString(report.failures[i]);
  }
  os << "],\"end_to_end\":" << JsonMetrics(report.end_to_end)
     << ",\"ungated\":" << JsonMetrics(report.ungated)
     << ",\"per_layer\":" << JsonMetrics(report.per_layer)
     << ",\"trace_check\":{\"jobs\":" << report.jobs_traced
     << ",\"job_wall_s\":" << JsonNumber(report.trace_job_wall_s)
     << ",\"covered_s\":" << JsonNumber(report.trace_covered_s)
     << ",\"gap_s\":" << JsonNumber(report.trace_gap_s)
     << ",\"spans_dropped\":" << report.spans_dropped << "}}";
  std::printf("%s\n", os.str().c_str());
  return report.failed == 0 ? 0 : 1;
}
