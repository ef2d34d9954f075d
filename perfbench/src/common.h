// Shared helpers for the benchmark program: host-time spans, robust summary
// statistics, process memory, outcome digests and the metric table that
// main.cc prints as JSON.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/core/solve_cache.h"
#include "src/net/routing.h"
#include "src/net/topology.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double SecondsSince(Clock::time_point start) { return SecondsBetween(start, Clock::now()); }

// Adds the host seconds of its own lifetime to *sink.
class Span {
 public:
  explicit Span(double* sink) : sink_(sink), start_(Clock::now()) {}
  ~Span() { *sink_ += SecondsSince(start_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* sink_;
  Clock::time_point start_;
};

inline double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

inline double Min(const std::vector<double>& xs) {
  return xs.empty() ? 0 : *std::min_element(xs.begin(), xs.end());
}

// Nearest-rank percentile (p in [0, 100]): the smallest sample with at least
// p% of the samples at or below it, so the reported value is a real sample
// and n * (1 - p/100) samples lie at or beyond it.
inline double NearestRank(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(xs.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

// Peak resident set of this process (getrusage high-water mark), MiB.
double PeakRssMb();
// Current resident set of this process (/proc/self/statm), MiB.
double CurrentRssMb();

// FNV-1a fingerprint of an outcome, built with the simulator's own HashBytes.
class Digest {
 public:
  void Add(uint64_t v) { h_ = saba::HashBytes(h_, &v, sizeof(v)); }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = saba::kFnvOffsetBasis;
};

std::string Hex(uint64_t v);

// What moves when a controller flushes: only FlushDirtyPorts reprograms
// ports or records calculation time (RPCs merely mark ports dirty). A null
// controller never flushes.
struct FlushMark {
  uint64_t reconfigurations = 0;
  double calc_seconds = 0;
  bool operator!=(const FlushMark& o) const {
    return reconfigurations != o.reconfigurations || calc_seconds != o.calc_seconds;
  }
};

inline FlushMark FlushMarkOf(const saba::CentralizedController* controller) {
  if (controller == nullptr) {
    return {};
  }
  return {controller->stats().port_reconfigurations, controller->stats().total_calc_wall_seconds};
}

// A fresh Router resolving a recorded list of connections: the router layer
// timed from outside, after the run that opened them.
struct RouterReplay {
  double resolve_s = 0;  // Host seconds for every Route() call.
  uint64_t routes = 0;   // Route() calls made.
  double rss_mb = 0;     // Resident-memory growth while the router lived.
};

RouterReplay ReplayRoutes(const saba::Topology& topology, const std::vector<saba::RouteKey>& keys);

// One reported metric. Counts print as exact integers.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool exact = false;
};

class MetricTable {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit, false});
  }
  void AddCount(const std::string& name, uint64_t count) {
    metrics_.push_back({name, static_cast<double>(count), "count", true});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
