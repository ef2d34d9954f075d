// Shared helpers for the figure-reproduction benches.
//
// Every bench prints its table(s) to stdout with a banner naming the figure,
// the knobs, and the seed. Scale knobs (setup counts, scenario counts) come
// from environment variables so CI can run quick passes while a full
// reproduction uses the paper's counts; parsing is strict (src/exp/knobs.h)
// so a typo'd knob aborts instead of silently running an empty sweep.
//
// Independent simulation cells run through the SweepRunner (SABA_JOBS worker
// threads, deterministic task order — see DESIGN.md "Determinism & threading
// model"). Sweep throughput counters go to stderr: stdout is the report and
// must stay byte-identical across thread counts.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/profiler.h"
#include "src/exp/knobs.h"
#include "src/exp/sweep_runner.h"
#include "src/workload/workload_catalog.h"

namespace saba {

// Profiles the HiBench catalog with the paper's standard settings (8 nodes,
// 56 Gb/s, degree-3 fits, light measurement noise).
inline SensitivityTable ProfileCatalog(uint64_t seed, size_t degree = 3) {
  ProfilerOptions options;
  options.polynomial_degree = degree;
  options.seed = seed;
  return OfflineProfiler(options).ProfileAll(HiBenchCatalog());
}

// Random convex decreasing polynomial of degree k in (1-b): slope, curvature
// and cubic term all non-negative keeps D convex and non-increasing in b.
inline SensitivityModel RandomConvexModel(size_t degree, Rng* rng) {
  const double s = rng->Uniform(0.1, 4.0);
  const double q = degree >= 2 ? rng->Uniform(0.0, 3.0) : 0.0;
  const double c = degree >= 3 ? rng->Uniform(0.0, 2.0) : 0.0;
  // Expand 1 + s(1-b) + q(1-b)^2 + c(1-b)^3.
  return SensitivityModel{Polynomial({1 + s + q + c, -(s + 2 * q + 3 * c), q + 3 * c, -c})};
}

// Fans `num_tasks` independent tasks across the SABA_JOBS sweep pool and
// returns their results in task order; the sweep's tasks/s and speedup
// counters are printed to stderr under `label`.
template <typename T>
std::vector<T> RunSweep(const std::string& label, size_t num_tasks,
                        const std::function<T(size_t)>& task) {
  SweepRunner runner;
  std::vector<T> results = runner.Map<T>(num_tasks, task);
  std::cerr << "[sweep " << label << "] " << runner.stats().Summary() << '\n';
  return results;
}

// Seeded variant: each task gets the private stream Rng::ForStream(seed, i).
template <typename T>
std::vector<T> RunSeededSweep(const std::string& label, size_t num_tasks, uint64_t root_seed,
                              const std::function<T(size_t, Rng*)>& task) {
  SweepRunner runner;
  std::vector<T> results = runner.MapSeeded<T>(num_tasks, root_seed, task);
  std::cerr << "[sweep " << label << "] " << runner.stats().Summary() << '\n';
  return results;
}

}  // namespace saba

#endif  // BENCH_BENCH_UTIL_H_
