// Command-line profiler: runs Saba's offline profiling for one catalog
// workload (or all of them) and prints the sensitivity table as CSV, for
// inspection and plotting. Nothing reads the CSV back: the controllers and
// the mapping database take the table in memory.
//
//   ./build/examples/profiler_tool              # profile the whole catalog
//   ./build/examples/profiler_tool LR           # one workload, with details
//   ./build/examples/profiler_tool LR 2         # ... with a degree-2 fit

#include <cstdio>
#include <optional>
#include <string>

#include "src/core/profiler.h"
#include "src/exp/knobs.h"
#include "src/workload/workload_catalog.h"

int main(int argc, char** argv) {
  using namespace saba;

  ProfilerOptions options;
  if (argc >= 3) {
    const std::optional<int64_t> degree = ParseInt64(argv[2]);
    if (!degree.has_value() || *degree < 1 || *degree > 5) {
      std::fprintf(stderr, "usage: %s [workload] [degree 1..5]\n", argv[0]);
      return 1;
    }
    options.polynomial_degree = static_cast<size_t>(*degree);
  }
  OfflineProfiler profiler(options);

  if (argc >= 2) {
    const WorkloadSpec* spec = FindWorkload(argv[1]);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'; catalog:", argv[1]);
      for (const WorkloadSpec& w : HiBenchCatalog()) {
        std::fprintf(stderr, " %s", w.name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
    const ProfileResult result = profiler.Profile(*spec);
    std::fprintf(stderr, "workload %s: base %.1f s, fit degree %zu, R^2 %.3f\n",
                 spec->name.c_str(), result.base_completion_seconds,
                 options.polynomial_degree, result.r_squared);
    std::fprintf(stderr, "samples (bandwidth fraction -> slowdown):\n");
    for (const Sample& s : result.samples) {
      std::fprintf(stderr, "  %3.0f%% -> %.2fx\n", s.b * 100, s.d);
    }
    SensitivityTable table;
    table.Put(spec->name,
              {result.model, result.r_squared, result.samples, result.base_completion_seconds});
    std::fputs(table.ToCsv().c_str(), stdout);
    return 0;
  }

  const SensitivityTable table = profiler.ProfileAll(HiBenchCatalog());
  std::fputs(table.ToCsv().c_str(), stdout);
  std::fprintf(stderr, "profiled %zu workloads (CSV on stdout: name, R^2, base seconds, "
                       "polynomial coefficients)\n",
               table.size());
  return 0;
}
