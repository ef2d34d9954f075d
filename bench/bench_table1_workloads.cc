// Table 1: the workload suite and its profiling datasets, plus the modeled
// equivalents this reproduction runs (stage structure and calibrated
// compute/communication balance).

#include <iostream>

#include "bench/bench_util.h"
#include "src/exp/report.h"
#include "src/net/units.h"

namespace saba {
namespace {

void Run() {
  PrintBanner(std::cout, "Table 1",
              "Dataset size of workloads in profiling (paper column) and the calibrated "
              "stage model standing in for each workload (reproduction columns).",
              EnvSeed());

  TablePrinter table({"Workload", "Category", "Paper dataset", "Stages", "Compute s/stage",
                      "Shuffle s/stage", "Overlap", "Fanout", "Base s"});
  const auto& datasets = Table1Datasets();
  // One task per workload: the base-completion simulation dominates.
  const std::vector<double> bases =
      RunSweep<double>("table1 workloads", datasets.size(), [&](size_t w) {
        return OfflineProfiler::RunIsolated(*FindWorkload(datasets[w].name), 1.0, 8);
      });
  for (size_t w = 0; w < datasets.size(); ++w) {
    const WorkloadDatasetInfo& info = datasets[w];
    const WorkloadSpec* spec = FindWorkload(info.name);
    const StageSpec& stage = spec->stages[0];
    const double comm_seconds =
        stage.bits_per_peer * static_cast<double>(spec->fanout) / Gbps(56);
    table.AddRow({info.name, info.category, info.dataset, std::to_string(spec->stages.size()),
                  Fmt(stage.compute_seconds, 1), Fmt(comm_seconds, 1), Fmt(stage.overlap, 2),
                  std::to_string(spec->fanout), Fmt(bases[w], 0)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace saba

int main() {
  saba::Run();
  return 0;
}
