// Figure 1: the motivation experiments.
//
// (a) Slowdown of each workload when NIC bandwidth is throttled to 75% and
//     25% of the 56 Gb/s link, measured in isolation on 8 servers.
//     Paper: slowdowns at 25% range from 1.1x (Sort) to 3.4x (LR), avg 2.1x.
// (b) LR and PR co-running on the same 8 servers under (i) per-flow max-min
//     (InfiniBand baseline) and (ii) the skewed, sensitivity-derived split.
//     Paper: max-min LR 2.26x / PR 1.21x; skewed LR 1.48x / PR 1.34x.

#include <iostream>

#include "bench/bench_util.h"
#include "src/exp/corun.h"
#include "src/exp/report.h"
#include "src/net/units.h"
#include "src/numerics/stats.h"

namespace saba {
namespace {

void Fig1a() {
  std::cout << "--- Fig 1a: slowdown under throttled bandwidth (isolation, 8 servers) ---\n";
  TablePrinter table({"Workload", "Slowdown @75%", "Slowdown @25%", "Paper @25%"});
  const char* paper25[] = {"3.4", "~3.4", "~2.8", "~2.6", "~2.2", "~2.0",
                           "1.4", "~1.2", "~1.5", "1.1"};
  const auto& catalog = HiBenchCatalog();
  // One task per workload: three isolated runs (full / 75% / 25% bandwidth).
  struct Slowdowns {
    double d75 = 0;
    double d25 = 0;
  };
  const std::vector<Slowdowns> rows =
      RunSweep<Slowdowns>("fig1a workloads", catalog.size(), [&](size_t w) {
        const WorkloadSpec& spec = catalog[w];
        const double base = OfflineProfiler::RunIsolated(spec, 1.0, 8);
        return Slowdowns{OfflineProfiler::RunIsolated(spec, 0.75, 8) / base,
                         OfflineProfiler::RunIsolated(spec, 0.25, 8) / base};
      });
  double total = 0;
  for (size_t w = 0; w < catalog.size(); ++w) {
    total += rows[w].d25;
    table.AddRow({catalog[w].name, Fmt(rows[w].d75), Fmt(rows[w].d25), paper25[w]});
  }
  table.Print(std::cout);
  std::cout << "average slowdown @25%: " << Fmt(total / 10) << "  (paper: 2.1)\n\n";
}

void Fig1b(const SensitivityTable& table) {
  std::cout << "--- Fig 1b: LR + PR co-run, max-min vs skewed (Saba) allocation ---\n";
  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < 8; ++h) {
    hosts.push_back(h);
  }
  const std::vector<JobSpec> jobs = {{*FindWorkload("LR"), hosts, 0.0},
                                     {*FindWorkload("PR"), hosts, 0.0}};
  const Topology topo = BuildSingleSwitchStar(8, Gbps64(56));

  // Four independent simulations: the two isolated references and the two
  // co-runs. Results are keyed by task index.
  struct Fig1bCell {
    double isolated = 0;
    CoRunResult corun;
  };
  const std::vector<Fig1bCell> cells = RunSweep<Fig1bCell>("fig1b cells", 4, [&](size_t t) {
    Fig1bCell cell;
    switch (t) {
      case 0:
        cell.isolated = OfflineProfiler::RunIsolated(*FindWorkload("LR"), 1.0, 8);
        break;
      case 1:
        cell.isolated = OfflineProfiler::RunIsolated(*FindWorkload("PR"), 1.0, 8);
        break;
      case 2: {
        CoRunOptions baseline_options;
        baseline_options.policy = PolicyKind::kBaseline;
        cell.corun = RunCoRun(topo, jobs, baseline_options);
        break;
      }
      default: {
        CoRunOptions saba_options;
        saba_options.policy = PolicyKind::kSaba;
        saba_options.table = &table;
        cell.corun = RunCoRun(topo, jobs, saba_options);
        break;
      }
    }
    return cell;
  });
  const double lr_alone = cells[0].isolated;
  const double pr_alone = cells[1].isolated;
  const CoRunResult& maxmin = cells[2].corun;
  const CoRunResult& skewed = cells[3].corun;

  TablePrinter out({"Workload", "Max-min slowdown", "Skewed slowdown", "Paper max-min",
                    "Paper skewed"});
  out.AddRow({"LR", Fmt(maxmin.completion_seconds[0] / lr_alone),
              Fmt(skewed.completion_seconds[0] / lr_alone), "2.26", "1.48"});
  out.AddRow({"PR", Fmt(maxmin.completion_seconds[1] / pr_alone),
              Fmt(skewed.completion_seconds[1] / pr_alone), "1.21", "1.34"});
  out.Print(std::cout);
}

void Run() {
  PrintBanner(std::cout, "Figure 1",
              "Motivation: bandwidth sensitivity varies across workloads (a), and skewing "
              "bandwidth toward the sensitive workload beats max-min fairness (b).",
              EnvSeed());
  Fig1a();
  const SensitivityTable table = ProfileCatalog(EnvSeed());
  Fig1b(table);
}

}  // namespace
}  // namespace saba

int main() {
  saba::Run();
  return 0;
}
