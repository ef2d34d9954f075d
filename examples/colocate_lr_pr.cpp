// The paper's motivating experiment (§2.2, Fig 1b), reproduced through the
// public API: LR (bandwidth-sensitive) and PR (insensitive) share an
// 8-server cluster under three allocation regimes — per-flow max-min, Saba's
// sensitivity-derived skew, and idealized per-application max-min.
//
//   ./build/examples/colocate_lr_pr

#include <cstdio>

#include "src/core/profiler.h"
#include "src/exp/corun.h"
#include "src/net/units.h"
#include "src/workload/workload_catalog.h"

int main() {
  using namespace saba;

  const WorkloadSpec& lr = *FindWorkload("LR");
  const WorkloadSpec& pr = *FindWorkload("PR");

  // Stand-alone completion times are the denominator of every slowdown.
  const double lr_alone = OfflineProfiler::RunIsolated(lr, 1.0, 8);
  const double pr_alone = OfflineProfiler::RunIsolated(pr, 1.0, 8);
  std::printf("stand-alone: LR %.0f s, PR %.0f s\n\n", lr_alone, pr_alone);

  OfflineProfiler profiler(ProfilerOptions{});
  const SensitivityTable table = profiler.ProfileAll({lr, pr});

  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < 8; ++h) {
    hosts.push_back(h);
  }
  const std::vector<JobSpec> jobs = {{lr, hosts, 0.0}, {pr, hosts, 0.0}};
  const Topology topo = BuildSingleSwitchStar(8, Gbps64(56));

  std::printf("%-22s %14s %14s\n", "allocation scheme", "LR slowdown", "PR slowdown");
  for (PolicyKind policy :
       {PolicyKind::kBaseline, PolicyKind::kSaba, PolicyKind::kIdealMaxMin}) {
    CoRunOptions options;
    options.policy = policy;
    options.table = &table;
    const CoRunResult result = RunCoRun(topo, jobs, options);
    std::printf("%-22s %13.2fx %13.2fx\n", PolicyName(policy),
                result.completion_seconds[0] / lr_alone,
                result.completion_seconds[1] / pr_alone);
  }
  std::printf(
      "\npaper (Fig 1b): max-min LR 2.26x / PR 1.21x; skewed LR 1.48x / PR 1.34x.\n"
      "Saba trades a few percent of PR for a large LR win: that asymmetry is the\n"
      "whole idea behind sensitivity-aware allocation.\n");
  return 0;
}
