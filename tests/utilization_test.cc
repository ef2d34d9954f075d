// Quantitative checks of the §2.3 mechanism, sampled once a simulated second
// as bench_fig2_utilization does: LR alternates compute and communication
// phases, while PR keeps the network busy almost continuously yet stays
// compute-dominated — the facts behind Fig 2 and behind the whole
// sensitivity story.

#include <gtest/gtest.h>

#include <functional>

#include "src/net/allocator.h"
#include "src/net/flow_simulator.h"
#include "src/net/units.h"
#include "src/sim/event_scheduler.h"
#include "src/workload/app_runtime.h"
#include "src/workload/workload_catalog.h"

namespace saba {
namespace {

struct UtilizationProfile {
  double cpu_duty = 0;  // Fraction of samples with CPU busy.
  double net_duty = 0;  // Fraction of samples with network active.
  double completion = 0;
};

UtilizationProfile Profile(const WorkloadSpec& spec, double bandwidth_fraction) {
  EventScheduler scheduler;
  Network network(BuildSingleSwitchStar(8, RoundBps(Gbps(56) * bandwidth_fraction)));
  WfqMaxMinAllocator allocator;
  FlowSimulator flow_sim(&scheduler, &network, &allocator);
  NullNetworkPolicy policy;
  Application app(&scheduler, &flow_sim, spec, network.topology().Hosts(), 0, &policy);

  // Every second until the app finishes: is host 0 computing, and is its
  // egress above 5% of the (throttled) link?
  int samples = 0;
  int cpu_busy = 0;
  int net_busy = 0;
  std::function<void()> sample = [&] {
    if (app.finished()) {
      return;
    }
    ++samples;
    cpu_busy += app.IsComputing() ? 1 : 0;
    net_busy += flow_sim.HostEgressRate(0) / (Gbps(56) * bandwidth_fraction) >= 0.05 ? 1 : 0;
    scheduler.ScheduleAfter(1.0, sample);
  };
  scheduler.ScheduleAfter(0.0, sample);

  UtilizationProfile result;
  app.Start([&result](AppId, SimTime seconds) { result.completion = seconds; });
  scheduler.Run();

  result.cpu_duty = static_cast<double>(cpu_busy) / samples;
  result.net_duty = static_cast<double>(net_busy) / samples;
  return result;
}

TEST(UtilizationMechanicsTest, LrAlternatesPhases) {
  const UtilizationProfile lr = Profile(*FindWorkload("LR"), 0.75);
  // LR computes only a small fraction of the time; the rest is shuffle.
  EXPECT_LT(lr.cpu_duty, 0.4);
  EXPECT_GT(lr.net_duty, 0.5);
}

TEST(UtilizationMechanicsTest, PrKeepsNetworkBusyWhileComputing) {
  // The Fig 2b signature: network utilization high through most of the run
  // *and* high CPU duty at the same time (overlap + prefetch traffic).
  const UtilizationProfile pr = Profile(*FindWorkload("PR"), 0.75);
  EXPECT_GT(pr.cpu_duty, 0.8);
  EXPECT_GT(pr.net_duty, 0.8);
}

TEST(UtilizationMechanicsTest, ThrottlingStretchesLrCommPhases) {
  const UtilizationProfile fast = Profile(*FindWorkload("LR"), 0.75);
  const UtilizationProfile slow = Profile(*FindWorkload("LR"), 0.25);
  // §2.3: compute phases stay constant, comm phases stretch -> CPU duty
  // shrinks and completion grows ~2.6x.
  EXPECT_LT(slow.cpu_duty, fast.cpu_duty);
  EXPECT_NEAR(slow.completion / fast.completion, 2.6, 0.4);
}

TEST(UtilizationMechanicsTest, ThrottlingBarelyMovesPr) {
  const UtilizationProfile fast = Profile(*FindWorkload("PR"), 0.75);
  const UtilizationProfile slow = Profile(*FindWorkload("PR"), 0.25);
  EXPECT_NEAR(slow.completion / fast.completion, 1.37, 0.25);
}

TEST(UtilizationMechanicsTest, SortIsComputeBound) {
  const UtilizationProfile sort = Profile(*FindWorkload("Sort"), 1.0);
  EXPECT_GT(sort.cpu_duty, 0.9);
}

}  // namespace
}  // namespace saba
