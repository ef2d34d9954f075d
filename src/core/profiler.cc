#include "src/core/profiler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/net/allocator.h"
#include "src/net/flow_simulator.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/log.h"
#include "src/workload/app_runtime.h"

namespace saba {

OfflineProfiler::OfflineProfiler(ProfilerOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  assert(options_.num_nodes >= 2);
}

double OfflineProfiler::RunIsolated(const WorkloadSpec& spec, double fraction, int num_nodes,
                                    double throttle_floor) {
  assert(fraction > 0 && fraction <= 1.0);
  assert(throttle_floor >= 0 && throttle_floor <= 1.0);
  const double effective = std::max(fraction, throttle_floor);
  EventScheduler scheduler;
  Network network(BuildSingleSwitchStar(num_nodes, RoundBps(kProfileLinkBps * effective)));
  WfqMaxMinAllocator allocator;
  FlowSimulator flow_sim(&scheduler, &network, &allocator);
  NullNetworkPolicy policy;

  std::vector<NodeId> hosts = network.topology().Hosts();
  Application app(&scheduler, &flow_sim, spec, hosts, /*id=*/0, &policy);
  double completion = -1;
  app.Start([&completion](AppId, SimTime seconds) { completion = seconds; });
  scheduler.Run();
  assert(completion > 0 && "application must run to completion");
  return completion;
}

std::vector<Sample> OfflineProfiler::MeasureSlowdownCurve(const WorkloadSpec& spec) {
  const double base = RunIsolated(spec, 1.0, spec.reference_nodes) *
                      std::exp(rng_.Normal(0.0, options_.noise_sigma));
  std::vector<Sample> samples;
  samples.reserve(std::size(kBandwidthFractions));
  for (double fraction : kBandwidthFractions) {
    const double t = RunIsolated(spec, fraction, spec.reference_nodes) *
                     std::exp(rng_.Normal(0.0, options_.noise_sigma));
    samples.push_back({fraction, t / base});
  }
  return samples;
}

ProfileResult OfflineProfiler::Profile(const WorkloadSpec& spec) {
  ProfileResult result;
  result.workload = spec.name;

  // The profiler deploys on its own node count; re-anchor the spec if it was
  // written for a different size.
  WorkloadSpec deployed =
      spec.reference_nodes == options_.num_nodes ? spec : ScaleWorkload(spec, 1.0,
                                                                        options_.num_nodes);

  const double base = RunIsolated(deployed, 1.0, options_.num_nodes);
  result.base_completion_seconds = base;
  const double noisy_base = base * std::exp(rng_.Normal(0.0, options_.noise_sigma));

  for (double fraction : kBandwidthFractions) {
    const double t = RunIsolated(deployed, fraction, options_.num_nodes) *
                     std::exp(rng_.Normal(0.0, options_.noise_sigma));
    result.samples.push_back({fraction, t / noisy_base});
  }

  result.model =
      SensitivityModel(FitPolynomial(result.samples, options_.polynomial_degree));
  result.r_squared = RSquaredClamped(result.model.polynomial(), result.samples);
  // A sensitivity model that predicts *material* slowdown from extra
  // bandwidth is a fitting artifact (noise or underfit); the controller
  // tolerates it, but the operator should know. Noise-level wiggles at the
  // flat end of the curve are expected and not worth reporting.
  {
    // Scan only the fitted range (from the lowest profiled fraction): the
    // extrapolated tail below it is never trusted anyway.
    const Polynomial& poly = result.model.polynomial();
    const double lo = kBandwidthFractions[0];
    double running_min = poly.Evaluate(lo);
    double max_rise = 0;
    for (int i = 1; i <= 32; ++i) {
      const double x = lo + (1.0 - lo) * static_cast<double>(i) / 32;
      const double value = poly.Evaluate(x);
      max_rise = std::max(max_rise, value - running_min);
      running_min = std::min(running_min, value);
    }
    if (max_rise > 0.2) {
      SABA_LOG_WARNING << "sensitivity model for " << spec.name << " rises by " << max_rise
                       << " with bandwidth (R2=" << result.r_squared
                       << "); consider more profiling runs or a different degree";
    }
  }
  return result;
}

SensitivityTable OfflineProfiler::ProfileAll(const std::vector<WorkloadSpec>& specs) {
  SensitivityTable table;
  for (const WorkloadSpec& spec : specs) {
    ProfileResult result = Profile(spec);
    SensitivityEntry entry;
    entry.model = result.model;
    entry.r_squared = result.r_squared;
    entry.samples = std::move(result.samples);
    entry.base_completion_seconds = result.base_completion_seconds;
    table.Put(spec.name, std::move(entry));
  }
  return table;
}

}  // namespace saba
