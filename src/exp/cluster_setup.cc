#include "src/exp/cluster_setup.h"

#include <algorithm>
#include <cassert>

namespace saba {

std::vector<JobSpec> GenerateClusterSetup(const std::vector<WorkloadSpec>& catalog,
                                          const ClusterSetupOptions& options, Rng* rng) {
  // Each job draws a dataset scale, and an instance count as a multiple of
  // the profiler's 8-node deployment.
  constexpr double kDatasetScales[] = {0.1, 1.0, 10.0};
  constexpr double kNodeMultipliers[] = {0.5, 1.0, 2.0, 3.0, 4.0};
  constexpr int kProfilingNodes = 8;
  assert(!catalog.empty());
  assert(options.num_servers >= 2);
  assert(rng != nullptr);

  std::vector<int> load(static_cast<size_t>(options.num_servers), 0);
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<size_t>(options.jobs_per_setup));

  for (int j = 0; j < options.jobs_per_setup; ++j) {
    const WorkloadSpec& base = rng->Choice(catalog);
    const double dataset = rng->Choice(kDatasetScales);
    const double multiplier = rng->Choice(kNodeMultipliers);
    int nodes = static_cast<int>(multiplier * kProfilingNodes + 0.5);
    nodes = std::clamp(nodes, 2, options.num_servers);

    // Place on the least-loaded servers, randomized among ties: shuffle,
    // then stable-sort by load. Enforces both placement constraints (the
    // one-instance-per-server constraint holds because each server is chosen
    // at most once per job).
    std::vector<NodeId> servers(static_cast<size_t>(options.num_servers));
    for (int s = 0; s < options.num_servers; ++s) {
      servers[static_cast<size_t>(s)] = s;
    }
    rng->Shuffle(&servers);
    std::stable_sort(servers.begin(), servers.end(), [&load](NodeId a, NodeId b) {
      return load[static_cast<size_t>(a)] < load[static_cast<size_t>(b)];
    });

    JobSpec job;
    job.spec = ScaleWorkload(base, dataset, nodes);
    for (int i = 0; i < nodes; ++i) {
      const NodeId server = servers[static_cast<size_t>(i)];
      assert(load[static_cast<size_t>(server)] < kMaxJobsPerServer &&
             "placement constraint violated: raise num_servers or lower jobs_per_setup");
      load[static_cast<size_t>(server)] += 1;
      job.hosts.push_back(server);
    }
    job.start_at = rng->Uniform(0, options.start_jitter_seconds);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace saba
