// Shared setup for the large-scale simulation benches (Figures 10 and 11):
// the 1,944-server spine-leaf fabric, the 20 synthetic workloads profiled on
// an 18-node rack, and the random placement of 97 instances per workload
// (§8.1, §8.4).

#ifndef BENCH_SIM_CLUSTER_H_
#define BENCH_SIM_CLUSTER_H_

#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "src/exp/corun.h"
#include "src/net/units.h"
#include "src/workload/workload_catalog.h"

namespace saba {

// The synthetic workloads of §8.1.
constexpr int kSimWorkloads = 20;

struct SimClusterConfig {
  // Instances per workload; the paper runs 97 on 1,944 servers. SABA_FIG10_INSTANCES
  // scales this down for quick passes.
  int instances_per_workload = 97;
  uint64_t seed = 42;
};

struct SimCluster {
  Topology topology;
  std::vector<WorkloadSpec> workloads;
  std::vector<JobSpec> jobs;
  SensitivityTable table;
};

// Builds the cluster on the paper's 54/102/108/18 spine-leaf fabric
// (SpineLeafParams' defaults).
inline SimCluster BuildSimCluster(const SimClusterConfig& config) {
  SimCluster cluster;
  const SpineLeafParams fabric;
  cluster.topology = BuildSpineLeaf(fabric);

  Rng rng(config.seed);
  cluster.workloads = GenerateSyntheticWorkloads(static_cast<size_t>(kSimWorkloads), &rng);

  // Profile each synthetic workload on a rack-scale (18-node) deployment.
  ProfilerOptions profiler_options;
  profiler_options.num_nodes = fabric.hosts_per_tor;
  profiler_options.seed = config.seed;
  OfflineProfiler profiler(profiler_options);
  cluster.table = profiler.ProfileAll(cluster.workloads);

  // Each server runs at most one workload instance; instances are spread
  // randomly across the fabric (§8.1).
  std::vector<NodeId> servers = cluster.topology.Hosts();
  rng.Shuffle(&servers);
  const size_t needed = static_cast<size_t>(kSimWorkloads) *
                        static_cast<size_t>(config.instances_per_workload);
  assert(needed <= servers.size() && "fabric too small for the instance count");
  size_t cursor = 0;
  for (const WorkloadSpec& spec : cluster.workloads) {
    JobSpec job;
    job.spec = ScaleWorkload(spec, 1.0, config.instances_per_workload);
    for (int i = 0; i < config.instances_per_workload; ++i) {
      job.hosts.push_back(servers[cursor++]);
    }
    job.start_at = rng.Uniform(0, 5.0);
    cluster.jobs.push_back(std::move(job));
  }
  return cluster;
}

}  // namespace saba

#endif  // BENCH_SIM_CLUSTER_H_
