// Random cluster-setup generation for the main testbed experiment (§8.2).
//
// Each setup draws 16 jobs with replacement from the workload catalog; each
// job gets a random dataset scale (0.1x/1x/10x) and a random instance count
// (0.5x-4x of the 8-node profiling deployment), and instances are placed
// randomly under the paper's constraints: at most one instance of a given job
// per server, at most 16 jobs per server.

#ifndef SRC_EXP_CLUSTER_SETUP_H_
#define SRC_EXP_CLUSTER_SETUP_H_

#include <vector>

#include "src/exp/corun.h"
#include "src/sim/rng.h"
#include "src/workload/workload_spec.h"

namespace saba {

// The placement constraint: at most this many jobs share a server.
constexpr int kMaxJobsPerServer = 16;

struct ClusterSetupOptions {
  int num_servers = 32;
  int jobs_per_setup = 16;
  // Jobs start uniformly within this window, so stages never run in
  // lockstep.
  double start_jitter_seconds = 5.0;
};

// Generates one randomized setup from `catalog`. Deterministic per Rng state.
std::vector<JobSpec> GenerateClusterSetup(const std::vector<WorkloadSpec>& catalog,
                                          const ClusterSetupOptions& options, Rng* rng);

}  // namespace saba

#endif  // SRC_EXP_CLUSTER_SETUP_H_
