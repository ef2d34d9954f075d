// Text-format experiment scenarios.
//
// A scenario file describes a fabric, an allocation policy, and a set of
// jobs, so that experiments can be run (and shared) without writing C++:
//
//     # lines starting with '#' are comments
//     topology star servers=32 capacity_gbps=56
//     policy saba
//     seed 7
//     gamma 0.30
//     queues 8
//     floor 0.75
//     job LR nodes=8
//     job PR nodes=16 dataset=10 start=2.5
//     fail link a=0 b=16 at=1.5 until=4.0
//     fail switch id=20 at=2.0
//     degrade link a=16 b=18 at=1.0 factor=0.5 until=3.0
//
// Topologies: `star servers=N capacity_gbps=C`,
// `spineleaf spine=S leaf=L tor=T hosts_per_tor=H pods=P capacity_gbps=C`, or
// `fattree k=K capacity_gbps=C core_gbps=C2` (core_gbps defaults to
// capacity_gbps; lower it for an oversubscribed core). A kind takes only its
// own keys; any other key is an error. Counts are integers,
// capacities at least 0.001 Gb/s; every spine-leaf pod needs a ToR and a
// leaf, and more than one pod needs a spine. A fabric has at most 173,184
// nodes and 1,486,080 directed links (16x the fig11-scale fabric). The FECN
// `gamma` is in [0, 10]; `queues` per port is in [1, 16], InfiniBand's
// virtual-lane ceiling; `seed` takes any unsigned 64-bit value.
// Policies: baseline, saba, saba-distributed, saba-unlimited, ideal-max-min,
// homa (needs queues >= 2), sincronia, pfabric. Jobs reference catalog
// workload names; `nodes`, `dataset` (scale factor) and `start` (seconds) are
// optional. Instances are placed on the least-loaded servers (deterministic
// given the seed).
//
// Failure directives inject mid-run faults (see FailureEvent in corun.h):
// `fail link` takes a duplex endpoint pair down at `at` (restored at `until`
// if given), `fail switch` takes a whole switch down, and `degrade link`
// scales the pair's capacity by `factor` in [0.001, 1]. Node ids and link
// existence are validated against the scenario's topology, so failure lines
// may appear before or after the topology line.
//
// The parser returns descriptive errors rather than throwing: scenario files
// are user input.

#ifndef SRC_EXP_SCENARIO_H_
#define SRC_EXP_SCENARIO_H_

#include <optional>
#include <string>
#include <vector>

#include "src/exp/corun.h"

namespace saba {

struct ScenarioJob {
  std::string workload;
  int nodes = 8;
  double dataset_scale = 1.0;
  double start_at = 0;
};

struct Scenario {
  Topology topology;
  CoRunOptions options;
  std::vector<ScenarioJob> jobs;
  uint64_t seed = 1;
};

// Parses scenario text. On failure returns std::nullopt and, if `error` is
// non-null, stores a message naming the offending line.
std::optional<Scenario> ParseScenario(const std::string& text, std::string* error = nullptr);

// Materializes the scenario's jobs: scales workloads, places instances on the
// least-loaded servers (shuffled, then stable-sorted by load), and applies
// start times. Requires every workload to exist in the catalog (the parser
// already guarantees this).
std::vector<JobSpec> BuildScenarioJobs(const Scenario& scenario);

// Convenience: parse + profile the referenced workloads + run the co-run.
// The caller provides the profiled table (policies other than Saba ignore
// it).
CoRunResult RunScenario(const Scenario& scenario, const SensitivityTable& table);

}  // namespace saba

#endif  // SRC_EXP_SCENARIO_H_
