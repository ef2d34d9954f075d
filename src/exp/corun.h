// Co-run executor: runs a set of jobs on a shared fabric under a named
// bandwidth-allocation policy and reports per-job completion times.
//
// This is the engine behind every evaluation figure: the same job set is
// executed once per policy and the speedup of policy A over policy B for a
// job is B's completion time divided by A's (§8.1).

#ifndef SRC_EXP_CORUN_H_
#define SRC_EXP_CORUN_H_

#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/core/sensitivity.h"
#include "src/net/allocation_engine.h"
#include "src/net/topology.h"
#include "src/sim/sim_time.h"
#include "src/workload/workload_spec.h"

namespace saba {

enum class PolicyKind {
  // InfiniBand FECN congestion control: per-flow max-min approximation, one
  // shared queue, efficiency degrading with cross-application contention.
  kBaseline,
  // Saba with the centralized controller (§5).
  kSaba,
  // Saba with the distributed controller and offline mapping database (§5.4).
  kSabaDistributed,
  // Saba with a dedicated queue per application at every port — the
  // unlimited-queue upper bound of Fig 11b.
  kSabaUnlimited,
  // Idealized per-application max-min: dedicated queue per workload, perfect
  // round-robin service (study 4).
  kIdealMaxMin,
  // Homa-like size-based priorities (study 5).
  kHoma,
  // Sincronia-like clairvoyant coflow scheduling (study 6).
  kSincronia,
  // pFabric-like idealized SRPT (related work; not in the paper's figures).
  kPFabric,
};

const char* PolicyName(PolicyKind kind);

// One job in a co-run: a (already scaled) workload on a set of hosts.
struct JobSpec {
  WorkloadSpec spec;
  std::vector<NodeId> hosts;
  SimTime start_at = 0;
};

// A scheduled fabric fault injected mid-run. Link events name the duplex pair
// (a, b) — both directions change together; node events take a switch out
// entirely. Down/degraded state is applied at `at` and restored at `until`
// (`until < 0` = never, the event is permanent). Live flows crossing a failed
// link are re-pinned via FlowSimulator::HandleTopologyChange; degradation
// scales capacity in place without moving any flow.
struct FailureEvent {
  enum class Kind {
    kLinkDown,     // Both directions of (a, b) go down, capacities preserved.
    kNodeDown,     // Node `a` goes down (all incident links unusable).
    kLinkDegrade,  // Both directions of (a, b) scale to capacity_factor x.
  };
  Kind kind = Kind::kLinkDown;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;  // Unused for kNodeDown.
  SimTime at = 0;
  SimTime until = -1;
  double capacity_factor = 1.0;  // kLinkDegrade only; in (0, 1].
};

struct CoRunOptions {
  PolicyKind policy = PolicyKind::kBaseline;
  // Queues per port available to the policy (Saba's Fig 11b knob; also the
  // priority classes for Homa/Sincronia).
  int queues_per_port = 8;
  // PLs used by Saba's controller.
  int num_pls = 8;
  // Baseline congestion-inefficiency strength (see FecnCongestionModel).
  double fecn_gamma = 0.30;
  // Per-application weight floor relative to the equal share (see
  // WeightSolverOptions::relative_min_weight).
  double relative_min_weight = 0.75;
  // Non-Saba co-existence (§3): queues reserved at the bottom of every port
  // and the capacity fraction Saba manages (see ControllerOptions).
  int reserved_queues = 0;
  double reserved_queue_weight = 0.1;
  double c_saba = 1.0;
  // Sensitivity table for the Saba variants (required there, unused
  // elsewhere).
  const SensitivityTable* table = nullptr;
  // Completion-event quantization grid (see FlowSimulator); jobs run for
  // minutes, so a 0.25 s grid costs <2% accuracy and saves an order of
  // magnitude in reallocations.
  double completion_quantum = 0.25;
  // Unread: the allocation engine always solves serially. Kept only because
  // perfbench/src/main.cc still sets it; deleted together with that line in
  // the next change to the benchmark.
  int solve_jobs = 1;
  // Faults to inject while the jobs run (applied in the order given for
  // events at the same instant).
  std::vector<FailureEvent> failures;
  uint64_t seed = 1;
};

struct CoRunResult {
  // Aligned with the input jobs.
  std::vector<double> completion_seconds;
  // Populated for Saba variants.
  ControllerStats controller_stats;
  uint64_t allocator_runs = 0;
  // How much re-rating the incremental allocation engine skipped (see
  // AllocationEngineStats; flows_frozen / (flows_rerated + flows_frozen) is
  // the saved fraction).
  AllocationEngineStats engine_stats;
  // Flows re-pinned around failures (FlowSimulator::rerouted_flow_count).
  uint64_t rerouted_flows = 0;
  SimTime makespan = 0;
};

// Runs all jobs to completion on a copy of `topology` under the policy.
// Deterministic given options.seed and the job set.
CoRunResult RunCoRun(const Topology& topology, const std::vector<JobSpec>& jobs,
                     const CoRunOptions& options);

// Per-job speedup of `test` over `reference` (reference_time / test_time).
std::vector<double> Speedups(const CoRunResult& reference, const CoRunResult& test);

}  // namespace saba

#endif  // SRC_EXP_CORUN_H_
