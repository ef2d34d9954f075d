// The controller-churn workload: the bench_fig11_scale universe at reduced
// flows. Jobs of 32 instances with fanout-4 ring connections are admitted to
// the distributed controller on the 5x spine-leaf fabric (9,720 hosts) until
// a target connection count is live; then each steady-state event replaces
// one job (its departure and a fresh arrival at one simulated instant, so
// exactly one coalesced flush). No flows are simulated: the router and the
// controller's port solves are the work.

#ifndef PERFBENCH_SRC_CHURN_H_
#define PERFBENCH_SRC_CHURN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/core/distributed_controller.h"
#include "src/core/sensitivity.h"
#include "src/net/topology.h"

namespace perfbench {

struct ChurnConfig {
  int scale = 5;              // Fabric multiplier (5 = 9,720 hosts).
  size_t target_flows = 0;    // Live connections at steady state.
  int events = 0;             // Steady-state replacements per universe.
};

struct ChurnConn {
  saba::NodeId src = saba::kInvalidNode;
  saba::NodeId dst = saba::kInvalidNode;
  uint64_t salt = 0;
};

struct ChurnJob {
  saba::AppId app = 0;
  std::string workload;
  std::vector<ChurnConn> conns;
};

struct ChurnSchedule {
  std::vector<ChurnJob> ramp;
  struct Event {
    ChurnJob departs;
    ChurnJob arrives;
  };
  std::vector<Event> events;
  size_t concurrent_flows = 0;
};

// Everything a universe consumes, generated from the seed: the fabric, 64
// random sensitivity models, the offline PL database and the churn script.
struct ChurnSetup {
  saba::Topology topology;
  saba::SensitivityTable table;
  saba::MappingDatabase database;
  ChurnSchedule schedule;
  uint64_t controller_seed = 0;
};

ChurnSetup BuildChurnSetup(uint64_t seed, const ChurnConfig& config);

// Attribution of one traced universe. Controller calls are timed directly
// (rpc_s, which includes the route resolution inside ConnCreate); settle
// steps are split by which public counter moved.
struct ChurnTrace {
  double wall_s = 0;
  double rpc_s = 0;
  double flush_s = 0;    // Steps that reprogrammed ports (controller flush).
  double realloc_s = 0;  // Steps that ran the (flow-less) simulator's reallocation.
  uint64_t realloc_steps = 0;
  RouterReplay router;  // Every connection the universe opened; not in wall_s.

  // Construction, teardown, the loop itself and any other step.
  double remainder() const { return wall_s - rpc_s - flush_s - realloc_s; }
};

struct ChurnRun {
  uint64_t digest = 0;  // Programmed state plus the invariant counters below.
  uint64_t port_reconfigurations = 0;
  uint64_t flushes = 0;
  uint64_t ports_flushed = 0;
  uint64_t conn_creates = 0;
  uint64_t eq2_hits = 0;
  uint64_t eq2_misses = 0;
  uint64_t events = 0;  // Scheduler dispatches.
  double wall_s = 0;    // Whole universe: construction, ramp, churn, teardown.
  double ramp_s = 0;    // Admitting the ramp's jobs from an empty fabric.
  std::vector<double> event_ms;  // Untraced only: one sample per churn event.
  ChurnTrace trace;              // Traced only.
};

ChurnRun RunChurnUniverse(const ChurnSetup& setup, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHURN_H_
