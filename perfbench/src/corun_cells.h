// Co-run cells for the star-testbed and spine-leaf-policies workloads.
//
// A cell is one policy run on one job set. The benchmark runs each cell two
// ways, and both must produce the same outcome digest:
//   - untraced: saba::RunCoRun, the entry point every figure bench uses;
//   - traced: the cell composed here from the same public constructors
//     RunCoRun uses, with every scheduler step timed and attributed to the
//     layer whose public counter moved during it, controller RPCs timed
//     through an AppNetworkPolicy decorator, and the connection routes
//     replayed afterwards through a fresh Router.

#ifndef PERFBENCH_SRC_CORUN_CELLS_H_
#define PERFBENCH_SRC_CORUN_CELLS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/exp/corun.h"
#include "src/net/routing.h"
#include "src/net/topology.h"

namespace perfbench {

struct CoRunCell {
  std::string policy;  // PolicyName(options.policy); the per-layer suffix.
  size_t job_set = 0;  // Index into the workload's job sets.
  saba::CoRunOptions options;
};

// Per-step attribution of one traced cell. Every step of the scheduler loop
// lands in exactly one of the step classes; controller RPC time is carved
// out of the step it ran in. wall_s also covers construction, teardown and
// the loop itself, which is what remainder() returns.
struct CellTrace {
  double wall_s = 0;
  double realloc_s = 0;     // Steps that moved FlowSimulator::allocator_runs().
  double completion_s = 0;  // Steps that moved completed_flow_count().
  double flush_s = 0;       // Steps that moved the controller's flush stats.
  double rpc_s = 0;         // AppNetworkPolicy calls (SabaClient -> controller).
  double stage_s = 0;       // Every other step: application stage logic.
  uint64_t realloc_steps = 0;
  uint64_t completion_ticks = 0;
  // The fresh-Router replay of every (src, dst, salt) the cell opened; not
  // part of wall_s.
  RouterReplay router;

  double remainder() const {
    return wall_s - realloc_s - completion_s - flush_s - rpc_s - stage_s;
  }
};

struct CellRun {
  uint64_t digest = 0;
  bool complete = false;  // Every job reported a completion time.
  double wall_s = 0;      // Host seconds for the whole cell.
  saba::CoRunResult result;
  uint64_t events = 0;  // Scheduler dispatches (traced runs only).
  CellTrace trace;      // Traced runs only.
  std::vector<saba::RouteKey> opened;  // Traced runs only: every connection opened.
};

// Fingerprint of everything deterministic in a co-run outcome: per-job
// completion seconds, makespan, reallocation and engine counters, reroutes
// and the controller's deterministic counters (never its wall-clock fields).
uint64_t OutcomeDigest(const saba::CoRunResult& result);

// The cell through saba::RunCoRun, timed from outside.
CellRun RunUntracedCell(const saba::Topology& topology, const std::vector<saba::JobSpec>& jobs,
                        const saba::CoRunOptions& options);

// The composed, traced cell. Supports the policies the benchmark runs
// (baseline, saba, ideal-max-min, homa, sincronia), without failures.
CellRun RunTracedCell(const saba::Topology& topology, const std::vector<saba::JobSpec>& jobs,
                      const saba::CoRunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CORUN_CELLS_H_
