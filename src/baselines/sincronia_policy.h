// Sincronia-like baseline (paper §8.4, study 6).
//
// Sincronia schedules *coflows* — the set of related flows an application
// stage produces — by computing a total order with the Bottleneck-Select-
// Scale-Iterate (BSSI) primal-dual greedy and assigning flow priorities from
// the order; a priority-enabled transport enforces the rates. It is
// clairvoyant (assumes flow sizes are known a priori) and optimizes coflow
// completion time, not application completion time — which is exactly the
// contrast the paper draws with Saba.
//
// Here a coflow is an application's in-flight flow set. Before every
// allocation the policy recomputes the BSSI order over remaining demands and
// maps order positions onto the available strict-priority classes.

#ifndef SRC_BASELINES_SINCRONIA_POLICY_H_
#define SRC_BASELINES_SINCRONIA_POLICY_H_

#include <cstdint>
#include <vector>

#include "src/net/flow_simulator.h"

namespace saba {

struct SincroniaConfig {
  // Priority classes available in the fabric (8 in the paper's setups).
  int num_priorities = 8;
};

// The per-port demands of a set of coflows, as compressed sparse rows over
// densely numbered ports. Coflow c belongs to app[c] and owns entries
// [row_begin[c], row_begin[c + 1]) of entry_port/entry_bits, at most one per
// port: entry e says the coflow must still push entry_bits[e] >= 0 bits
// through link[entry_port[e]]. `link` holds distinct LinkIds. BSSI rescans
// these demands once per placed coflow, so they live in flat arrays.
struct CoflowDemands {
  std::vector<AppId> app;
  std::vector<uint32_t> row_begin = {0};
  std::vector<uint32_t> entry_port;
  std::vector<double> entry_bits;
  std::vector<LinkId> link;
};

// Computes the BSSI order: result[0] is scheduled first (highest priority).
// Greedy from the back: repeatedly find the most-bottlenecked port (largest
// total unplaced demand, ties to the lowest LinkId) and place the coflow with
// the largest demand on it (ties to the highest app) *last* among the
// unplaced. This is Sincronia's 4-approximation ordering specialized to unit
// coflow weights.
//
// Each port total is re-summed from 0 for every position, over the unplaced
// coflows in ascending coflow order, and SincroniaScheduler sums each entry
// over its coflow's flows in ascending flow-id order. Every double, and so
// every tie-break, therefore depends only on the flow table: not on how the
// ports are numbered, nor on the entry order within a row.
std::vector<AppId> ComputeBssiOrder(const CoflowDemands& demands);

class SincroniaScheduler {
 public:
  SincroniaScheduler(FlowSimulator* flow_sim, SincroniaConfig config = {});

  // The installed hook holds `this`.
  SincroniaScheduler(const SincroniaScheduler&) = delete;
  SincroniaScheduler& operator=(const SincroniaScheduler&) = delete;

 private:
  void RefreshPriorities();

  FlowSimulator* flow_sim_;
  SincroniaConfig config_;

  // Scratch reused across refreshes, so building the demands allocates only
  // when a refresh sees more flows, entries or ports than any before it.
  // The active flows in ascending id order, and each one's coflow.
  std::vector<const ActiveFlow*> flows_;
  std::vector<uint32_t> flow_coflow_;
  CoflowDemands demands_;
  // Per LinkId: the latest entry of the refresh being built, -1 between
  // refreshes. Rows are built one coflow at a time, so an entry at or past
  // the current row's start is that coflow's own.
  std::vector<int32_t> latest_entry_;
};

}  // namespace saba

#endif  // SRC_BASELINES_SINCRONIA_POLICY_H_
