// Homa-like baseline (paper §8.4, study 5).
//
// Homa is a receiver-driven transport that maps messages onto switch priority
// queues by size: the shorter a message, the higher its priority; messages
// beyond a cutoff (10 KB in the paper's configuration) all share the lowest
// priority queue. Within a priority class the fabric serves flows fairly.
//
// In the fluid model this becomes: before every allocation, assign each flow
// a priority class from its *remaining* size (an SRPT approximation) and let
// the StrictPriorityAllocator serve classes in order. Because data-analytics
// shuffles are megabytes to gigabytes, almost all of their flows land in the
// shared bottom class — exactly the behaviour the paper calls out ("Homa
// assigns all flows longer than a certain size (10KB) to the same priority
// queue, without differentiating their associated workloads").

#ifndef SRC_BASELINES_HOMA_POLICY_H_
#define SRC_BASELINES_HOMA_POLICY_H_

#include <vector>

#include "src/net/flow_simulator.h"

namespace saba {

struct HomaConfig {
  // Number of priority classes (queues per port; 8 in the paper's setups).
  int num_priorities = 8;
};

// Attaches Homa's size-based prioritization to a flow simulator. The object
// must outlive the simulation.
class HomaScheduler {
 public:
  HomaScheduler(FlowSimulator* flow_sim, HomaConfig config = {});

  // Priority class for a flow with `remaining_bits` left (exposed for tests):
  // class 0 is served first; sizes <= the 10 KB cutoff spread over classes
  // [0, num_priorities-2] on a geometric scale; larger flows share the last.
  int PriorityFor(double remaining_bits) const;

 private:
  void RefreshPriorities();

  FlowSimulator* flow_sim_;
  HomaConfig config_;
};

}  // namespace saba

#endif  // SRC_BASELINES_HOMA_POLICY_H_
