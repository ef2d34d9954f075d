// pFabric-like baseline (related work, Alizadeh et al. SIGCOMM'13).
//
// pFabric attaches the flow's *remaining size* to every packet and switches
// serve the smallest-remaining packet first — idealized SRPT with an
// effectively unbounded priority space. In the fluid model this is the
// Homa-like scheduler without the 10 KB cutoff: remaining sizes map onto a
// fine-grained geometric class ladder, so a 1 MB flow preempts a 1 GB flow
// (which Homa's shared bottom class cannot express). Like Homa and
// Sincronia, it optimizes flow-level metrics and is application-agnostic —
// the contrast Saba draws in §9.

#ifndef SRC_BASELINES_PFABRIC_POLICY_H_
#define SRC_BASELINES_PFABRIC_POLICY_H_

#include "src/net/flow_simulator.h"

namespace saba {

class PFabricScheduler {
 public:
  explicit PFabricScheduler(FlowSimulator* flow_sim);

  // Priority class for a flow with `remaining_bits` left: class 0 (served
  // first) for flows of at most one MTU, then 31 geometric size buckets up
  // to 1 TB, which emulate pFabric's "unbounded" priority space.
  int PriorityFor(double remaining_bits) const;

 private:
  void RefreshPriorities();

  FlowSimulator* flow_sim_;
  double log_min_;
  double log_range_;
};

}  // namespace saba

#endif  // SRC_BASELINES_PFABRIC_POLICY_H_
