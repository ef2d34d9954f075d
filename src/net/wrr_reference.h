// Packet-granularity Weighted-Round-Robin reference for a single egress port.
//
// The fluid allocator claims that InfiniBand's per-VL WRR arbitration yields
// long-run per-queue throughput proportional to queue weights, with per-flow
// fair sharing inside a queue (weighted by ActiveFlow::intra_weight). This
// module simulates the actual mechanism — packets, a per-queue deficit
// counter, round-robin arbitration across backlogged queues — so tests can
// cross-validate the fluid shares against packet-level truth. It is a
// validation instrument, not a performance path.
//
// Deficit counters are integers on the WeightUnits grid (units.h): a queue
// banks weight_units * packet_bits units per visit and a packet costs
// min_weight_units * packet_bits, so service proportions are exact and the
// counters cannot drift no matter how long the horizon runs. (The old double
// counters accumulated rounding error at every visit.)

#ifndef SRC_NET_WRR_REFERENCE_H_
#define SRC_NET_WRR_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/net/units.h"

namespace saba {

struct WrrFlowSpec {
  int queue = 0;
  // Relative share within the queue (prefetch flows use < 1).
  double intra_weight = 1.0;
  // Backlogged flows always have a packet ready; a non-backlogged flow is
  // modeled by a finite byte budget after which it stops sending.
  double total_bits = -1;  // < 0 => always backlogged.
};

// Packets are kPacketBits (units.h) long.
struct WrrPortSpec {
  Bps64 capacity_bps = 0;
  std::vector<double> queue_weights;  // One per queue; > 0.
};

struct WrrResult {
  // Bits each flow got through the port during the simulated horizon.
  std::vector<double> flow_bits;
  // Bits per queue.
  std::vector<double> queue_bits;
  // Total bits served (== capacity * horizon when any queue is backlogged).
  double total_bits = 0;
};

// Simulates `horizon_seconds` of deficit-weighted round robin:
//  * queues are visited cyclically; a queue accumulates quantum
//    `weight / min_weight * packet_bits` per visit and sends whole packets
//    while its deficit allows and it has backlogged flows;
//  * inside a queue, flows are themselves served deficit-round-robin with
//    quanta proportional to intra_weight.
// Deterministic; packet order is a pure function of the specs.
WrrResult SimulateWrrPort(const WrrPortSpec& port, const std::vector<WrrFlowSpec>& flows,
                          double horizon_seconds);

}  // namespace saba

#endif  // SRC_NET_WRR_REFERENCE_H_
