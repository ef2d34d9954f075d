// Store-and-forward packet-level reference simulator.
//
// The paper's at-scale numbers come from Mellanox's OMNeT++ flit simulator;
// our evaluation engine is fluid. This module is the bridge between the two
// levels of abstraction: a small packet-granularity simulator with
//
//   * per-egress-port WRR across queues (deficit round robin, using the same
//     PortConfig SL->queue maps and weights the controller programs),
//   * deficit round robin across flows inside a queue (intra weights),
//   * finite per-queue buffers with hop-by-hop backpressure (InfiniBand's
//     credit-based flow control): a packet is only transmitted when the
//     downstream queue has a free slot.
//
// It is a validation instrument: tests cross-check the fluid allocator's
// multi-hop rates against packet-level truth. It is event-driven on the same
// EventScheduler as everything else and deterministic.

#ifndef SRC_NET_PACKET_SIM_H_
#define SRC_NET_PACKET_SIM_H_

#include <cstdint>
#include <vector>

#include "src/net/network.h"

namespace saba {

struct PacketFlowSpec {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int sl = 0;
  double intra_weight = 1.0;
  // Bits to send; < 0 means backlogged for the whole horizon.
  double total_bits = -1;
  uint64_t path_salt = 0;
};

// Packets are kPacketBits (units.h) long.
struct PacketSimConfig {
  // Buffer slots per (port, queue) — the credit pool of a VL.
  int buffer_packets = 16;
  // Simulated horizon.
  double horizon_seconds = 1.0;
};

struct PacketSimResult {
  // Bits delivered end-to-end per flow within the horizon.
  std::vector<double> delivered_bits;
  // Packets still buffered in the fabric when the horizon ended.
  int packets_in_flight = 0;
};

// Runs the packet simulation on `network` (uses its topology, routing, port
// configs, but NOT its congestion model — packet dynamics produce their own
// inefficiencies). Flows with equal specs are distinguished by order.
PacketSimResult RunPacketSim(Network* network, const std::vector<PacketFlowSpec>& flows,
                             const PacketSimConfig& config);

}  // namespace saba

#endif  // SRC_NET_PACKET_SIM_H_
