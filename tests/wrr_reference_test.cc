// Cross-validation of the fluid WFQ allocator against packet-level
// deficit-weighted round robin: the central modeling claim of DESIGN.md is
// that fluid per-queue shares equal long-run WRR throughput shares.

#include "src/net/wrr_reference.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/net/allocation_engine.h"
#include "src/net/allocator.h"
#include "src/net/network.h"
#include "src/net/units.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

constexpr double kHorizon = 2.0;  // Seconds of simulated service.

TEST(WrrReferenceTest, SingleBackloggedFlowSaturatesPort) {
  WrrPortSpec port{Gbps64(1), {1.0}};
  const WrrResult result = SimulateWrrPort(port, {{0, 1.0, -1}}, kHorizon);
  EXPECT_NEAR(result.total_bits, Gbps(1) * kHorizon, kPacketBits * 2);
}

TEST(WrrReferenceTest, EqualWeightsSplitEqually) {
  WrrPortSpec port{Gbps64(1), {1.0, 1.0}};
  const WrrResult result =
      SimulateWrrPort(port, {{0, 1.0, -1}, {1, 1.0, -1}}, kHorizon);
  EXPECT_NEAR(result.queue_bits[0] / result.total_bits, 0.5, 0.01);
}

TEST(WrrReferenceTest, WeightsGiveProportionalService) {
  WrrPortSpec port{Gbps64(1), {3.0, 1.0}};
  const WrrResult result =
      SimulateWrrPort(port, {{0, 1.0, -1}, {1, 1.0, -1}}, kHorizon);
  EXPECT_NEAR(result.queue_bits[0] / result.total_bits, 0.75, 0.01);
  EXPECT_NEAR(result.queue_bits[1] / result.total_bits, 0.25, 0.01);
}

TEST(WrrReferenceTest, IdleQueueYieldsBandwidth) {
  // Queue 1 has no flows: queue 0 takes the whole port (work conservation).
  WrrPortSpec port{Gbps64(1), {1.0, 9.0}};
  const WrrResult result = SimulateWrrPort(port, {{0, 1.0, -1}}, kHorizon);
  EXPECT_NEAR(result.total_bits, Gbps(1) * kHorizon, kPacketBits * 2);
}

TEST(WrrReferenceTest, FiniteFlowStopsAndOthersReclaim) {
  // Flow 1 only has 10 Mb to send; flow 0 gets the rest of the horizon.
  WrrPortSpec port{Gbps64(1), {1.0, 1.0}};
  const WrrResult result =
      SimulateWrrPort(port, {{0, 1.0, -1}, {1, 1.0, Mbps(10) * 1.0}}, kHorizon);
  EXPECT_NEAR(result.flow_bits[1], Mbps(10), kPacketBits * 2);
  EXPECT_NEAR(result.flow_bits[0], Gbps(1) * kHorizon - Mbps(10), kPacketBits * 16);
}

TEST(WrrReferenceTest, IntraWeightSubordinatesPrefetchFlows) {
  // Two flows in one queue, intra weights 1.0 vs 0.15 (the prefetch value).
  WrrPortSpec port{Gbps64(1), {1.0}};
  const WrrResult result =
      SimulateWrrPort(port, {{0, 1.0, -1}, {0, 0.15, -1}}, kHorizon);
  const double expected = 1.0 / 1.15;
  EXPECT_NEAR(result.flow_bits[0] / result.total_bits, expected, 0.02);
}

// The headline cross-check: for random port configurations, fluid WFQ shares
// match packet-level WRR within a couple of percent.
class FluidVsPacketTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidVsPacketTest, SharesAgreeOnASharedPort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const int num_queues = static_cast<int>(rng.UniformInt(2, 4));
  const int num_flows = static_cast<int>(rng.UniformInt(2, 8));

  // Fluid setup: a 2-host link chain a->b so all flows share one egress.
  Topology topo;
  const NodeId a = topo.AddNode(NodeKind::kHost);
  const NodeId b = topo.AddNode(NodeKind::kHost);
  topo.AddLink(a, b, Gbps64(1));
  Network network(std::move(topo), num_queues);
  PortConfig& config = network.port(0);

  WrrPortSpec port{Gbps64(1), {}};
  for (int q = 0; q < num_queues; ++q) {
    const double w = rng.Uniform(0.5, 4.0);
    config.queue_weights[static_cast<size_t>(q)] = w;
    port.queue_weights.push_back(w);
  }

  std::vector<std::unique_ptr<ActiveFlow>> storage;
  std::vector<ActiveFlow*> fluid_flows;
  std::vector<WrrFlowSpec> packet_flows;
  for (int f = 0; f < num_flows; ++f) {
    const int queue = static_cast<int>(rng.UniformInt(0, num_queues - 1));
    const double intra = rng.Bernoulli(0.3) ? 0.15 : 1.0;
    config.sl_to_queue[static_cast<size_t>(f)] = queue;  // SL f -> that queue.

    auto flow = std::make_unique<ActiveFlow>();
    flow->id = f;
    flow->app = f;  // Distinct apps; ideal congestion keeps efficiency 1.
    flow->sl = f;
    flow->intra_weight = intra;
    flow->remaining_bits = Gigabytes(100);  // Backlogged for the whole horizon.
    flow->path = &network.router().Route(a, b, 0);
    storage.push_back(std::move(flow));
    fluid_flows.push_back(storage.back().get());
    packet_flows.push_back({queue, intra, -1});
  }

  AllocateFromScratch(fluid_flows, network, AllocationDiscipline::kWfqSlQueues);
  const WrrResult packets = SimulateWrrPort(port, packet_flows, kHorizon);

  for (int f = 0; f < num_flows; ++f) {
    const double fluid_share = fluid_flows[static_cast<size_t>(f)]->rate / Gbps(1);
    const double packet_share = packets.flow_bits[static_cast<size_t>(f)] / packets.total_bits;
    EXPECT_NEAR(fluid_share, packet_share, 0.025)
        << "flow " << f << " of " << num_flows << " (queues " << num_queues << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPorts, FluidVsPacketTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace saba
