// Packet-level reference simulator tests, including the multi-hop
// cross-validation against the fluid WFQ allocator.

#include "src/net/packet_sim.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/net/allocation_engine.h"
#include "src/net/allocator.h"
#include "src/net/units.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

constexpr double kHorizon = 0.5;

TEST(PacketSimTest, SingleFlowSaturatesPath) {
  Network network(BuildSingleSwitchStar(4, Gbps64(1)), 8);
  PacketSimConfig config;
  config.horizon_seconds = kHorizon;
  const PacketSimResult result = RunPacketSim(&network, {{0, 1, 0, 1.0, -1, 0}}, config);
  // Two store-and-forward hops pipeline: throughput ~ line rate.
  EXPECT_NEAR(result.delivered_bits[0], Gbps(1) * kHorizon, Gbps(1) * kHorizon * 0.02);
}

TEST(PacketSimTest, FiniteFlowDeliversExactlyItsBits) {
  Network network(BuildSingleSwitchStar(4, Gbps64(1)), 8);
  PacketSimConfig config;
  config.horizon_seconds = kHorizon;
  const double bits = config.packet_bits * 100;
  const PacketSimResult result = RunPacketSim(&network, {{0, 1, 0, 1.0, bits, 0}}, config);
  EXPECT_DOUBLE_EQ(result.delivered_bits[0], bits);
  EXPECT_EQ(result.packets_in_flight, 0);
}

TEST(PacketSimTest, TwoFlowsShareABottleneckEqually) {
  Network network(BuildSingleSwitchStar(4, Gbps64(1)), 8);
  PacketSimConfig config;
  config.horizon_seconds = kHorizon;
  const PacketSimResult result =
      RunPacketSim(&network, {{0, 1, 0, 1.0, -1, 0}, {2, 1, 0, 1.0, -1, 0}}, config);
  const double total = result.delivered_bits[0] + result.delivered_bits[1];
  EXPECT_NEAR(total, Gbps(1) * kHorizon, Gbps(1) * kHorizon * 0.02);
  EXPECT_NEAR(result.delivered_bits[0] / total, 0.5, 0.02);
}

TEST(PacketSimTest, QueueWeightsShapeSharing) {
  Network network(BuildSingleSwitchStar(4, Gbps64(1)), 8);
  network.MapSlToQueueEverywhere(1, 1);
  for (size_t l = 0; l < network.topology().num_links(); ++l) {
    network.port(static_cast<LinkId>(l)).queue_weights[0] = 3.0;
    network.port(static_cast<LinkId>(l)).queue_weights[1] = 1.0;
  }
  PacketSimConfig config;
  config.horizon_seconds = kHorizon;
  const PacketSimResult result =
      RunPacketSim(&network, {{0, 1, 0, 1.0, -1, 0}, {2, 1, 1, 1.0, -1, 0}}, config);
  const double total = result.delivered_bits[0] + result.delivered_bits[1];
  EXPECT_NEAR(result.delivered_bits[0] / total, 0.75, 0.03);
}

TEST(PacketSimTest, BackpressureDoesNotDeadlockOrOverflow) {
  // Tiny buffers on a 3-hop path with heavy cross traffic: credits must keep
  // everything moving and bounded.
  Network network(BuildSpineLeaf({.num_spine = 1,
                                  .num_leaf = 2,
                                  .num_tor = 2,
                                  .hosts_per_tor = 2,
                                  .num_pods = 2,
                                  .host_link_bps = Gbps64(1),
                                  .tor_leaf_bps = Gbps64(1),
                                  .leaf_spine_bps = Gbps64(1)}),
                  8);
  PacketSimConfig config;
  config.horizon_seconds = kHorizon;
  config.buffer_packets = 3;
  const PacketSimResult result = RunPacketSim(
      &network, {{0, 3, 0, 1.0, -1, 1}, {1, 2, 0, 1.0, -1, 2}, {2, 1, 0, 1.0, -1, 3}}, config);
  double total = 0;
  for (double bits : result.delivered_bits) {
    EXPECT_GT(bits, 0.0) << "a flow starved";
    total += bits;
  }
  EXPECT_GT(total, Gbps(1) * kHorizon * 0.5);
}

// The headline: multi-hop fluid rates track packet-level truth. Random small
// fabrics, random flows in two weighted queues.
class FluidVsPacketMultiHopTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidVsPacketMultiHopTest, ThroughputSharesAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6700417 + 5);
  Network network(BuildSpineLeaf({.num_spine = 2,
                                  .num_leaf = 2,
                                  .num_tor = 2,
                                  .hosts_per_tor = 3,
                                  .num_pods = 2,
                                  .host_link_bps = Gbps64(1),
                                  .tor_leaf_bps = Gbps64(1),
                                  .leaf_spine_bps = Gbps64(1)}),
                  2);
  network.MapSlToQueueEverywhere(1, 1);
  const double w0 = rng.Uniform(1.0, 3.0);
  const double w1 = rng.Uniform(1.0, 3.0);
  for (size_t l = 0; l < network.topology().num_links(); ++l) {
    network.port(static_cast<LinkId>(l)).queue_weights = {w0, w1};
  }

  const std::vector<NodeId> hosts = network.topology().Hosts();
  const int num_flows = static_cast<int>(rng.UniformInt(2, 5));
  std::vector<PacketFlowSpec> packet_flows;
  std::vector<std::unique_ptr<ActiveFlow>> storage;
  std::vector<ActiveFlow*> fluid_flows;
  for (int f = 0; f < num_flows; ++f) {
    NodeId src = rng.Choice(hosts);
    NodeId dst = rng.Choice(hosts);
    while (dst == src) {
      dst = rng.Choice(hosts);
    }
    const int sl = static_cast<int>(rng.UniformInt(0, 1));
    packet_flows.push_back({src, dst, sl, 1.0, -1, static_cast<uint64_t>(f)});

    auto flow = std::make_unique<ActiveFlow>();
    flow->id = f;
    flow->app = f;
    flow->sl = sl;
    flow->remaining_bits = Gigabytes(10);
    flow->path = &network.router().Route(src, dst, static_cast<uint64_t>(f));
    storage.push_back(std::move(flow));
    fluid_flows.push_back(storage.back().get());
  }

  AllocateFromScratch(fluid_flows, network, AllocationDiscipline::kWfqSlQueues);

  PacketSimConfig config;
  config.horizon_seconds = 1.0;
  config.buffer_packets = 24;
  const PacketSimResult packets = RunPacketSim(&network, packet_flows, config);

  for (int f = 0; f < num_flows; ++f) {
    const double fluid_share = fluid_flows[static_cast<size_t>(f)]->rate / Gbps(1);
    const double packet_share =
        packets.delivered_bits[static_cast<size_t>(f)] / (Gbps(1) * config.horizon_seconds);
    // Packet effects (store-and-forward pipelining, credit stalls, quantized
    // service) justify a modest tolerance.
    EXPECT_NEAR(fluid_share, packet_share, 0.08)
        << "flow " << f << " of " << num_flows << " (weights " << w0 << "/" << w1 << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFabrics, FluidVsPacketMultiHopTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace saba
