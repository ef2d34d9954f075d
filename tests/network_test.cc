#include "src/net/network.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "src/net/units.h"

namespace saba {
namespace {

// The router holds a pointer to the network's own topology, so a copied or
// moved Network would route over the source object's topology.
static_assert(!std::is_copy_constructible_v<Network>, "Network must not be copyable");
static_assert(!std::is_copy_assignable_v<Network>, "Network must not be copyable");
static_assert(!std::is_move_constructible_v<Network>, "Network must not be movable");
static_assert(!std::is_move_assignable_v<Network>, "Network must not be movable");

TEST(PortConfigTest, DefaultsToSingleSharedQueue) {
  PortConfig config;
  EXPECT_EQ(config.num_queues, 1);
  for (int sl = 0; sl < kNumServiceLevels; ++sl) {
    EXPECT_EQ(config.sl_to_queue[static_cast<size_t>(sl)], 0);
  }
  ASSERT_EQ(config.queue_weights.size(), 1u);
  EXPECT_DOUBLE_EQ(config.queue_weights[0], 1.0);
}

TEST(NetworkTest, ConstructsPortPerLink) {
  Network network(BuildSingleSwitchStar(4, Gbps64(10)), /*default_queues=*/8);
  EXPECT_EQ(network.topology().num_links(), 8u);
  for (size_t l = 0; l < network.topology().num_links(); ++l) {
    const PortConfig& port = network.port(static_cast<LinkId>(l));
    EXPECT_EQ(port.num_queues, 8);
    EXPECT_EQ(port.queue_weights.size(), 8u);
  }
}

TEST(NetworkTest, SetQueueCountEverywhereResetsWeightsAndClampsMap) {
  Network network(BuildSingleSwitchStar(4, Gbps64(10)), 8);
  network.MapSlToQueueEverywhere(5, 7);
  network.SetQueueCountEverywhere(2);
  for (size_t l = 0; l < network.topology().num_links(); ++l) {
    const PortConfig& port = network.port(static_cast<LinkId>(l));
    EXPECT_EQ(port.num_queues, 2);
    EXPECT_EQ(port.queue_weights.size(), 2u);
    // SL 5 pointed at queue 7, which no longer exists; it must be clamped.
    EXPECT_EQ(port.sl_to_queue[5], 1);
  }
}

TEST(NetworkTest, MapSlToQueueEverywhere) {
  Network network(BuildSingleSwitchStar(4, Gbps64(10)), 4);
  network.MapSlToQueueEverywhere(3, 2);
  for (size_t l = 0; l < network.topology().num_links(); ++l) {
    EXPECT_EQ(network.port(static_cast<LinkId>(l)).sl_to_queue[3], 2);
  }
}

TEST(NetworkTest, PortsAreIndependentlyMutable) {
  Network network(BuildSingleSwitchStar(4, Gbps64(10)), 4);
  network.port(0).queue_weights[0] = 9.0;
  EXPECT_DOUBLE_EQ(network.port(0).queue_weights[0], 9.0);
  EXPECT_DOUBLE_EQ(network.port(1).queue_weights[0], 1.0);
}

TEST(NetworkTest, DefaultCongestionModelIsIdeal) {
  Network network(BuildSingleSwitchStar(4, Gbps64(10)));
  EXPECT_DOUBLE_EQ(network.congestion().QueueEfficiency(50), 1.0);
}

TEST(NetworkTest, CongestionModelSwappable) {
  Network network(BuildSingleSwitchStar(4, Gbps64(10)));
  network.SetCongestionModel(std::make_unique<FecnCongestionModel>(0.3));
  EXPECT_LT(network.congestion().QueueEfficiency(8), 0.7);
}

TEST(FecnCongestionModelTest, MonotoneDecreasingInApps) {
  FecnCongestionModel model(0.3);
  double previous = 1.0;
  for (size_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const double eff = model.QueueEfficiency(n);
    EXPECT_LE(eff, previous + 1e-12);
    EXPECT_GT(eff, 0.0);
    previous = eff;
  }
}

TEST(FecnCongestionModelTest, GammaZeroIsIdeal) {
  FecnCongestionModel model(0.0);
  EXPECT_DOUBLE_EQ(model.QueueEfficiency(100), 1.0);
}

}  // namespace
}  // namespace saba
