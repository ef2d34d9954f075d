#include "src/net/allocator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/net/allocation_engine.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/net/units.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

// Test fixture with a 4-host star at 10 Gb/s and hand-built flows.
class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest() : network_(BuildSingleSwitchStar(4, Gbps64(10)), /*default_queues=*/8) {}

  // Creates a flow and resolves its path; the returned pointer stays valid
  // for the fixture's lifetime.
  ActiveFlow* MakeFlow(AppId app, NodeId src, NodeId dst, double bits, int sl = 0,
                       uint64_t salt = 0) {
    auto flow = std::make_unique<ActiveFlow>();
    flow->id = static_cast<FlowId>(flows_.size() + 1);
    flow->app = app;
    flow->sl = sl;
    flow->remaining_bits = bits;
    flow->path = &network_.router().Route(src, dst, salt);
    flows_.push_back(std::move(flow));
    return flows_.back().get();
  }

  std::vector<ActiveFlow*> AllFlows() {
    std::vector<ActiveFlow*> out;
    for (auto& f : flows_) {
      out.push_back(f.get());
    }
    return out;
  }

  Network network_;
  std::vector<std::unique_ptr<ActiveFlow>> flows_;
};

TEST_F(AllocatorTest, SingleFlowGetsFullLinkCapacity) {
  MakeFlow(0, 0, 1, Gigabytes(1));
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  EXPECT_NEAR(flows_[0]->rate, Gbps(10), Gbps(0.001));
}

TEST_F(AllocatorTest, TwoFlowsSameQueueSplitEqually) {
  MakeFlow(0, 0, 1, Gigabytes(1));
  MakeFlow(1, 2, 1, Gigabytes(1));  // Shares only the switch->host1 egress.
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  EXPECT_NEAR(flows_[0]->rate, Gbps(5), Gbps(0.01));
  EXPECT_NEAR(flows_[1]->rate, Gbps(5), Gbps(0.01));
}

TEST_F(AllocatorTest, QueueWeightsGiveProportionalShares) {
  // Two flows into host 1, different SLs mapped to queues 0 and 1 with
  // weights 3:1.
  network_.MapSlToQueueEverywhere(0, 0);
  network_.MapSlToQueueEverywhere(1, 1);
  for (size_t l = 0; l < network_.topology().num_links(); ++l) {
    PortConfig& port = network_.port(static_cast<LinkId>(l));
    port.queue_weights.assign(static_cast<size_t>(port.num_queues), 1.0);
    port.queue_weights[0] = 3.0;
    port.queue_weights[1] = 1.0;
  }
  MakeFlow(0, 0, 1, Gigabytes(1), /*sl=*/0);
  MakeFlow(1, 2, 1, Gigabytes(1), /*sl=*/1);
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  EXPECT_NEAR(flows_[0]->rate, Gbps(7.5), Gbps(0.01));
  EXPECT_NEAR(flows_[1]->rate, Gbps(2.5), Gbps(0.01));
}

TEST_F(AllocatorTest, WorkConservingWhenOneQueueBottleneckedElsewhere) {
  // Flow A (queue 0, weight 3) from host0 is bottlenecked at host0 egress by
  // its sibling; flow B (queue 1, weight 1) should soak up the slack at the
  // host1 ingress.
  network_.MapSlToQueueEverywhere(1, 1);
  for (size_t l = 0; l < network_.topology().num_links(); ++l) {
    PortConfig& port = network_.port(static_cast<LinkId>(l));
    port.queue_weights[0] = 3.0;
    port.queue_weights[1] = 1.0;
  }
  // Two same-queue flows leaving host0 split its egress: each 5 Gb/s.
  MakeFlow(0, 0, 1, Gigabytes(1), /*sl=*/0);
  MakeFlow(0, 0, 2, Gigabytes(1), /*sl=*/0);
  // Flow into host1 from host3 in the low-weight queue.
  MakeFlow(1, 3, 1, Gigabytes(1), /*sl=*/1);
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  // Flow 0 gets 5 at host0 egress; the host1 ingress then has 5 left, which
  // flow 2 takes despite its nominal 1/4 share: work conservation.
  EXPECT_NEAR(flows_[0]->rate, Gbps(5), Gbps(0.05));
  EXPECT_NEAR(flows_[2]->rate, Gbps(5), Gbps(0.05));
}

TEST_F(AllocatorTest, NoLinkIsOversubscribed) {
  // Random-ish mesh of flows; verify per-link sums.
  int id = 0;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s != d) {
        MakeFlow(id % 3, s, d, Gigabytes(1), /*sl=*/id % 2);
        ++id;
      }
    }
  }
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  std::vector<double> link_load(network_.topology().num_links(), 0.0);
  for (auto& f : flows_) {
    EXPECT_GT(f->rate, 0.0);
    for (LinkId l : *f->path) {
      link_load[static_cast<size_t>(l)] += f->rate;
    }
  }
  for (size_t l = 0; l < link_load.size(); ++l) {
    EXPECT_LE(link_load[l], network_.topology().link(static_cast<LinkId>(l)).capacity_bps *
                                (1.0 + 1e-9));
  }
}

TEST_F(AllocatorTest, EveryFlowIsBottleneckedSomewhere) {
  int id = 0;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s != d) {
        MakeFlow(id++, s, d, Gigabytes(1));
      }
    }
  }
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  // Work conservation: each flow crosses at least one saturated link.
  std::vector<double> link_load(network_.topology().num_links(), 0.0);
  for (auto& f : flows_) {
    for (LinkId l : *f->path) {
      link_load[static_cast<size_t>(l)] += f->rate;
    }
  }
  for (auto& f : flows_) {
    bool bottlenecked = false;
    for (LinkId l : *f->path) {
      if (link_load[static_cast<size_t>(l)] >=
          network_.topology().link(l).capacity_bps * (1.0 - 1e-6)) {
        bottlenecked = true;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f->id << " not bottlenecked";
  }
}

TEST_F(AllocatorTest, FecnModelShrinksCapacityUnderAppMixing) {
  network_.SetCongestionModel(std::make_unique<FecnCongestionModel>(0.2));
  MakeFlow(0, 0, 1, Gigabytes(1));
  MakeFlow(1, 2, 1, Gigabytes(1));
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  const double total = flows_[0]->rate + flows_[1]->rate;
  const double ln2 = std::log(2.0);
  const double expected_eff = 1.0 / (1.0 + 0.2 * ln2 * ln2 * 0.5);
  EXPECT_NEAR(total, Gbps(10) * expected_eff, Gbps(0.05));
}

TEST_F(AllocatorTest, FecnDoesNotPenalizeSingleAppQueues) {
  network_.SetCongestionModel(std::make_unique<FecnCongestionModel>(0.2));
  // Two apps, separated into distinct queues: full efficiency.
  network_.MapSlToQueueEverywhere(1, 1);
  MakeFlow(0, 0, 1, Gigabytes(1), /*sl=*/0);
  MakeFlow(1, 2, 1, Gigabytes(1), /*sl=*/1);
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  EXPECT_NEAR(flows_[0]->rate + flows_[1]->rate, Gbps(10), Gbps(0.01));
}

TEST_F(AllocatorTest, PerAppAllocatorSplitsByAppNotByFlowCount) {
  // App 0 has 3 flows into host1; app 1 has 1. Per-app fairness gives each
  // app 5 Gb/s.
  MakeFlow(0, 0, 1, Gigabytes(1), 0, /*salt=*/1);
  MakeFlow(0, 2, 1, Gigabytes(1), 0, /*salt=*/2);
  MakeFlow(0, 3, 1, Gigabytes(1), 0, /*salt=*/3);
  MakeFlow(1, 2, 1, Gigabytes(1), 0, /*salt=*/4);
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kPerAppQueues);
  const double app0 = flows_[0]->rate + flows_[1]->rate + flows_[2]->rate;
  EXPECT_NEAR(app0, Gbps(5), Gbps(0.05));
  EXPECT_NEAR(flows_[3]->rate, Gbps(5), Gbps(0.05));
}

TEST_F(AllocatorTest, PerAppAllocatorHonoursWeightFunction) {
  MakeFlow(0, 0, 1, Gigabytes(1));
  MakeFlow(1, 2, 1, Gigabytes(1));
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kPerAppQueues,
                      [](LinkId, AppId app) { return app == 0 ? 3.0 : 1.0; });
  EXPECT_NEAR(flows_[0]->rate, Gbps(7.5), Gbps(0.05));
  EXPECT_NEAR(flows_[1]->rate, Gbps(2.5), Gbps(0.05));
}

TEST_F(AllocatorTest, StrictPriorityServesHigherClassFirst) {
  ActiveFlow* high = MakeFlow(0, 0, 1, Gigabytes(1));
  ActiveFlow* low = MakeFlow(1, 2, 1, Gigabytes(1));
  high->priority = 0;
  low->priority = 5;
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kStrictPriority);
  EXPECT_NEAR(high->rate, Gbps(10), Gbps(0.01));
  EXPECT_NEAR(low->rate, 0.0, Gbps(0.01));
}

TEST_F(AllocatorTest, StrictPriorityLowerClassGetsLeftovers) {
  // High-priority flow bottlenecked at host0 egress leaves host1 ingress
  // partially free for the low-priority one.
  ActiveFlow* high_a = MakeFlow(0, 0, 1, Gigabytes(1));
  ActiveFlow* high_b = MakeFlow(0, 0, 2, Gigabytes(1));
  ActiveFlow* low = MakeFlow(1, 3, 1, Gigabytes(1));
  high_a->priority = 0;
  high_b->priority = 0;
  low->priority = 1;
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kStrictPriority);
  EXPECT_NEAR(high_a->rate, Gbps(5), Gbps(0.05));
  EXPECT_NEAR(low->rate, Gbps(5), Gbps(0.05));
}

TEST_F(AllocatorTest, SamePriorityIsMaxMinWithinClass) {
  ActiveFlow* a = MakeFlow(0, 0, 1, Gigabytes(1));
  ActiveFlow* b = MakeFlow(1, 2, 1, Gigabytes(1));
  a->priority = 2;
  b->priority = 2;
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kStrictPriority);
  EXPECT_NEAR(a->rate, Gbps(5), Gbps(0.05));
  EXPECT_NEAR(b->rate, Gbps(5), Gbps(0.05));
}

// Classical max-min optimality characterization: an allocation is per-flow
// max-min fair iff every flow has a *bottleneck link* — a saturated link on
// its path where no other flow gets a higher rate. Verifying this on random
// topologies is an implementation-independent check of the progressive
// filling engine (the unweighted max-min allocation is unique).
class MaxMinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinPropertyTest, EveryFlowHasABottleneckLink) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  const bool fabric = rng.Bernoulli(0.5);
  Topology topo =
      fabric ? BuildSpineLeaf({.num_spine = 2,
                               .num_leaf = 4,
                               .num_tor = 4,
                               .hosts_per_tor = 3,
                               .num_pods = 2,
                               .host_link_bps = Gbps64(10),
                               .tor_leaf_bps = Gbps64(10),
                               .leaf_spine_bps = Gbps64(10)})
             : BuildSingleSwitchStar(6, Gbps64(10));
  Network network(std::move(topo), 1);  // Single queue: pure per-flow max-min.
  const std::vector<NodeId> hosts = network.topology().Hosts();

  std::vector<std::unique_ptr<ActiveFlow>> storage;
  std::vector<ActiveFlow*> flows;
  const int num_flows = static_cast<int>(rng.UniformInt(3, 24));
  for (int f = 0; f < num_flows; ++f) {
    NodeId src = rng.Choice(hosts);
    NodeId dst = rng.Choice(hosts);
    while (dst == src) {
      dst = rng.Choice(hosts);
    }
    auto flow = std::make_unique<ActiveFlow>();
    flow->id = f;
    flow->app = f;
    flow->remaining_bits = Gigabytes(1);
    flow->path = &network.router().Route(src, dst, static_cast<uint64_t>(f));
    storage.push_back(std::move(flow));
    flows.push_back(storage.back().get());
  }

  AllocateFromScratch(flows, network, AllocationDiscipline::kWfqSlQueues);

  // Per-link loads.
  std::vector<double> load(network.topology().num_links(), 0.0);
  std::vector<double> max_rate_on_link(network.topology().num_links(), 0.0);
  for (const ActiveFlow* flow : flows) {
    EXPECT_GT(flow->rate, 0.0);
    for (LinkId l : *flow->path) {
      load[static_cast<size_t>(l)] += flow->rate;
      max_rate_on_link[static_cast<size_t>(l)] =
          std::max(max_rate_on_link[static_cast<size_t>(l)], BpsToDouble(flow->rate));
    }
  }
  // Feasibility.
  for (size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l],
              network.topology().link(static_cast<LinkId>(l)).capacity_bps * (1.0 + 1e-9));
  }
  // Bottleneck condition.
  for (const ActiveFlow* flow : flows) {
    bool has_bottleneck = false;
    for (LinkId l : *flow->path) {
      const bool saturated =
          load[static_cast<size_t>(l)] >=
          network.topology().link(l).capacity_bps * (1.0 - 1e-6);
      const bool is_max = flow->rate >= max_rate_on_link[static_cast<size_t>(l)] - 1.0;
      if (saturated && is_max) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << flow->id << " lacks a bottleneck (param "
                                << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, MaxMinPropertyTest, ::testing::Range(1, 25));

TEST_F(AllocatorTest, NestedRedistributionConvergesAcrossQueues) {
  // Three queues with weights 2:1:1; queue 0's only flow is bottlenecked at
  // its own source to 1 Gb/s; queues 1 and 2 should split the remainder of
  // host1's ingress 1:1 after redistribution (4.5 each).
  network_.MapSlToQueueEverywhere(1, 1);
  network_.MapSlToQueueEverywhere(2, 2);
  for (size_t l = 0; l < network_.topology().num_links(); ++l) {
    PortConfig& port = network_.port(static_cast<LinkId>(l));
    port.queue_weights[0] = 2.0;
    port.queue_weights[1] = 1.0;
    port.queue_weights[2] = 1.0;
  }
  // Throttle host0's uplink so queue 0's flow cannot exceed 1 Gb/s.
  network_.topology().SetLinkCapacity(network_.topology().FindLink(0, 4), Gbps64(1));
  MakeFlow(0, 0, 1, Gigabytes(1), /*sl=*/0);
  MakeFlow(1, 2, 1, Gigabytes(1), /*sl=*/1);
  MakeFlow(2, 3, 1, Gigabytes(1), /*sl=*/2);
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  EXPECT_NEAR(flows_[0]->rate, Gbps(1), Gbps(0.02));
  EXPECT_NEAR(flows_[1]->rate, Gbps(4.5), Gbps(0.1));
  EXPECT_NEAR(flows_[2]->rate, Gbps(4.5), Gbps(0.1));
}

TEST_F(AllocatorTest, IntraWeightsActPerQueueIndependently) {
  // Queue 0: a critical and a prefetch flow (1 : 0.15); queue 1: one flow.
  // Equal queue weights: queue shares 5/5; inside queue 0 the split is
  // 0.87 : 0.13 of its 5 Gb/s.
  network_.MapSlToQueueEverywhere(1, 1);
  ActiveFlow* critical = MakeFlow(0, 0, 1, Gigabytes(1), /*sl=*/0, /*salt=*/1);
  ActiveFlow* prefetch = MakeFlow(0, 2, 1, Gigabytes(1), /*sl=*/0, /*salt=*/2);
  prefetch->intra_weight = 0.15;
  MakeFlow(1, 3, 1, Gigabytes(1), /*sl=*/1, /*salt=*/3);
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kWfqSlQueues);
  EXPECT_NEAR(flows_[2]->rate, Gbps(5), Gbps(0.05));
  EXPECT_NEAR(critical->rate, Gbps(5) * (1.0 / 1.15), Gbps(0.05));
  EXPECT_NEAR(prefetch->rate, Gbps(5) * (0.15 / 1.15), Gbps(0.05));
}

TEST_F(AllocatorTest, PerAppAllocatorAlsoWorkConserving) {
  // App 0's only flow is source-throttled; app 1 reclaims the ingress slack.
  network_.topology().SetLinkCapacity(network_.topology().FindLink(0, 4), Gbps64(2));
  MakeFlow(0, 0, 1, Gigabytes(1), 0, 1);
  MakeFlow(1, 2, 1, Gigabytes(1), 0, 2);
  AllocateFromScratch(AllFlows(), network_, AllocationDiscipline::kPerAppQueues);
  EXPECT_NEAR(flows_[0]->rate, Gbps(2), Gbps(0.05));
  EXPECT_NEAR(flows_[1]->rate, Gbps(8), Gbps(0.1));
}

TEST(FecnCongestionModelTest, EfficiencyCurve) {
  FecnCongestionModel model(0.25);
  EXPECT_DOUBLE_EQ(model.QueueEfficiency(0), 1.0);
  EXPECT_DOUBLE_EQ(model.QueueEfficiency(1), 1.0);
  // Two similar apps sharing a VL coexist almost losslessly...
  EXPECT_GT(model.QueueEfficiency(2), 0.9);
  EXPECT_LT(model.QueueEfficiency(2), 1.0);
  // ...while a FIFO mixing a dozen applications loses nearly half.
  EXPECT_LT(model.QueueEfficiency(16), 0.65);
  EXPECT_LT(model.QueueEfficiency(16), model.QueueEfficiency(2));
  EXPECT_GT(model.QueueEfficiency(16), 0.3);
}

TEST(IdealCongestionModelTest, AlwaysOne) {
  IdealCongestionModel model;
  EXPECT_DOUBLE_EQ(model.QueueEfficiency(1), 1.0);
  EXPECT_DOUBLE_EQ(model.QueueEfficiency(100), 1.0);
}

}  // namespace
}  // namespace saba
