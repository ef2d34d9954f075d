#include "src/baselines/sincronia_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <map>

#include "src/net/units.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

// One coflow's per-port demand as the reference below reads it.
struct MapCoflow {
  AppId app = kInvalidApp;
  std::map<LinkId, double> port_demand;
};

// How often the reference broke a tie, so the differential test can show its
// inputs reach both tie-breaks.
struct TieCounts {
  int port = 0;  // Bottleneck ties resolved to the lowest LinkId.
  int app = 0;   // Select ties resolved to the highest app.
};

// The BSSI order over one std::map per coflow, every scan in ascending
// LinkId order: the oracle ComputeBssiOrder must match element for element.
std::vector<AppId> ReferenceBssiOrder(const std::vector<MapCoflow>& coflows,
                                      TieCounts* ties = nullptr) {
  const size_t n = coflows.size();
  std::vector<bool> placed(n, false);
  std::vector<AppId> order(n, kInvalidApp);
  std::vector<std::map<LinkId, double>> demand;
  demand.reserve(n);
  for (const MapCoflow& c : coflows) {
    demand.push_back(c.port_demand);
  }

  for (size_t slot = n; slot > 0; --slot) {
    std::map<LinkId, double> port_total;
    for (size_t c = 0; c < n; ++c) {
      if (placed[c]) {
        continue;
      }
      for (const auto& [port, bits] : demand[c]) {
        port_total[port] += bits;
      }
    }
    LinkId bottleneck = kInvalidLink;
    double worst = -1;
    for (const auto& [port, total] : port_total) {
      if (total > worst || (total == worst && port < bottleneck)) {
        worst = total;
        bottleneck = port;
      } else if (total == worst && ties != nullptr) {
        ++ties->port;
      }
    }

    size_t chosen = n;
    double chosen_demand = -1;
    for (size_t c = 0; c < n; ++c) {
      if (placed[c]) {
        continue;
      }
      double d = 0;
      if (bottleneck != kInvalidLink) {
        auto it = demand[c].find(bottleneck);
        d = it == demand[c].end() ? 0 : it->second;
      }
      if (d == chosen_demand && ties != nullptr) {
        ++ties->app;
      }
      if (d > chosen_demand ||
          (d == chosen_demand && (chosen == n || coflows[c].app > coflows[chosen].app))) {
        chosen_demand = d;
        chosen = c;
      }
    }
    assert(chosen < n);
    placed[chosen] = true;
    order[slot - 1] = coflows[chosen].app;

    if (bottleneck != kInvalidLink && chosen_demand > 0) {
      for (size_t c = 0; c < n; ++c) {
        if (placed[c]) {
          continue;
        }
        auto it = demand[c].find(bottleneck);
        if (it != demand[c].end()) {
          it->second = std::max(0.0, it->second - chosen_demand * it->second / worst);
        }
      }
    }
  }
  return order;
}

// Flattens map coflows for ComputeBssiOrder. Ports are numbered in order of
// first appearance and each row lists its ports in descending LinkId order,
// so neither matches the maps' ascending order the reference iterates in.
CoflowDemands Flatten(const std::vector<MapCoflow>& coflows) {
  CoflowDemands flat;
  std::map<LinkId, uint32_t> dense;
  for (const MapCoflow& c : coflows) {
    flat.app.push_back(c.app);
    for (auto it = c.port_demand.rbegin(); it != c.port_demand.rend(); ++it) {
      const auto [slot, inserted] = dense.emplace(it->first, flat.link.size());
      if (inserted) {
        flat.link.push_back(it->first);
      }
      flat.entry_port.push_back(slot->second);
      flat.entry_bits.push_back(it->second);
    }
    flat.row_begin.push_back(static_cast<uint32_t>(flat.entry_bits.size()));
  }
  return flat;
}

std::vector<AppId> FlatBssiOrder(const std::vector<MapCoflow>& coflows) {
  return ComputeBssiOrder(Flatten(coflows));
}

TEST(BssiOrderTest, SingleCoflowTrivial) {
  const std::vector<AppId> order = FlatBssiOrder({{1, {{0, 100.0}}}});
  EXPECT_EQ(order, std::vector<AppId>{1});
}

TEST(BssiOrderTest, SmallerCoflowScheduledFirstOnSharedBottleneck) {
  // Two coflows on one port: scheduling the smaller first minimizes average
  // CCT; BSSI places the larger last.
  std::vector<MapCoflow> coflows = {
      {1, {{0, 1000.0}}},
      {2, {{0, 10.0}}},
  };
  const std::vector<AppId> order = FlatBssiOrder(coflows);
  EXPECT_EQ(order.front(), 2);
  EXPECT_EQ(order.back(), 1);
}

TEST(BssiOrderTest, OrderIsPermutationOfInputs) {
  std::vector<MapCoflow> coflows;
  for (AppId a = 0; a < 7; ++a) {
    MapCoflow c;
    c.app = a;
    c.port_demand[a % 3] = 100.0 * (a + 1);
    c.port_demand[(a + 1) % 3] = 50.0;
    coflows.push_back(c);
  }
  std::vector<AppId> order = FlatBssiOrder(coflows);
  ASSERT_EQ(order.size(), 7u);
  std::sort(order.begin(), order.end());
  for (AppId a = 0; a < 7; ++a) {
    EXPECT_EQ(order[static_cast<size_t>(a)], a);
  }
}

TEST(BssiOrderTest, BottleneckAware) {
  // Port 0 is heavily loaded; coflow 1 dominates it and must go last even
  // though coflow 2 has more total bytes spread thinly.
  std::vector<MapCoflow> coflows = {
      {1, {{0, 900.0}}},
      {2, {{1, 400.0}, {2, 400.0}, {3, 300.0}}},
  };
  const std::vector<AppId> order = FlatBssiOrder(coflows);
  EXPECT_EQ(order.back(), 1);
}

TEST(BssiOrderTest, EmptyDemandsHandled) {
  std::vector<MapCoflow> coflows = {{1, {}}, {2, {{0, 5.0}}}};
  const std::vector<AppId> order = FlatBssiOrder(coflows);
  EXPECT_EQ(order.size(), 2u);
}

TEST(BssiOrderTest, FlatOrderMatchesMapReference) {
  Rng rng(20231);
  TieCounts ties;
  int empty_rows = 0;
  int zero_entries = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Few ports make coflows share them; many make them mostly disjoint.
    // Demands drawn from a handful of round values make totals and
    // bottleneck demands tie often; the rest are arbitrary doubles.
    const auto n = static_cast<size_t>(rng.UniformInt(1, 30));
    const auto pool = static_cast<size_t>(rng.Bernoulli(0.5) ? rng.UniformInt(1, 4)
                                                              : rng.UniformInt(5, 60));
    const bool round_values = rng.Bernoulli(0.5);
    std::vector<LinkId> ports;
    for (size_t p = 0; p < pool; ++p) {
      ports.push_back(static_cast<LinkId>(rng.UniformInt(0, 999)));
    }
    std::vector<AppId> apps;
    for (AppId a = 0; a < static_cast<AppId>(n); ++a) {
      apps.push_back(3 * a + 1);
    }
    rng.Shuffle(&apps);

    std::vector<MapCoflow> coflows(n);
    for (size_t c = 0; c < n; ++c) {
      coflows[c].app = apps[c];
      const int64_t k = rng.Bernoulli(0.1) ? 0 : rng.UniformInt(1, 8);
      for (int64_t i = 0; i < k; ++i) {
        double bits = 0;
        if (!rng.Bernoulli(0.1)) {
          bits = round_values ? 100.0 * static_cast<double>(rng.UniformInt(1, 3))
                              : rng.Uniform(1.0, 1e9);
        }
        coflows[c].port_demand[rng.Choice(ports)] = bits;
      }
      empty_rows += coflows[c].port_demand.empty() ? 1 : 0;
      for (const auto& [port, bits] : coflows[c].port_demand) {
        zero_entries += bits == 0 ? 1 : 0;
      }
    }
    ASSERT_EQ(FlatBssiOrder(coflows), ReferenceBssiOrder(coflows, &ties)) << "trial " << trial;
  }
  // The inputs must reach the cases the flat layout could get wrong.
  EXPECT_GT(ties.port, 100);
  EXPECT_GT(ties.app, 100);
  EXPECT_GT(empty_rows, 100);
  EXPECT_GT(zero_entries, 100);
}

class SincroniaSchedulerTest : public ::testing::Test {
 protected:
  SincroniaSchedulerTest()
      : network_(BuildSingleSwitchStar(4, Gbps64(10)), 8),
        flow_sim_(&scheduler_, &network_, &allocator_) {}

  EventScheduler scheduler_;
  Network network_;
  StrictPriorityAllocator allocator_;
  FlowSimulator flow_sim_;
};
TEST_F(SincroniaSchedulerTest, SmallCoflowPreemptsLargeOne) {
  SincroniaScheduler sincronia(&flow_sim_, {});
  SimTime small_done = -1;
  SimTime large_done = -1;
  int large_left = 2;
  int small_left = 1;
  // Large coflow: two 10 Gb flows into host 1 and 2.
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) {
    if (--large_left == 0) {
      large_done = scheduler_.Now();
    }
  });
  flow_sim_.StartFlow(0, 3, 2, Gbps(10), 0, 0, [&](FlowId) {
    if (--large_left == 0) {
      large_done = scheduler_.Now();
    }
  });
  // Small coflow: 1 Gb into host 1, same bottleneck as the first large flow.
  flow_sim_.StartFlow(1, 2, 1, Gbps(1), 0, 0, [&](FlowId) {
    if (--small_left == 0) {
      small_done = scheduler_.Now();
    }
  });
  scheduler_.Run();
  // Sincronia orders the small coflow first: it finishes in ~0.1 s; the
  // large one takes ~1.1 s on the shared port (serialized), 1 s elsewhere.
  EXPECT_NEAR(small_done, 0.1, 0.02);
  EXPECT_NEAR(large_done, 1.1, 0.05);
}

TEST_F(SincroniaSchedulerTest, AverageCoflowCompletionBeatsFairSharing) {
  // One large + three small coflows on one bottleneck: serializing by BSSI
  // gives a lower average CCT than max-min fair sharing would.
  SincroniaScheduler sincronia(&flow_sim_, {});
  std::vector<SimTime> done(4, -1);
  flow_sim_.StartFlow(0, 0, 1, Gbps(9), 0, 0, [&](FlowId) { done[0] = scheduler_.Now(); });
  for (AppId a = 1; a <= 3; ++a) {
    flow_sim_.StartFlow(a, 2, 1, Gbps(1), 0, static_cast<uint64_t>(a),
                        [&, a](FlowId) { done[static_cast<size_t>(a)] = scheduler_.Now(); });
  }
  scheduler_.Run();
  double avg = 0;
  for (SimTime t : done) {
    ASSERT_GT(t, 0);
    avg += t;
  }
  avg /= 4.0;
  // Fair sharing: every coflow finishes around 1.2 s -> average ~1.2.
  // BSSI: smalls at 0.1/0.2/0.3, large at 1.2 -> average ~0.45.
  EXPECT_LT(avg, 0.8);
}

TEST_F(SincroniaSchedulerTest, RecomputesOrderAsCoflowsFinish) {
  SincroniaScheduler sincronia(&flow_sim_, {});
  // After the small coflow drains, the large one must get full rate.
  SimTime large_done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { large_done = scheduler_.Now(); });
  flow_sim_.StartFlow(1, 2, 1, Gbps(2), 0, 0, nullptr);
  scheduler_.Run();
  EXPECT_NEAR(large_done, 1.2, 0.05);
}


TEST_F(SincroniaSchedulerTest, PrioritiesFollowReferenceOrderOnSpineLeaf) {
  // The fixture's star gives every flow its own host ports; this case needs
  // coflows that share uplinks, so it runs on a small spine-leaf instead.
  EventScheduler scheduler;
  Network network(BuildSpineLeaf({.num_spine = 2,
                                  .num_leaf = 4,
                                  .num_tor = 4,
                                  .hosts_per_tor = 3,
                                  .num_pods = 2,
                                  .host_link_bps = Gbps64(10),
                                  .tor_leaf_bps = Gbps64(10),
                                  .leaf_spine_bps = Gbps64(10)}),
                  /*default_queues=*/8);
  StrictPriorityAllocator allocator;
  FlowSimulator flow_sim(&scheduler, &network, &allocator);
  SincroniaConfig config;
  config.num_priorities = 3;
  SincroniaScheduler sincronia(&flow_sim, config);

  // Six apps whose ids run against their first appearance, with flows
  // starting at random instants so that apps interleave in flow-id order.
  const std::vector<NodeId> hosts = network.topology().Hosts();
  Rng rng(7);
  constexpr int kApps = 6;
  constexpr int kFlowsPerApp = 5;
  for (int a = 0; a < kApps; ++a) {
    const AppId app = 10 * (kApps - a);
    for (int i = 0; i < kFlowsPerApp; ++i) {
      const NodeId src = rng.Choice(hosts);
      NodeId dst = src;
      while (dst == src) {
        dst = rng.Choice(hosts);
      }
      const double bits = Gbps(rng.Uniform(0.2, 2.0));
      const uint64_t salt = rng.Next();
      scheduler.ScheduleAt(rng.Uniform(0.0, 0.3), [&flow_sim, app, src, dst, bits, salt] {
        flow_sim.StartFlow(app, src, dst, bits, 0, salt, nullptr);
      });
    }
  }

  uint64_t runs = flow_sim.allocator_runs();
  int checked = 0;
  size_t most_coflows = 0;
  while (scheduler.Step()) {
    if (flow_sim.allocator_runs() == runs) {
      continue;
    }
    runs = flow_sim.allocator_runs();
    // Reference coflows: one std::map per app, apps in order of first
    // appearance, each port's bits summed in flow-id order.
    std::vector<MapCoflow> coflows;
    std::map<AppId, size_t> index;
    flow_sim.ForEachActiveFlow([&](const ActiveFlow& flow) {
      const auto [it, inserted] = index.emplace(flow.app, coflows.size());
      if (inserted) {
        coflows.push_back({flow.app, {}});
      }
      for (const LinkId link : *flow.path) {
        coflows[it->second].port_demand[link] += flow.remaining_bits;
      }
    });
    if (coflows.empty()) {
      continue;
    }
    most_coflows = std::max(most_coflows, coflows.size());
    const std::vector<AppId> order = ReferenceBssiOrder(coflows);
    flow_sim.ForEachActiveFlow([&](const ActiveFlow& flow) {
      const auto pos = static_cast<int>(std::find(order.begin(), order.end(), flow.app) -
                                        order.begin());
      EXPECT_EQ(flow.priority, std::min(pos, config.num_priorities - 1))
          << "flow " << flow.id << " of app " << flow.app << " at t=" << scheduler.Now();
    });
    ++checked;
  }
  EXPECT_EQ(flow_sim.completed_flow_count(), static_cast<uint64_t>(kApps * kFlowsPerApp));
  EXPECT_GT(checked, 20);
  // More coflows than classes at some point, so the clamp was exercised.
  EXPECT_GT(most_coflows, static_cast<size_t>(config.num_priorities));
}

}  // namespace
}  // namespace saba
