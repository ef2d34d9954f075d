#include "src/net/allocation_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/net/allocator.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/net/units.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

double PerAppWeight(LinkId, AppId app) { return 1.0 + static_cast<double>(app % 3); }

// Test-owned per-flow route storage. The churn tests include a link-failure
// op that bumps the topology epoch and thus clears the router's caches, so
// flows must never point into those caches: each flow's path lives here and
// std::map node stability keeps `&entry.path` valid across inserts/erases.
struct FlowRoute {
  NodeId src;
  NodeId dst;
  uint64_t salt;
  std::vector<LinkId> path;
};

// Forward ids of the duplex switch-to-switch links — the candidates the
// failure op may take down. With one duplex link down at a time the churn
// fabric stays connected (every ToR keeps two leaf uplinks and every leaf two
// spine uplinks).
std::vector<LinkId> SwitchSwitchForwardLinks(const Topology& topo) {
  std::vector<LinkId> fabric;
  for (size_t l = 0; l < topo.num_links(); l += 2) {  // AddDuplexLink: forward ids are even.
    const Link& link = topo.link(static_cast<LinkId>(l));
    if (IsSwitch(topo.node(link.src).kind) && IsSwitch(topo.node(link.dst).kind)) {
      fabric.push_back(static_cast<LinkId>(l));
    }
  }
  return fabric;
}

bool CrossesUnusableLink(const Topology& topo, const std::vector<LinkId>& path) {
  for (LinkId l : path) {
    if (!topo.LinkUsable(l)) {
      return true;
    }
  }
  return false;
}

// Randomized churn: interleave flow starts, cancels, queue moves (SL /
// priority / intra-weight, or SL and intra-weight at once), per-port
// reconfigurations, reprogramming announced only by a full invalidation, and
// link failures/restores (with deterministic reroute of broken flows). Like
// FlowSimulator, which coalesces same-instant deltas, each round applies one
// to four ops before Recompute(), and after EVERY Recompute() the engine's
// incremental rates must be bit-identical to a from-scratch solve of the same
// flow set.
struct ChurnCase {
  const char* name;
  AllocationDiscipline discipline;
  bool fecn;  // FECN congestion model (vs ideal).
  uint64_t seed;
};

class EngineChurnTest : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(EngineChurnTest, IncrementalMatchesFromScratchBitExact) {
  const ChurnCase& c = GetParam();
  Network network(BuildSpineLeaf({.num_spine = 2,
                                  .num_leaf = 4,
                                  .num_tor = 4,
                                  .hosts_per_tor = 3,
                                  .num_pods = 2,
                                  .host_link_bps = Gbps64(10),
                                  .tor_leaf_bps = Gbps64(10),
                                  .leaf_spine_bps = Gbps64(10)}),
                  /*default_queues=*/4);
  for (int sl = 0; sl < kNumServiceLevels; ++sl) {
    network.MapSlToQueueEverywhere(sl, sl % 4);
  }
  double gamma = 0.30;
  if (c.fecn) {
    network.SetCongestionModel(std::make_unique<FecnCongestionModel>(gamma));
  }
  const size_t num_links = network.topology().num_links();
  constexpr int kNumApps = 10;
  // A mutable per-(link, app) weight table: the reprogram op rewrites entries
  // behind the engine's back and announces it only through InvalidateAll().
  std::vector<double> app_weight(num_links * kNumApps);
  for (size_t i = 0; i < app_weight.size(); ++i) {
    app_weight[i] = PerAppWeight(kInvalidLink, static_cast<AppId>(i % kNumApps));
  }
  const PerAppWeightFn weights =
      c.discipline == AllocationDiscipline::kPerAppQueues
          ? PerAppWeightFn([&app_weight](LinkId l, AppId app) {
              return app_weight[static_cast<size_t>(l) * kNumApps + static_cast<size_t>(app)];
            })
          : PerAppWeightFn();

  AllocationEngine engine(&network, c.discipline, weights);
  const std::vector<NodeId> hosts = network.topology().Hosts();

  Rng rng(c.seed);
  std::map<FlowId, std::unique_ptr<ActiveFlow>> live;
  std::vector<FlowId> live_ids;  // Indexable for uniform picks; order free.
  std::map<FlowId, FlowRoute> routes;
  const std::vector<LinkId> fabric_links = SwitchSwitchForwardLinks(network.topology());
  LinkId down_link = kInvalidLink;  // At most one duplex link down at a time.
  FlowId next_id = 1;

  // Oracle scratch: value copies so the from-scratch run cannot perturb the
  // engine-owned flows.
  std::vector<ActiveFlow> oracle;
  std::vector<ActiveFlow*> oracle_ptrs;

  constexpr int kEvents = 5000;  // Recompute() rounds.
  for (int e = 0; e < kEvents; ++e) {
    const int64_t ops = rng.UniformInt(1, 4);
    for (int64_t o = 0; o < ops; ++o) {
      // Start-heavy until the pool is populated, then balanced churn.
      const double start_w = live.size() < 100 ? 0.45 : 0.25;
      const double cancel_w = live.size() < 100 ? 0.20 : 0.40;
      const size_t op = live.empty()
                            ? 0
                            : rng.WeightedIndex({start_w, cancel_w, 0.20, 0.10, 0.03, 0.02});
      switch (op) {
        case 0: {  // Start a flow.
          const NodeId src = rng.Choice(hosts);
          NodeId dst = rng.Choice(hosts);
          while (dst == src) {
            dst = rng.Choice(hosts);
          }
          auto flow = std::make_unique<ActiveFlow>();
          flow->id = next_id++;
          flow->app = static_cast<AppId>(rng.UniformInt(0, kNumApps - 1));
          flow->sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
          flow->priority = static_cast<int>(rng.UniformInt(0, 7));
          flow->intra_weight = rng.Bernoulli(0.2) ? 0.0625 : 1.0;
          flow->remaining_bits = rng.Uniform(1e6, 1e9);
          const uint64_t salt = rng.Next();
          FlowRoute& route = routes[flow->id];
          route = {src, dst, salt, network.router().Route(src, dst, salt)};
          flow->path = &route.path;
          engine.FlowAdded(flow.get());
          live_ids.push_back(flow->id);
          live.emplace(flow->id, std::move(flow));
          break;
        }
        case 1: {  // Cancel a flow.
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live_ids.size()) - 1));
          const FlowId id = live_ids[pick];
          live_ids[pick] = live_ids.back();
          live_ids.pop_back();
          engine.FlowRemoved(live.at(id).get());
          live.erase(id);
          routes.erase(id);
          break;
        }
        case 2: {  // Move a flow between queues / classes.
          ActiveFlow* flow = live.at(rng.Choice(live_ids)).get();
          switch (rng.UniformInt(0, 3)) {
            case 0:
              flow->sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
              break;
            case 1:
              flow->priority = static_cast<int>(rng.UniformInt(0, 7));
              break;
            case 2:
              flow->intra_weight = flow->intra_weight == 1.0 ? 0.0625 : 1.0;
              break;
            default:  // Both attributes, one delta.
              flow->sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
              flow->intra_weight = flow->intra_weight == 1.0 ? 0.0625 : 1.0;
              break;
          }
          engine.FlowQueueChanged(flow);
          break;
        }
        case 3: {  // Reconfigure one port.
          const LinkId link = static_cast<LinkId>(rng.UniformInt(
              0, static_cast<int64_t>(num_links) - 1));
          PortConfig& port = network.port(link);
          if (rng.Bernoulli(0.5)) {
            const int sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
            port.sl_to_queue[static_cast<size_t>(sl)] =
                static_cast<int>(rng.UniformInt(0, port.num_queues - 1));
          } else {
            const size_t q = static_cast<size_t>(rng.UniformInt(0, port.num_queues - 1));
            port.queue_weights[q] = rng.Uniform(0.1, 2.0);
          }
          engine.PortConfigChanged(link);
          break;
        }
        case 4: {  // Reprogram behind the engine's back, then only InvalidateAll():
                   // the controller's FinishFlush -> RequestReallocate path.
          for (int64_t k = rng.UniformInt(1, 3); k > 0; --k) {
            const LinkId link = static_cast<LinkId>(rng.UniformInt(
                0, static_cast<int64_t>(num_links) - 1));
            PortConfig& port = network.port(link);
            const size_t sl = static_cast<size_t>(rng.UniformInt(0, kNumServiceLevels - 1));
            port.sl_to_queue[sl] = static_cast<int>(rng.UniformInt(0, port.num_queues - 1));
            const size_t q = static_cast<size_t>(rng.UniformInt(0, port.num_queues - 1));
            port.queue_weights[q] = rng.Uniform(0.1, 2.0);
            const size_t app = static_cast<size_t>(rng.UniformInt(0, kNumApps - 1));
            app_weight[static_cast<size_t>(link) * kNumApps + app] = rng.Uniform(0.1, 2.0);
          }
          if (c.fecn && rng.Bernoulli(0.25)) {
            gamma = gamma == 0.30 ? 0.45 : 0.30;
            network.SetCongestionModel(std::make_unique<FecnCongestionModel>(gamma));
          }
          engine.InvalidateAll();
          break;
        }
        default: {  // Fail or restore one switch-switch duplex link.
          Topology& topo = network.topology();
          if (down_link == kInvalidLink) {
            down_link = rng.Choice(fabric_links);
            topo.SetLinkUp(down_link, false);
            topo.SetLinkUp(down_link + 1, false);
            // Re-pin broken flows in ascending id order (the FlowSimulator
            // contract): remove on the old path, re-route, re-add.
            for (auto& [id, route] : routes) {
              if (!CrossesUnusableLink(topo, route.path)) {
                continue;
              }
              ActiveFlow* flow = live.at(id).get();
              engine.FlowRemoved(flow);
              route.path = network.router().Route(route.src, route.dst, route.salt);
              ASSERT_FALSE(route.path.empty())
                  << "one duplex failure must leave the fabric connected";
              engine.FlowAdded(flow);
            }
          } else {  // Restores never move pinned flows; no deltas to stream.
            topo.SetLinkUp(down_link, true);
            topo.SetLinkUp(down_link + 1, true);
            down_link = kInvalidLink;
          }
          break;
        }
      }
    }

    engine.Recompute();

    oracle.clear();
    oracle_ptrs.clear();
    oracle.reserve(live.size());
    for (const auto& [id, flow] : live) {
      oracle.push_back(*flow);
    }
    for (ActiveFlow& flow : oracle) {
      oracle_ptrs.push_back(&flow);
    }
    AllocateFromScratch(oracle_ptrs, network, c.discipline, weights);
    for (const ActiveFlow& expect : oracle) {
      const double got = live.at(expect.id)->rate;
      ASSERT_EQ(expect.rate, got)
          << "event " << e << " flow " << expect.id << " diverged from oracle";
    }
  }
  EXPECT_GT(engine.stats().recomputes, 0u);
  EXPECT_GT(engine.stats().flows_frozen, 0u)
      << "churn never skipped work; incremental path not exercised";
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, EngineChurnTest,
    ::testing::Values(
        ChurnCase{"wfq_fecn", AllocationDiscipline::kWfqSlQueues, true, 11},
        ChurnCase{"wfq_ideal", AllocationDiscipline::kWfqSlQueues, false, 12},
        ChurnCase{"perapp_fecn", AllocationDiscipline::kPerAppQueues, true, 13},
        ChurnCase{"perapp_ideal", AllocationDiscipline::kPerAppQueues, false, 14},
        ChurnCase{"strict_fecn", AllocationDiscipline::kStrictPriority, true, 15},
        ChurnCase{"strict_ideal", AllocationDiscipline::kStrictPriority, false, 16}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) { return std::string(info.param.name); });

// The integer solve's headline property (DESIGN.md §7.1): rates are a pure
// function of the flow *multiset*. Feed AllocateFromScratch the same flows in
// shuffled orders and demand bit-identical rates — no canonical sort exists
// anywhere to restore order, so any hidden order dependence fails here.
TEST(AllocateFromScratchTest, FlowInputOrderNeverChangesAnyRate) {
  for (const AllocationDiscipline discipline :
       {AllocationDiscipline::kWfqSlQueues, AllocationDiscipline::kPerAppQueues,
        AllocationDiscipline::kStrictPriority}) {
    Network network(BuildSpineLeaf({.num_spine = 2,
                                    .num_leaf = 4,
                                    .num_tor = 4,
                                    .hosts_per_tor = 3,
                                    .num_pods = 2,
                                    .host_link_bps = Gbps64(10),
                                    .tor_leaf_bps = Gbps64(10),
                                    .leaf_spine_bps = Gbps64(10)}),
                    /*default_queues=*/4);
    for (int sl = 0; sl < kNumServiceLevels; ++sl) {
      network.MapSlToQueueEverywhere(sl, sl % 4);
    }
    network.SetCongestionModel(std::make_unique<FecnCongestionModel>(0.30));
    const PerAppWeightFn weights =
        discipline == AllocationDiscipline::kPerAppQueues ? PerAppWeight : PerAppWeightFn();
    const std::vector<NodeId> hosts = network.topology().Hosts();

    Rng rng(20260808 + static_cast<uint64_t>(discipline));
    std::vector<ActiveFlow> flows(300);
    FlowId next_id = 1;
    for (ActiveFlow& flow : flows) {
      const NodeId src = rng.Choice(hosts);
      NodeId dst = rng.Choice(hosts);
      while (dst == src) {
        dst = rng.Choice(hosts);
      }
      flow.id = next_id++;
      flow.app = static_cast<AppId>(rng.UniformInt(0, 9));
      flow.sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
      flow.priority = static_cast<int>(rng.UniformInt(0, 7));
      flow.intra_weight = rng.Bernoulli(0.2) ? 0.0625 : 1.0;
      flow.remaining_bits = rng.Uniform(1e6, 1e9);
      flow.path = &network.router().Route(src, dst, rng.Next());
    }

    std::vector<ActiveFlow*> ptrs(flows.size());
    for (size_t i = 0; i < flows.size(); ++i) {
      ptrs[i] = &flows[i];
    }
    AllocateFromScratch(ptrs, network, discipline, weights);
    std::map<FlowId, Bps64> baseline;
    for (const ActiveFlow& flow : flows) {
      baseline[flow.id] = flow.rate;
    }

    for (int trial = 0; trial < 10; ++trial) {
      for (size_t i = ptrs.size(); i > 1; --i) {  // Fisher-Yates on the input order.
        std::swap(ptrs[i - 1],
                  ptrs[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }
      for (ActiveFlow& flow : flows) {
        flow.rate = -1;  // Poison so a skipped flow cannot pass by luck.
      }
      AllocateFromScratch(ptrs, network, discipline, weights);
      for (const ActiveFlow& flow : flows) {
        ASSERT_EQ(flow.rate, baseline.at(flow.id))
            << "discipline " << static_cast<int>(discipline) << " trial " << trial << " flow "
            << flow.id;
      }
    }
  }
}

// Single-link components against the closed form: with one link no other
// resource can bind a queue first, so each queue's capacity is its WFQ share
// RoundBps(capacity × w_q/Σw × efficiency) and each flow gets the floor of its
// intra-weighted share of that. The redistribution rounds must then re-home
// nothing. That is exact when a link's queues share one efficiency (the slack
// is floor dust under FloorDust), and holds over these random mixes under
// FECN too. A heavy single-app queue beside a light queue mixing dozens of
// apps is the known exception: it can gain ~1 kb/s of dust (ROADMAP.md).
TEST(AllocateFromScratchTest, SingleLinkComponentsMatchClosedForm) {
  Rng rng(20261017);
  for (int trial = 0; trial < 400; ++trial) {
    const bool per_app = trial % 2 == 1;
    const int num_queues = static_cast<int>(rng.UniformInt(1, 8));
    const int num_apps = static_cast<int>(rng.UniformInt(1, 40));
    const Bps64 capacity = Gbps64(static_cast<double>(rng.UniformInt(1, 100)));
    Topology topo;
    const NodeId a = topo.AddNode(NodeKind::kHost);
    const NodeId b = topo.AddNode(NodeKind::kHost);
    const LinkId link = topo.AddLink(a, b, capacity);
    Network network(std::move(topo), num_queues);
    network.SetCongestionModel(std::make_unique<FecnCongestionModel>(trial % 4 < 2 ? 0.0 : 0.30));
    PortConfig& port = network.port(link);
    for (double& w : port.queue_weights) {
      w = rng.Uniform(0.5, 4.0);
    }
    for (int& q : port.sl_to_queue) {
      q = static_cast<int>(rng.UniformInt(0, num_queues - 1));
    }
    std::vector<double> app_weights(static_cast<size_t>(num_apps));
    for (double& w : app_weights) {
      w = rng.Uniform(0.5, 4.0);
    }
    const auto queue_of = [&](const ActiveFlow& flow) {
      return per_app ? flow.app : port.sl_to_queue[static_cast<size_t>(flow.sl)];
    };
    const PerAppWeightFn app_weight = [&](LinkId, AppId app) {
      return app_weights[static_cast<size_t>(app)];
    };
    const AllocationDiscipline discipline =
        per_app ? AllocationDiscipline::kPerAppQueues : AllocationDiscipline::kWfqSlQueues;

    const std::vector<LinkId> path = {link};
    std::vector<ActiveFlow> flows(static_cast<size_t>(rng.UniformInt(2, 200)));
    std::vector<ActiveFlow*> ptrs;
    for (ActiveFlow& flow : flows) {
      flow.id = static_cast<FlowId>(ptrs.size() + 1);
      flow.app = static_cast<AppId>(rng.UniformInt(0, num_apps - 1));
      flow.sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
      flow.intra_weight = rng.Bernoulli(0.2) ? 0.0625 : rng.Uniform(0.5, 2.0);
      flow.remaining_bits = Gigabytes(1);
      flow.path = &path;
      ptrs.push_back(&flow);
    }
    AllocateFromScratch(ptrs, network, discipline, app_weight);

    struct Queue {
      int64_t weight_units = 0;
      int64_t flow_weight_units = 0;  // Σ intra-weight units of its flows.
      std::set<AppId> apps;
      Bps64 capacity = 0;
    };
    // Keyed like the engine: the queue index, or the app for per-app queues.
    const std::vector<double>& key_weights = per_app ? app_weights : port.queue_weights;
    std::map<int, Queue> queues;
    int64_t weight_sum = 0;
    for (const ActiveFlow& flow : flows) {
      const int key = queue_of(flow);
      Queue& q = queues[key];
      if (q.weight_units == 0) {
        q.weight_units = WeightUnits(key_weights[static_cast<size_t>(key)]);
        weight_sum += q.weight_units;
      }
      q.flow_weight_units += WeightUnits(flow.intra_weight);
      q.apps.insert(flow.app);
    }
    for (auto& [key, q] : queues) {
      const double share = static_cast<double>(q.weight_units) / static_cast<double>(weight_sum);
      const double efficiency = network.congestion().QueueEfficiency(q.apps.size());
      q.capacity = RoundBps(BpsToDouble(capacity) * share * efficiency);
    }
    for (const ActiveFlow& flow : flows) {
      const Queue& q = queues.at(queue_of(flow));
      const __int128 weighted = static_cast<__int128>(WeightUnits(flow.intra_weight)) * q.capacity;
      ASSERT_EQ(flow.rate, static_cast<Bps64>(weighted / q.flow_weight_units))
          << "trial " << trial << " flow " << flow.id << " (" << q.apps.size() << " apps)";
    }
  }
}

// Deterministic skip accounting on a star: host pairs (0,1) and (2,3) share
// no link, so events on one pair must never re-rate the other.
TEST(AllocationEngineStatsTest, UntouchedComponentsAreFrozen) {
  Network network(BuildSingleSwitchStar(6, Gbps64(10)), /*default_queues=*/2);
  AllocationEngine engine(&network, AllocationDiscipline::kWfqSlQueues);

  auto make_flow = [&](FlowId id, NodeId src, NodeId dst) {
    auto flow = std::make_unique<ActiveFlow>();
    flow->id = id;
    flow->app = static_cast<AppId>(id);
    flow->remaining_bits = Gbps(10);
    flow->path = &network.router().Route(src, dst, 0);
    return flow;
  };

  auto a = make_flow(1, 0, 1);
  auto b = make_flow(2, 2, 3);
  engine.FlowAdded(a.get());
  engine.FlowAdded(b.get());
  engine.Recompute();
  EXPECT_EQ(engine.stats().recomputes, 1u);
  EXPECT_EQ(engine.stats().components_solved, 2u);
  EXPECT_EQ(engine.stats().flows_rerated, 2u);
  EXPECT_EQ(engine.stats().flows_frozen, 0u);
  EXPECT_GT(a->rate, 0.0);
  EXPECT_GT(b->rate, 0.0);

  // A third flow on the (0,1) pair dirties only that component: b freezes.
  auto c = make_flow(3, 0, 1);
  engine.FlowAdded(c.get());
  const double b_rate = b->rate;
  engine.Recompute();
  EXPECT_EQ(engine.stats().components_solved, 3u);
  EXPECT_EQ(engine.stats().flows_rerated, 4u);
  EXPECT_EQ(engine.stats().flows_frozen, 1u);
  EXPECT_EQ(b->rate, b_rate);
  EXPECT_EQ(engine.stats().full_recomputes, 0u);

  // Removing b leaves its links dirty but empty: nothing re-rates.
  engine.FlowRemoved(b.get());
  engine.Recompute();
  EXPECT_EQ(engine.stats().components_solved, 3u);
  EXPECT_EQ(engine.stats().flows_rerated, 4u);
  EXPECT_EQ(engine.stats().flows_frozen, 3u);

  // InvalidateAll falls back to a full solve of everything: the one
  // remaining component re-rates and no flow freezes.
  engine.InvalidateAll();
  engine.Recompute();
  EXPECT_EQ(engine.stats().full_recomputes, 1u);
  EXPECT_EQ(engine.stats().components_solved, 4u);
  EXPECT_EQ(engine.stats().flows_rerated, 6u);
  EXPECT_EQ(engine.stats().flows_frozen, 3u);

  // Clean engine: Recompute is a no-op.
  const uint64_t before = engine.stats().recomputes;
  engine.Recompute();
  EXPECT_EQ(engine.stats().recomputes, before);

  // An empty engine still counts an invalidated recompute, but solves nothing.
  AllocationEngine empty(&network, AllocationDiscipline::kWfqSlQueues);
  empty.InvalidateAll();
  empty.Recompute();
  EXPECT_EQ(empty.stats().recomputes, 1u);
  EXPECT_EQ(empty.stats().full_recomputes, 1u);
  EXPECT_EQ(empty.stats().components_solved, 0u);
  EXPECT_EQ(empty.stats().flows_rerated, 0u);
  EXPECT_EQ(empty.stats().flows_frozen, 0u);
}

}  // namespace
}  // namespace saba
