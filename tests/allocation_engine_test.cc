#include "src/net/allocation_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
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
// priority / intra-weight), per-port reconfigurations, full invalidations,
// and link failures/restores (with deterministic reroute of broken flows),
// and after EVERY event check that the engine's incremental rates are
// bit-identical to a from-scratch solve of the same flow set.
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
  if (c.fecn) {
    network.SetCongestionModel(std::make_unique<FecnCongestionModel>(0.30));
  }
  const PerAppWeightFn weights =
      c.discipline == AllocationDiscipline::kPerAppQueues ? PerAppWeight : PerAppWeightFn();

  AllocationEngine engine(&network, c.discipline, weights);
  const std::vector<NodeId> hosts = network.topology().Hosts();
  const size_t num_links = network.topology().num_links();

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

  constexpr int kEvents = 5000;
  for (int e = 0; e < kEvents; ++e) {
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
        flow->app = static_cast<AppId>(rng.UniformInt(0, 9));
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
        switch (rng.UniformInt(0, 2)) {
          case 0:
            flow->sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
            break;
          case 1:
            flow->priority = static_cast<int>(rng.UniformInt(0, 7));
            break;
          default:
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
      case 4:
        engine.InvalidateAll();
        break;
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

// Component-parallel solving (DESIGN.md §7.3): one engine per solve_jobs
// setting {1, 2, 4} consumes the SAME delta stream over per-universe flow
// copies (engines write rates in place; the const routes are shared), and
// after every event all engines plus the from-scratch oracle must agree
// bit-exactly. This is the serial == parallel == incremental == from-scratch
// proof the parallelism contract rests on.
struct ParallelChurnCase {
  const char* name;
  AllocationDiscipline discipline;
  int events;
  uint64_t seed;
};

class EngineParallelChurnTest : public ::testing::TestWithParam<ParallelChurnCase> {};

TEST_P(EngineParallelChurnTest, SolveJobsNeverChangesAnyRate) {
  const ParallelChurnCase& c = GetParam();
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
      c.discipline == AllocationDiscipline::kPerAppQueues ? PerAppWeight : PerAppWeightFn();

  constexpr int kJobs[] = {1, 2, 4};
  constexpr size_t kUniverses = 3;
  struct Universe {
    std::unique_ptr<AllocationEngine> engine;
    std::map<FlowId, std::unique_ptr<ActiveFlow>> live;
  };
  Universe universes[kUniverses];
  for (size_t u = 0; u < kUniverses; ++u) {
    universes[u].engine = std::make_unique<AllocationEngine>(&network, c.discipline, weights);
    universes[u].engine->SetSolveJobs(kJobs[u]);
  }

  const std::vector<NodeId> hosts = network.topology().Hosts();
  const size_t num_links = network.topology().num_links();
  Rng rng(c.seed);
  std::vector<FlowId> live_ids;
  std::map<FlowId, FlowRoute> routes;  // Shared across universes.
  const std::vector<LinkId> fabric_links = SwitchSwitchForwardLinks(network.topology());
  LinkId down_link = kInvalidLink;
  FlowId next_id = 1;

  std::vector<ActiveFlow> oracle;
  std::vector<ActiveFlow*> oracle_ptrs;

  for (int e = 0; e < c.events; ++e) {
    const double start_w = live_ids.size() < 100 ? 0.45 : 0.25;
    const double cancel_w = live_ids.size() < 100 ? 0.20 : 0.40;
    const size_t op = live_ids.empty()
                          ? 0
                          : rng.WeightedIndex({start_w, cancel_w, 0.20, 0.10, 0.03, 0.02});
    switch (op) {
      case 0: {  // Start a flow: draw it once, register a copy per universe.
        const NodeId src = rng.Choice(hosts);
        NodeId dst = rng.Choice(hosts);
        while (dst == src) {
          dst = rng.Choice(hosts);
        }
        ActiveFlow proto;
        proto.id = next_id++;
        proto.app = static_cast<AppId>(rng.UniformInt(0, 9));
        proto.sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
        proto.priority = static_cast<int>(rng.UniformInt(0, 7));
        proto.intra_weight = rng.Bernoulli(0.2) ? 0.0625 : 1.0;
        proto.remaining_bits = rng.Uniform(1e6, 1e9);
        const uint64_t salt = rng.Next();
        FlowRoute& route = routes[proto.id];
        route = {src, dst, salt, network.router().Route(src, dst, salt)};
        proto.path = &route.path;
        for (Universe& u : universes) {
          auto flow = std::make_unique<ActiveFlow>(proto);
          u.engine->FlowAdded(flow.get());
          u.live.emplace(proto.id, std::move(flow));
        }
        live_ids.push_back(proto.id);
        break;
      }
      case 1: {  // Cancel a flow, everywhere.
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live_ids.size()) - 1));
        const FlowId id = live_ids[pick];
        live_ids[pick] = live_ids.back();
        live_ids.pop_back();
        for (Universe& u : universes) {
          u.engine->FlowRemoved(u.live.at(id).get());
          u.live.erase(id);
        }
        routes.erase(id);
        break;
      }
      case 2: {  // Move a flow between queues / classes (same move everywhere).
        const FlowId id = rng.Choice(live_ids);
        const int64_t kind = rng.UniformInt(0, 2);
        const int new_sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
        const int new_priority = static_cast<int>(rng.UniformInt(0, 7));
        for (Universe& u : universes) {
          ActiveFlow* flow = u.live.at(id).get();
          switch (kind) {
            case 0:
              flow->sl = new_sl;
              break;
            case 1:
              flow->priority = new_priority;
              break;
            default:
              flow->intra_weight = flow->intra_weight == 1.0 ? 0.0625 : 1.0;
              break;
          }
          u.engine->FlowQueueChanged(flow);
        }
        break;
      }
      case 3: {  // Reconfigure one port (the network is shared).
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
        for (Universe& u : universes) {
          u.engine->PortConfigChanged(link);
        }
        break;
      }
      case 4:
        for (Universe& u : universes) {
          u.engine->InvalidateAll();
        }
        break;
      default: {  // Fail or restore one duplex link, rerouting every universe.
        Topology& topo = network.topology();
        if (down_link == kInvalidLink) {
          down_link = rng.Choice(fabric_links);
          topo.SetLinkUp(down_link, false);
          topo.SetLinkUp(down_link + 1, false);
          for (auto& [id, route] : routes) {
            if (!CrossesUnusableLink(topo, route.path)) {
              continue;
            }
            // Every universe's flow copy points at the one shared path:
            // remove everywhere first, then overwrite it, then re-add.
            for (Universe& u : universes) {
              u.engine->FlowRemoved(u.live.at(id).get());
            }
            route.path = network.router().Route(route.src, route.dst, route.salt);
            ASSERT_FALSE(route.path.empty())
                << "one duplex failure must leave the fabric connected";
            for (Universe& u : universes) {
              u.engine->FlowAdded(u.live.at(id).get());
            }
          }
        } else {
          topo.SetLinkUp(down_link, true);
          topo.SetLinkUp(down_link + 1, true);
          down_link = kInvalidLink;
        }
        break;
      }
    }

    for (Universe& u : universes) {
      u.engine->Recompute();
    }

    // Every parallel universe must match the serial one, bit for bit.
    for (const FlowId id : live_ids) {
      const double serial = universes[0].live.at(id)->rate;
      for (size_t u = 1; u < kUniverses; ++u) {
        ASSERT_EQ(serial, universes[u].live.at(id)->rate)
            << "event " << e << " flow " << id << " diverged at solve_jobs=" << kJobs[u];
      }
    }
    // ... and the serial one must match the from-scratch oracle.
    oracle.clear();
    oracle_ptrs.clear();
    oracle.reserve(universes[0].live.size());
    for (const auto& [id, flow] : universes[0].live) {
      oracle.push_back(*flow);
    }
    for (ActiveFlow& flow : oracle) {
      oracle_ptrs.push_back(&flow);
    }
    AllocateFromScratch(oracle_ptrs, network, c.discipline, weights);
    for (const ActiveFlow& expect : oracle) {
      ASSERT_EQ(expect.rate, universes[0].live.at(expect.id)->rate)
          << "event " << e << " flow " << expect.id << " diverged from oracle";
    }
  }

  // Random churn on this small fabric tends to knot every flow into one
  // component, which the adaptive fallback keeps inline. Drain the fabric
  // and start two disjoint intra-pod blobs in one burst: a guaranteed
  // multi-component batch above kMinParallelBatchFlows, so the dispatched
  // path is exercised (and must still be bit-identical) regardless of how
  // the churn clustered.
  for (const FlowId id : live_ids) {
    for (Universe& u : universes) {
      u.engine->FlowRemoved(u.live.at(id).get());
      u.live.erase(id);
    }
  }
  live_ids.clear();
  routes.clear();
  for (Universe& u : universes) {
    u.engine->Recompute();
  }
  const size_t hosts_per_pod = hosts.size() / 2;
  for (size_t k = 0; k < AllocationEngine::kMinParallelBatchFlows; ++k) {
    const size_t pod = k % 2;
    const size_t base = pod * hosts_per_pod;
    const int64_t span = static_cast<int64_t>(hosts_per_pod) - 1;
    const NodeId src = hosts[base + static_cast<size_t>(rng.UniformInt(0, span))];
    NodeId dst = src;
    while (dst == src) {
      dst = hosts[base + static_cast<size_t>(rng.UniformInt(0, span))];
    }
    ActiveFlow proto;
    proto.id = next_id++;
    proto.app = static_cast<AppId>(rng.UniformInt(0, 9));
    proto.sl = static_cast<int>(rng.UniformInt(0, kNumServiceLevels - 1));
    proto.remaining_bits = rng.Uniform(1e6, 1e9);
    const uint64_t salt = rng.Next();
    FlowRoute& route = routes[proto.id];
    route = {src, dst, salt, network.router().Route(src, dst, salt)};
    proto.path = &route.path;
    for (Universe& u : universes) {
      auto flow = std::make_unique<ActiveFlow>(proto);
      u.engine->FlowAdded(flow.get());
      u.live.emplace(proto.id, std::move(flow));
    }
    live_ids.push_back(proto.id);
  }
  for (Universe& u : universes) {
    u.engine->Recompute();
  }
  for (const FlowId id : live_ids) {
    const double serial = universes[0].live.at(id)->rate;
    for (size_t u = 1; u < kUniverses; ++u) {
      ASSERT_EQ(serial, universes[u].live.at(id)->rate)
          << "burst flow " << id << " diverged at solve_jobs=" << kJobs[u];
    }
  }

  // The accounting must be scheduling-independent too: every counter that
  // describes WHAT was solved agrees across solve_jobs; the parallel_*
  // counters are 0 serially and identical for every parallel setting (the
  // dispatch decision depends only on the component count and batch size).
  const AllocationEngineStats& s1 = universes[0].engine->stats();
  const AllocationEngineStats& s2 = universes[1].engine->stats();
  const AllocationEngineStats& s4 = universes[2].engine->stats();
  EXPECT_EQ(s1.recomputes, s2.recomputes);
  EXPECT_EQ(s1.recomputes, s4.recomputes);
  EXPECT_EQ(s1.full_recomputes, s2.full_recomputes);
  EXPECT_EQ(s1.full_recomputes, s4.full_recomputes);
  EXPECT_EQ(s1.components_solved, s2.components_solved);
  EXPECT_EQ(s1.components_solved, s4.components_solved);
  EXPECT_EQ(s1.flows_rerated, s2.flows_rerated);
  EXPECT_EQ(s1.flows_rerated, s4.flows_rerated);
  EXPECT_EQ(s1.flows_frozen, s2.flows_frozen);
  EXPECT_EQ(s1.flows_frozen, s4.flows_frozen);
  EXPECT_EQ(s1.parallel_solves, 0u);
  EXPECT_EQ(s1.parallel_components, 0u);
  EXPECT_GT(s2.parallel_solves, 0u) << "churn never produced a multi-component batch";
  EXPECT_EQ(s2.parallel_solves, s4.parallel_solves);
  EXPECT_EQ(s2.parallel_components, s4.parallel_components);
  EXPECT_LE(s2.parallel_components, s2.components_solved);
  EXPECT_GE(s2.parallel_components, 2 * s2.parallel_solves)
      << "a dispatched batch always has at least two components";
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, EngineParallelChurnTest,
    ::testing::Values(
        ParallelChurnCase{"wfq_fecn", AllocationDiscipline::kWfqSlQueues, 10000, 21},
        ParallelChurnCase{"perapp_fecn", AllocationDiscipline::kPerAppQueues, 3000, 22},
        ParallelChurnCase{"strict_fecn", AllocationDiscipline::kStrictPriority, 3000, 23}),
    [](const ::testing::TestParamInfo<ParallelChurnCase>& info) {
      return std::string(info.param.name);
    });

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

// Exact values for the parallel counters (DESIGN.md §7.3): they count
// dispatch DECISIONS, which depend only on solve_jobs, the per-recompute
// component count, and the batch's flow total (the adaptive serial fallback,
// kMinParallelBatchFlows) — never on thread timing. Disjoint host pairs on a
// star give single-flow components, so the flow total is controlled exactly.
TEST(AllocationEngineStatsTest, ParallelCountersAgreeAcrossSolveJobs) {
  constexpr size_t kThreshold = AllocationEngine::kMinParallelBatchFlows;
  // Hosts for 3 warm-up pairs plus one over-threshold burst of pairs.
  const int num_hosts = static_cast<int>(2 * (3 + kThreshold));
  Network network(BuildSingleSwitchStar(num_hosts, Gbps64(10)), /*default_queues=*/2);
  AllocationEngine serial(&network, AllocationDiscipline::kWfqSlQueues);
  AllocationEngine pooled(&network, AllocationDiscipline::kWfqSlQueues);
  pooled.SetSolveJobs(4);
  EXPECT_EQ(serial.solve_jobs(), 1);
  EXPECT_EQ(pooled.solve_jobs(), 4);

  std::vector<std::unique_ptr<ActiveFlow>> flows;
  auto add_pair = [&](FlowId id, NodeId src, NodeId dst) {
    for (AllocationEngine* engine : {&serial, &pooled}) {
      auto flow = std::make_unique<ActiveFlow>();
      flow->id = id;
      flow->app = static_cast<AppId>(id);
      flow->remaining_bits = Gbps(10);
      flow->path = &network.router().Route(src, dst, 0);
      engine->FlowAdded(flow.get());
      flows.push_back(std::move(flow));
    }
  };

  add_pair(1, 0, 1);
  add_pair(2, 2, 3);
  add_pair(3, 4, 5);
  serial.Recompute();
  pooled.Recompute();

  // Same work on both engines...
  EXPECT_EQ(serial.stats().components_solved, 3u);
  EXPECT_EQ(pooled.stats().components_solved, 3u);
  for (size_t i = 0; i + 1 < flows.size(); i += 2) {
    EXPECT_EQ(flows[i]->rate, flows[i + 1]->rate) << "flow " << flows[i]->id;
  }
  // ...but neither dispatched: three single-flow components are far below
  // the flow threshold, so the adaptive fallback keeps the batch inline.
  EXPECT_EQ(serial.stats().parallel_solves, 0u);
  EXPECT_EQ(serial.stats().parallel_components, 0u);
  EXPECT_EQ(pooled.stats().parallel_solves, 0u);
  EXPECT_EQ(pooled.stats().parallel_components, 0u);

  // A burst of kMinParallelBatchFlows fresh pairs in one recompute crosses
  // the threshold: exactly one dispatched batch of that many components.
  FlowId next_id = 4;
  for (size_t p = 0; p < kThreshold; ++p) {
    const NodeId src = static_cast<NodeId>(6 + 2 * p);
    add_pair(next_id++, src, src + 1);
  }
  serial.Recompute();
  pooled.Recompute();
  EXPECT_EQ(serial.stats().components_solved, 3u + kThreshold);
  EXPECT_EQ(pooled.stats().components_solved, 3u + kThreshold);
  EXPECT_EQ(serial.stats().parallel_solves, 0u);
  EXPECT_EQ(pooled.stats().parallel_solves, 1u);
  EXPECT_EQ(pooled.stats().parallel_components, kThreshold);
  for (size_t i = 0; i + 1 < flows.size(); i += 2) {
    EXPECT_EQ(flows[i]->rate, flows[i + 1]->rate) << "flow " << flows[i]->id;
  }

  // A single-component follow-up runs serially even at solve_jobs=4: the
  // parallel counters must not move.
  add_pair(next_id++, 0, 1);
  serial.Recompute();
  pooled.Recompute();
  EXPECT_EQ(serial.stats().components_solved, 4u + kThreshold);
  EXPECT_EQ(pooled.stats().components_solved, 4u + kThreshold);
  EXPECT_EQ(pooled.stats().parallel_solves, 1u);
  EXPECT_EQ(pooled.stats().parallel_components, kThreshold);
  for (size_t i = 0; i + 1 < flows.size(); i += 2) {
    EXPECT_EQ(flows[i]->rate, flows[i + 1]->rate) << "flow " << flows[i]->id;
  }
}

}  // namespace
}  // namespace saba
