#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/distributed_controller.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/net/units.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

// The sharded-flush half of the DESIGN.md §7.3 contract: neither the shard
// count nor the flush worker count may change any programmed rate, queue
// map, or merged stats counter. Distributed controllers at shard counts
// {1, 2, 8} (serial and pooled) consume the same churn stream as a
// centralized controller pinned to the same offline mapping database — the
// oracle — and every universe must agree with it bit-exactly after every
// event. Periodic full recomputes push flushes past the adaptive dispatch
// threshold so the pooled universes genuinely fan out (the TSan CI job runs
// this test to certify the fan-out).

// Centralized oracle with the distributed controller's registration
// semantics: PLs come from the shared offline database and nothing ever
// re-clusters, so any state divergence is the sharding's fault alone.
class StaticOracleController : public CentralizedController {
 public:
  StaticOracleController(Network* network, const SensitivityTable* table,
                         const MappingDatabase* database, ControllerOptions options)
      : CentralizedController(network, /*flow_sim=*/nullptr, table, options),
        database_(database) {
    InstallPlModels(database_->pl_models);
  }

  int AppRegister(AppId app, const std::string& workload_name) override {
    const int pl = database_->PlForWorkload(workload_name);
    RegisterAppStatic(app, workload_name, pl);
    return pl;
  }

  void AppDeregister(AppId app) override {
    auto it = apps_.find(app);
    ASSERT_TRUE(it != apps_.end());
    ASSERT_EQ(it->second.connections, 0);
    ++stats_.deregistrations;
    apps_.erase(it);
  }

  // Mirrors the controller's member type; only compared with operator==,
  // which is iteration-order-insensitive for unordered containers.
  // saba-lint: unordered-iter-ok(order-insensitive operator== comparison only)
  const std::unordered_map<LinkId, std::vector<std::pair<AppId, double>>>& port_weights() const {
    return port_weights_;
  }

 private:
  const MappingDatabase* database_;
};

class ShardProbeController : public DistributedController {
 public:
  using DistributedController::DistributedController;

  // saba-lint: unordered-iter-ok(order-insensitive operator== comparison only)
  const std::unordered_map<LinkId, std::vector<std::pair<AppId, double>>>& port_weights() const {
    return port_weights_;
  }
};

// Big enough that a full recompute dirties more ports than the adaptive
// fallback threshold (kMinParallelFlushPorts), so shard_jobs > 1 universes
// actually dispatch: 24 hosts, 112 directed links.
std::unique_ptr<Network> MakeNetwork() {
  return std::make_unique<Network>(BuildSpineLeaf({.num_spine = 4,
                                                   .num_leaf = 4,
                                                   .num_tor = 8,
                                                   .hosts_per_tor = 3,
                                                   .num_pods = 2,
                                                   .host_link_bps = Gbps64(10),
                                                   .tor_leaf_bps = Gbps64(10),
                                                   .leaf_spine_bps = Gbps64(10)}),
                                   /*default_queues=*/4);
}

SensitivityTable MakeTable() {
  SensitivityTable table;
  const std::vector<std::pair<std::string, Polynomial>> entries = {
      {"steep", Polynomial({5.0, -4.0})},
      {"flat", Polynomial({1.2, -0.2})},
      {"quad", Polynomial({2.9, -2.5, 0.6})},
      // Non-convex on (0.5, 1], so ports carrying a "bursty" mix take the
      // projected-gradient path and exercise the signature-seeded Rng.
      {"bursty", Polynomial({2.1, -1.2, 0.3, -0.25, 0.05})},
  };
  for (const auto& [name, poly] : entries) {
    SensitivityEntry entry;
    entry.model = SensitivityModel{poly};
    table.Put(name, entry);
  }
  return table;
}

struct Conn {
  AppId app;
  NodeId src;
  NodeId dst;
  uint64_t salt;
};

struct ShardUniverse {
  int num_shards;
  int shard_jobs;
  std::unique_ptr<Network> network;
  std::unique_ptr<ShardProbeController> controller;
};

void ExpectMatchesOracle(const StaticOracleController& oracle, const Network& oracle_net,
                         const ShardUniverse& u, int event) {
  ASSERT_EQ(oracle.registered_app_count(), u.controller->registered_app_count())
      << "event " << event << " shards " << u.num_shards;
  EXPECT_EQ(oracle.port_weights(), u.controller->port_weights())
      << "event " << event << " shards " << u.num_shards;
  const size_t num_links = oracle_net.topology().num_links();
  ASSERT_EQ(num_links, u.network->topology().num_links());
  for (LinkId link = 0; link < static_cast<LinkId>(num_links); ++link) {
    const PortConfig& a = oracle_net.port(link);
    const PortConfig& b = u.network->port(link);
    ASSERT_EQ(a.sl_to_queue, b.sl_to_queue)
        << "link " << link << " event " << event << " shards " << u.num_shards;
    ASSERT_EQ(a.queue_weights, b.queue_weights)
        << "link " << link << " event " << event << " shards " << u.num_shards;
  }
  // The one state digest the benches print covers all of the above.
  ASSERT_EQ(oracle.StateDigest(), u.controller->StateDigest())
      << "event " << event << " shards " << u.num_shards;
  // Merged counters describing WHAT happened are shard-invariant. (The eq2
  // hit/miss *split* is not — per-shard caches each miss a signature once —
  // but the total must always equal the reconfiguration count.)
  const ControllerStats& so = oracle.stats();
  const ControllerStats& su = u.controller->stats();
  ASSERT_EQ(so.registrations, su.registrations) << "event " << event;
  ASSERT_EQ(so.deregistrations, su.deregistrations) << "event " << event;
  ASSERT_EQ(so.conn_creates, su.conn_creates) << "event " << event;
  ASSERT_EQ(so.conn_destroys, su.conn_destroys) << "event " << event;
  ASSERT_EQ(so.port_reconfigurations, su.port_reconfigurations)
      << "event " << event << " shards " << u.num_shards << " jobs " << u.shard_jobs;
  ASSERT_EQ(su.eq2_cache_hits + su.eq2_cache_misses, su.port_reconfigurations)
      << "event " << event << " shards " << u.num_shards;
  ASSERT_EQ(su.pl_reclusterings, 0u);
}

TEST(ShardedFlushTest, ShardAndWorkerCountsNeverChangeStateOrStats) {
  const SensitivityTable table = MakeTable();
  const MappingDatabase database = MappingDatabase::Build(table, /*num_pls=*/4, /*seed=*/3);

  ControllerOptions base;  // solve_cache defaults to on, like production.
  std::unique_ptr<Network> oracle_net = MakeNetwork();
  StaticOracleController oracle(oracle_net.get(), &table, &database, base);

  std::vector<ShardUniverse> universes;
  const std::pair<int, int> configs[] = {{1, 1}, {2, 4}, {8, 1}, {8, 4}};
  for (const auto& [shards, jobs] : configs) {
    ShardUniverse u;
    u.num_shards = shards;
    u.shard_jobs = jobs;
    u.network = MakeNetwork();
    DistributedControllerOptions options;
    options.base = base;
    options.num_shards = shards;
    options.shard_jobs = jobs;
    u.controller = std::make_unique<ShardProbeController>(u.network.get(), /*flow_sim=*/nullptr,
                                                          &table, database, options);
    universes.push_back(std::move(u));
  }

  const std::vector<NodeId> hosts = oracle_net->topology().Hosts();
  const std::vector<std::string> workloads = {"steep", "flat", "quad", "bursty"};

  Rng rng(17);
  std::vector<AppId> apps;
  std::vector<Conn> conns;
  AppId next_app = 1;

  auto for_all = [&](auto&& fn) {
    fn(static_cast<ControllerInterface*>(&oracle));
    for (ShardUniverse& u : universes) {
      fn(static_cast<ControllerInterface*>(u.controller.get()));
    }
  };

  constexpr int kEvents = 400;
  for (int e = 0; e < kEvents; ++e) {
    const double reg_w = apps.size() < 12 ? 0.50 : 0.04;
    const size_t op = apps.empty() ? 0 : rng.WeightedIndex({reg_w, 0.50, 0.36, 0.04});
    switch (op) {
      case 0: {  // Register an application.
        const AppId app = next_app++;
        const std::string& workload = rng.Choice(workloads);
        for_all([&](ControllerInterface* c) { c->AppRegister(app, workload); });
        apps.push_back(app);
        break;
      }
      case 1: {  // Create a connection.
        if (conns.size() > 300) {
          continue;
        }
        Conn conn;
        conn.app = rng.Choice(apps);
        conn.src = rng.Choice(hosts);
        conn.dst = rng.Choice(hosts);
        while (conn.dst == conn.src) {
          conn.dst = rng.Choice(hosts);
        }
        conn.salt = rng.Next();
        for_all([&](ControllerInterface* c) {
          c->ConnCreate(conn.app, conn.src, conn.dst, conn.salt);
        });
        conns.push_back(conn);
        break;
      }
      case 2: {  // Destroy a connection.
        if (conns.empty()) {
          continue;
        }
        const size_t pick =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(conns.size()) - 1));
        const Conn conn = conns[pick];
        conns[pick] = conns.back();
        conns.pop_back();
        for_all([&](ControllerInterface* c) {
          c->ConnDestroy(conn.app, conn.src, conn.dst, conn.salt);
        });
        break;
      }
      default: {  // Tear down an application (drains its connections first).
        const size_t pick =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(apps.size()) - 1));
        const AppId app = apps[pick];
        apps[pick] = apps.back();
        apps.pop_back();
        for (size_t i = conns.size(); i-- > 0;) {
          if (conns[i].app != app) {
            continue;
          }
          const Conn conn = conns[i];
          conns[i] = conns.back();
          conns.pop_back();
          for_all([&](ControllerInterface* c) {
            c->ConnDestroy(conn.app, conn.src, conn.dst, conn.salt);
          });
        }
        for_all([&](ControllerInterface* c) { c->AppDeregister(app); });
        break;
      }
    }
    // Every 50th event: a full recompute (the re-clustering / scale-bench
    // shape) — enough dirty ports that shard_jobs > 1 universes dispatch.
    if (e % 50 == 49) {
      oracle.RecomputeAllPortsTimed();
      for (ShardUniverse& u : universes) {
        u.controller->RecomputeAllPortsTimed();
      }
    }
    for (const ShardUniverse& u : universes) {
      ExpectMatchesOracle(oracle, *oracle_net, u, e);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }

  // Flush accounting: invariant across every (num_shards, shard_jobs).
  const DistributedControllerStats& d0 = universes[0].controller->distributed_stats();
  EXPECT_GT(d0.flushes, 0u);
  EXPECT_GT(d0.ports_flushed, 0u);
  for (const ShardUniverse& u : universes) {
    const DistributedControllerStats& d = u.controller->distributed_stats();
    EXPECT_EQ(d.flushes, d0.flushes) << "shards " << u.num_shards << " jobs " << u.shard_jobs;
    EXPECT_EQ(d.ports_flushed, d0.ports_flushed)
        << "shards " << u.num_shards << " jobs " << u.shard_jobs;
    if (u.shard_jobs == 1) {
      EXPECT_EQ(d.parallel_flushes, 0u) << "serial flushes must never dispatch";
    }
  }
  // The pooled universes really did fan out...
  EXPECT_GT(universes[1].controller->distributed_stats().parallel_flushes, 0u);
  EXPECT_GT(universes[3].controller->distributed_stats().parallel_flushes, 0u);
  // ...and dispatch is pure scheduling: at equal shard counts the per-shard
  // caches see identical traffic whether or not a pool was involved.
  EXPECT_EQ(universes[2].controller->stats().eq2_cache_hits,
            universes[3].controller->stats().eq2_cache_hits);
  EXPECT_EQ(universes[2].controller->stats().eq2_cache_misses,
            universes[3].controller->stats().eq2_cache_misses);
}

}  // namespace
}  // namespace saba
