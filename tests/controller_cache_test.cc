#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/core/solve_cache.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/net/units.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

// The solve cache is an exactness-preserving memo (DESIGN.md §7.2): a
// cache-enabled controller and a cache-disabled one fed the same event
// stream must produce bit-identical weights, SL-to-queue tables, and queue
// weights at every port, at every step. This churn test is the §7.1-style
// oracle check for the control plane.

class CacheProbeController : public CentralizedController {
 public:
  using CentralizedController::CentralizedController;

  // Mirrors the controller's member type; only compared with operator==,
  // which is iteration-order-insensitive for unordered containers.
  // saba-lint: unordered-iter-ok(order-insensitive operator== comparison only)
  const std::unordered_map<LinkId, std::vector<std::pair<AppId, double>>>& port_weights() const {
    return port_weights_;
  }
  const QueueMapper* queue_mapper() const {
    return solve_ctx_.mapper.has_value() ? &*solve_ctx_.mapper : nullptr;
  }
};

Network MakeNetwork() {
  return Network(BuildSpineLeaf({.num_spine = 2,
                                 .num_leaf = 4,
                                 .num_tor = 4,
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
      {"quad", Polynomial({3.0, -2.5, 0.6})},
      // Non-convex on the feasible box (second derivative negative near
      // w = 1), so ports carrying it take the projected-gradient path and
      // exercise the signature-seeded Rng stream.
      {"bursty", Polynomial({2.0, -1.2, 0.3, -0.25, 0.05})},
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

void ExpectIdenticalState(const CacheProbeController& cached,
                          const CacheProbeController& uncached, const Network& net_cached,
                          const Network& net_uncached, int event) {
  ASSERT_EQ(cached.registered_app_count(), uncached.registered_app_count()) << "event " << event;
  // Solved per-app weights: exact double equality, per port.
  EXPECT_EQ(cached.port_weights(), uncached.port_weights()) << "event " << event;
  // Programmed switch state: SL tables and queue weights at every port.
  const size_t num_links = net_cached.topology().num_links();
  ASSERT_EQ(num_links, net_uncached.topology().num_links());
  for (LinkId link = 0; link < static_cast<LinkId>(num_links); ++link) {
    const PortConfig& a = net_cached.port(link);
    const PortConfig& b = net_uncached.port(link);
    ASSERT_EQ(a.sl_to_queue, b.sl_to_queue) << "link " << link << " event " << event;
    ASSERT_EQ(a.queue_weights, b.queue_weights) << "link " << link << " event " << event;
  }
}

void RunChurn(uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Network net_cached = MakeNetwork();
  Network net_uncached = MakeNetwork();
  const SensitivityTable table = MakeTable();

  ControllerOptions options;  // solve_cache defaults to true.
  CacheProbeController cached(&net_cached, /*flow_sim=*/nullptr, &table, options);
  options.solve_cache = false;
  CacheProbeController uncached(&net_uncached, /*flow_sim=*/nullptr, &table, options);

  const std::vector<NodeId> hosts = net_cached.topology().Hosts();
  const std::vector<std::string> workloads = {"steep", "flat", "quad", "bursty"};

  Rng rng(seed);
  std::vector<AppId> apps;
  std::vector<Conn> conns;
  AppId next_app = 1;

  constexpr int kEvents = 600;
  for (int e = 0; e < kEvents; ++e) {
    // Register-heavy until a working set exists, then connection churn.
    const double reg_w = apps.size() < 12 ? 0.50 : 0.04;
    const size_t op = apps.empty() ? 0 : rng.WeightedIndex({reg_w, 0.50, 0.36, 0.04});
    switch (op) {
      case 0: {  // Register an application.
        const AppId app = next_app++;
        const std::string& workload = rng.Choice(workloads);
        cached.AppRegister(app, workload);
        uncached.AppRegister(app, workload);
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
        cached.ConnCreate(conn.app, conn.src, conn.dst, conn.salt);
        uncached.ConnCreate(conn.app, conn.src, conn.dst, conn.salt);
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
        cached.ConnDestroy(conn.app, conn.src, conn.dst, conn.salt);
        uncached.ConnDestroy(conn.app, conn.src, conn.dst, conn.salt);
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
          cached.ConnDestroy(conn.app, conn.src, conn.dst, conn.salt);
          uncached.ConnDestroy(conn.app, conn.src, conn.dst, conn.salt);
        }
        cached.AppDeregister(app);
        uncached.AppDeregister(app);
        break;
      }
    }
    ExpectIdenticalState(cached, uncached, net_cached, net_uncached, e);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }

  // The run must have actually exercised both memo layers.
  EXPECT_GT(cached.stats().eq2_cache_hits, 0u);
  EXPECT_GT(cached.stats().eq2_cache_misses, 0u);
  EXPECT_EQ(uncached.stats().eq2_cache_hits, 0u);
  ASSERT_NE(cached.queue_mapper(), nullptr);
  EXPECT_GT(cached.queue_mapper()->memo_hits(), 0u);
  EXPECT_EQ(uncached.queue_mapper()->memo_hits(), 0u);
  // Same churn, same solves: the cache only changes how often Eq 2 runs.
  EXPECT_LT(cached.stats().eq2_cache_misses,
            uncached.stats().eq2_cache_hits + uncached.stats().eq2_cache_misses);
}

TEST(ControllerCacheTest, CachedMatchesUncachedBitExactUnderChurn) {
  RunChurn(11);
  RunChurn(29);
}

// The cache's off-mode lives inside the cache: a disabled Eq2SolveCache
// never hits, yet Insert still stores and returns the weights, so the
// controller reads them back through one path in both modes.
TEST(Eq2SolveCacheTest, DisabledCacheMissesAfterInsertYetReturnsStoredWeights) {
  const SensitivityModel steep{Polynomial({5.0, -4.0})};
  const SensitivityModel flat{Polynomial({1.2, -0.2})};
  PortSignature sig;
  BuildPortSignature({&steep, &flat}, &sig);
  Eq2SolveCache cache(/*enabled=*/false);
  EXPECT_EQ(cache.Find(sig), nullptr);
  EXPECT_EQ(cache.Insert(sig, {0.7, 0.3}), (std::vector<double>{0.7, 0.3}));
  EXPECT_EQ(cache.Find(sig), nullptr);
  // Re-solving the same signature overwrites the stored copy.
  EXPECT_EQ(cache.Insert(sig, {0.6, 0.4}), (std::vector<double>{0.6, 0.4}));
  EXPECT_EQ(cache.Find(sig), nullptr);
}

TEST(Eq2SolveCacheTest, EnabledCacheHitsWithTheStoredWeights) {
  const SensitivityModel steep{Polynomial({5.0, -4.0})};
  const SensitivityModel flat{Polynomial({1.2, -0.2})};
  PortSignature sig;
  BuildPortSignature({&steep, &flat}, &sig);
  Eq2SolveCache cache(/*enabled=*/true);
  EXPECT_EQ(cache.Find(sig), nullptr);
  const std::vector<double>& stored = cache.Insert(sig, {0.7, 0.3});
  EXPECT_EQ(stored, (std::vector<double>{0.7, 0.3}));
  const std::vector<double>* hit = cache.Find(sig);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, &stored);
  // The same app mix in another port order shares the signature.
  PortSignature swapped;
  BuildPortSignature({&flat, &steep}, &swapped);
  EXPECT_EQ(cache.Find(swapped), hit);
}

}  // namespace
}  // namespace saba
