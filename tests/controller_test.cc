#include "src/core/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/distributed_controller.h"
#include "src/net/units.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

SensitivityModel Steep() { return SensitivityModel{Polynomial({5.0, -4.0})}; }
SensitivityModel Flat() { return SensitivityModel{Polynomial({1.2, -0.2})}; }

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : network_(BuildSingleSwitchStar(4, Gbps64(56)), /*default_queues=*/8),
        flow_sim_(&scheduler_, &network_, &allocator_) {
    SensitivityEntry steep;
    steep.model = Steep();
    table_.Put("steep", steep);
    SensitivityEntry flat;
    flat.model = Flat();
    table_.Put("flat", flat);
  }

  // Runs pending same-time events (controller flushes are coalesced).
  void Settle() { scheduler_.RunUntil(scheduler_.Now() + 1e-9); }

  EventScheduler scheduler_;
  Network network_;
  WfqMaxMinAllocator allocator_;
  FlowSimulator flow_sim_;
  SensitivityTable table_;
};

TEST_F(ControllerTest, RegistrationAssignsDistinctPlsToDistinctSensitivities) {
  CentralizedController controller(&network_, &flow_sim_, &table_, {});
  const int pl_a = controller.AppRegister(1, "steep");
  const int pl_b = controller.AppRegister(2, "flat");
  EXPECT_NE(controller.CurrentServiceLevel(1), controller.CurrentServiceLevel(2));
  EXPECT_EQ(controller.CurrentServiceLevel(1), pl_a >= 0 ? controller.CurrentServiceLevel(1) : -1);
  (void)pl_a;
  (void)pl_b;
  EXPECT_EQ(controller.registered_app_count(), 2u);
  EXPECT_EQ(controller.stats().registrations, 2u);
  EXPECT_GE(controller.stats().pl_reclusterings, 2u);
}

TEST_F(ControllerTest, UnknownWorkloadGetsInsensitiveDefault) {
  CentralizedController controller(&network_, &flow_sim_, &table_, {});
  controller.AppRegister(1, "mystery");
  EXPECT_GE(controller.CurrentServiceLevel(1), 0);
}

TEST_F(ControllerTest, ConnCreateProgramsPortsAlongPath) {
  CentralizedController controller(&network_, &flow_sim_, &table_, {});
  controller.AppRegister(1, "steep");
  controller.AppRegister(2, "flat");
  controller.ConnCreate(1, 0, 1, 7);
  controller.ConnCreate(2, 2, 1, 7);
  Settle();

  // The shared switch->host1 egress now carries both apps; its weights must
  // favour the steep one.
  const LinkId shared = network_.topology().FindLink(4, 1);  // Switch is node 4.
  ASSERT_NE(shared, kInvalidLink);
  const double w_steep = controller.AppWeightAtPort(shared, 1);
  const double w_flat = controller.AppWeightAtPort(shared, 2);
  EXPECT_GT(w_steep, w_flat);
  EXPECT_NEAR(w_steep + w_flat, 1.0, 1e-6);

  // The port's queue weights reflect the shares (two PLs -> two queues).
  const PortConfig& port = network_.port(shared);
  const int q_steep = port.sl_to_queue[static_cast<size_t>(controller.CurrentServiceLevel(1))];
  const int q_flat = port.sl_to_queue[static_cast<size_t>(controller.CurrentServiceLevel(2))];
  EXPECT_NE(q_steep, q_flat);
  EXPECT_GT(port.queue_weights[static_cast<size_t>(q_steep)],
            port.queue_weights[static_cast<size_t>(q_flat)]);
  EXPECT_GT(controller.stats().port_reconfigurations, 0u);
}

TEST_F(ControllerTest, ConnDestroyReleasesPortState) {
  CentralizedController controller(&network_, &flow_sim_, &table_, {});
  controller.AppRegister(1, "steep");
  controller.ConnCreate(1, 0, 1, 3);
  Settle();
  const LinkId first_hop = network_.topology().FindLink(0, 4);
  EXPECT_GT(controller.AppWeightAtPort(first_hop, 1), 0);
  controller.ConnDestroy(1, 0, 1, 3);
  Settle();
  EXPECT_DOUBLE_EQ(controller.AppWeightAtPort(first_hop, 1), 0);
  controller.AppDeregister(1);
  EXPECT_EQ(controller.registered_app_count(), 0u);
}

TEST_F(ControllerTest, SoleAppOnPortGetsFullCapacity) {
  CentralizedController controller(&network_, &flow_sim_, &table_, {});
  controller.AppRegister(1, "flat");
  controller.ConnCreate(1, 0, 1, 0);
  Settle();
  const LinkId first_hop = network_.topology().FindLink(0, 4);
  EXPECT_NEAR(controller.AppWeightAtPort(first_hop, 1), 1.0, 1e-9);
}

TEST_F(ControllerTest, MorePlsThanQueuesStillProgramsValidConfig) {
  ControllerOptions options;
  options.num_pls = 8;
  // Give every port only 2 queues.
  network_.SetQueueCountEverywhere(2);
  CentralizedController controller(&network_, &flow_sim_, &table_, options);
  // Register 6 apps with spread-out sensitivities; all send into host 0.
  for (AppId app = 1; app <= 6; ++app) {
    controller.AppRegister(app, app % 2 == 0 ? "steep" : "flat");
  }
  for (AppId app = 1; app <= 6; ++app) {
    controller.ConnCreate(app, static_cast<NodeId>(app % 3 + 1), 0, static_cast<uint64_t>(app));
  }
  Settle();
  const LinkId ingress = network_.topology().FindLink(4, 0);
  const PortConfig& port = network_.port(ingress);
  for (int sl = 0; sl < kNumServiceLevels; ++sl) {
    EXPECT_GE(port.sl_to_queue[static_cast<size_t>(sl)], 0);
    EXPECT_LT(port.sl_to_queue[static_cast<size_t>(sl)], 2);
  }
  // Total configured weight on active queues ~ C_saba.
  const double total = std::accumulate(port.queue_weights.begin(), port.queue_weights.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 0.01);
}

TEST_F(ControllerTest, ReclusteringRetagsLiveFlows) {
  CentralizedController controller(&network_, &flow_sim_, &table_, {});
  controller.AppRegister(1, "steep");
  flow_sim_.StartFlow(1, 0, 1, Gbps(56) * 100, controller.CurrentServiceLevel(1), 0, nullptr);
  Settle();
  // A second registration re-clusters; flow SLs must track the new PLs.
  controller.AppRegister(2, "flat");
  Settle();
  flow_sim_.ForEachActiveFlow([&](const ActiveFlow& flow) {
    EXPECT_EQ(flow.sl, controller.CurrentServiceLevel(flow.app));
  });
}

TEST_F(ControllerTest, RecomputeAllPortsTimedReturnsWallTime) {
  CentralizedController controller(&network_, &flow_sim_, &table_, {});
  controller.AppRegister(1, "steep");
  controller.AppRegister(2, "flat");
  for (NodeId src = 0; src < 3; ++src) {
    controller.ConnCreate(1, src, 3, static_cast<uint64_t>(src));
    controller.ConnCreate(2, src, 3, static_cast<uint64_t>(src) + 10);
  }
  Settle();
  const double elapsed = controller.RecomputeAllPortsTimed();
  EXPECT_GE(elapsed, 0.0);
  EXPECT_LT(elapsed, 1.0);
  EXPECT_GT(controller.stats().total_calc_wall_seconds, 0.0);
}

TEST_F(ControllerTest, ReservedQueuesCoexistWithSabaTraffic) {
  // §3: the operator reserves queues for non-Saba traffic; Saba manages the
  // rest and routes unknown SLs to the reserved queue.
  ControllerOptions options;
  options.num_pls = 4;
  options.reserved_queues = 2;
  options.reserved_queue_weight = 0.2;
  options.c_saba = 0.6;  // Operator leaves 40% of capacity for others.
  CentralizedController controller(&network_, &flow_sim_, &table_, options);
  controller.AppRegister(1, "steep");
  controller.AppRegister(2, "flat");
  controller.ConnCreate(1, 0, 1, 0);
  controller.ConnCreate(2, 2, 1, 0);
  Settle();

  const LinkId shared = network_.topology().FindLink(4, 1);
  const PortConfig& port = network_.port(shared);
  // Saba traffic lives in queues [0, 6); reserved queues are 6 and 7.
  for (int sl = 0; sl < kNumServiceLevels; ++sl) {
    const int queue = port.sl_to_queue[static_cast<size_t>(sl)];
    if (sl == controller.CurrentServiceLevel(1) || sl == controller.CurrentServiceLevel(2)) {
      EXPECT_LT(queue, 6);
    } else {
      EXPECT_EQ(queue, 6) << "non-Saba SLs must route to the first reserved queue";
    }
  }
  EXPECT_DOUBLE_EQ(port.queue_weights[6], 0.2);
  EXPECT_DOUBLE_EQ(port.queue_weights[7], 0.2);
  // The Saba queues' weights sum to C_saba (plus epsilon padding on unused).
  double saba_weight = 0;
  for (int q = 0; q < 6; ++q) {
    saba_weight += port.queue_weights[static_cast<size_t>(q)];
  }
  EXPECT_NEAR(saba_weight, 0.6, 0.01);
}

TEST_F(ControllerTest, NonSabaTrafficKeepsItsReservedShare) {
  // A latency-critical service outside Saba's control keeps its reserved
  // share even when a Saba app floods the same port.
  ControllerOptions options;
  options.num_pls = 4;
  options.reserved_queues = 1;
  options.reserved_queue_weight = 0.25;
  options.c_saba = 0.75;
  CentralizedController controller(&network_, &flow_sim_, &table_, options);
  controller.AppRegister(1, "steep");
  controller.ConnCreate(1, 0, 1, 0);
  Settle();

  // Saba app floods host1; the non-Saba service uses SL 15 (reserved).
  flow_sim_.StartFlow(1, 0, 1, Gbps(56) * 1000, controller.CurrentServiceLevel(1), 0, nullptr);
  const FlowId rpc = flow_sim_.StartFlow(99, 2, 1, Gbps(56) * 1000, 15, 0, nullptr);
  scheduler_.RunUntil(scheduler_.Now() + 0.01);
  // Reserved weight 0.25 vs Saba queue 0.75 -> the service gets ~25% of the
  // 56 Gb/s ingress.
  EXPECT_NEAR(flow_sim_.FlowRate(rpc), Gbps(56) * 0.25, Gbps(1.5));
}

TEST_F(ControllerTest, OfflineModeWorksWithoutFlowSimulator) {
  CentralizedController controller(&network_, /*flow_sim=*/nullptr, &table_, {});
  controller.AppRegister(1, "steep");
  controller.ConnCreate(1, 0, 1, 0);  // Synchronous flush.
  const LinkId first_hop = network_.topology().FindLink(0, 4);
  EXPECT_GT(controller.AppWeightAtPort(first_hop, 1), 0);
}

// --- Connection bookkeeping under churn --------------------------------------
//
// A seeded stream of RPCs on a small spine-leaf, checked after every call
// against a reference built from the create-time routes: an application has
// a solved weight at a port exactly while one of its live connections was
// charged there. The stream repeats (app, src, dst, salt) tuples, uses
// sparse AppIds, fails and restores links and switches while connections are
// live (so a destroy can meet a route that moved since its create), and
// deregisters and re-registers ids. With no flow simulator every RPC flushes
// at once.

using ConnTuple = std::tuple<AppId, NodeId, NodeId, uint64_t>;

struct ChurnCoverage {
  int duplicate_creates = 0;
  int rerouted_destroys = 0;
  int reregistrations = 0;
};

class BookkeepingChurnTest : public ::testing::Test {
 protected:
  BookkeepingChurnTest()
      : network_(BuildSpineLeaf({.num_spine = 4,
                                 .num_leaf = 4,
                                 .num_tor = 8,
                                 .hosts_per_tor = 3,
                                 .num_pods = 2}),
                 /*default_queues=*/4) {
    const std::vector<std::pair<std::string, Polynomial>> entries = {
        {"steep", Polynomial({5.0, -4.0})},
        {"flat", Polynomial({1.2, -0.2})},
        {"quad", Polynomial({2.9, -2.5, 0.6})},
    };
    for (const auto& [name, poly] : entries) {
      SensitivityEntry entry;
      entry.model = SensitivityModel{poly};
      table_.Put(name, entry);
    }
  }

  // Runs the stream against `controller`; returns the first disagreement with
  // the reference, or "" when there is none.
  std::string RunChurn(CentralizedController* controller, uint64_t seed, ChurnCoverage* coverage);

  Network network_;
  SensitivityTable table_;
};

std::string BookkeepingChurnTest::RunChurn(CentralizedController* controller, uint64_t seed,
                                           ChurnCoverage* coverage) {
  Topology& topo = network_.topology();
  Rng rng(seed);
  const std::vector<AppId> ids = {5, 1 << 20, 9, 1 << 30};
  const std::vector<std::string> workloads = {"steep", "flat", "quad"};
  const std::vector<NodeId> hosts = topo.Hosts();
  // Failure targets: every switch-to-switch link and every leaf and spine.
  std::vector<LinkId> fabric_links;
  for (LinkId l = 0; l < static_cast<LinkId>(topo.num_links()); ++l) {
    const Link& link = topo.link(l);
    if (IsSwitch(topo.node(link.src).kind) && IsSwitch(topo.node(link.dst).kind)) {
      fabric_links.push_back(l);
    }
  }
  std::vector<NodeId> fabric_switches;
  for (NodeId n = 0; n < static_cast<NodeId>(topo.num_nodes()); ++n) {
    const NodeKind kind = topo.node(n).kind;
    if (kind == NodeKind::kLeafSwitch || kind == NodeKind::kSpineSwitch) {
      fabric_switches.push_back(n);
    }
  }

  std::map<LinkId, std::map<AppId, int>> ref;
  std::map<ConnTuple, std::vector<std::vector<LinkId>>> snapshots;
  std::vector<ConnTuple> live;  // One entry per live connection.
  std::vector<LinkId> down_links;
  std::vector<NodeId> down_switches;

  const auto mismatch = [&](const std::string& call) -> std::string {
    for (LinkId l = 0; l < static_cast<LinkId>(topo.num_links()); ++l) {
      const auto port = ref.find(l);
      for (AppId app : ids) {
        const bool charged = port != ref.end() && port->second.count(app) > 0;
        if ((controller->AppWeightAtPort(l, app) > 0) != charged) {
          return "after " + call + ": app " + std::to_string(app) + " at link " +
                 std::to_string(l) + (charged ? " has no weight" : " still has a weight");
        }
      }
    }
    return "";
  };
  const auto create = [&](const ConnTuple& conn) {
    const auto& [app, src, dst, salt] = conn;
    const std::vector<LinkId> path = network_.router().Route(src, dst, salt);
    controller->ConnCreate(app, src, dst, salt);
    for (LinkId l : path) {
      ++ref[l][app];
    }
    snapshots[conn].push_back(path);
    live.push_back(conn);
    return mismatch("create");
  };
  const auto destroy = [&](size_t index) {
    const ConnTuple conn = live[index];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    const auto& [app, src, dst, salt] = conn;
    std::vector<std::vector<LinkId>>& stack = snapshots[conn];
    const std::vector<LinkId> path = stack.back();
    stack.pop_back();
    if (network_.router().Route(src, dst, salt) != path) {
      ++coverage->rerouted_destroys;
    }
    controller->ConnDestroy(app, src, dst, salt);
    for (LinkId l : path) {
      if (--ref[l][app] == 0) {
        ref[l].erase(app);
      }
    }
    return mismatch("destroy");
  };

  for (size_t i = 0; i < ids.size(); ++i) {
    controller->AppRegister(ids[i], workloads[i % workloads.size()]);
  }
  std::string error;
  for (int step = 0; step < 500 && error.empty(); ++step) {
    const int64_t op = rng.UniformInt(0, 99);
    if (op < 45 || live.empty()) {
      ConnTuple conn;
      if (!live.empty() && rng.Bernoulli(0.25)) {
        conn = rng.Choice(live);
        ++coverage->duplicate_creates;
      } else {
        const NodeId src = rng.Choice(hosts);
        NodeId dst = src;
        while (dst == src) {
          dst = rng.Choice(hosts);
        }
        conn = ConnTuple(rng.Choice(ids), src, dst, static_cast<uint64_t>(rng.UniformInt(0, 3)));
      }
      error = create(conn);
    } else if (op < 80) {
      const int64_t last = static_cast<int64_t>(live.size()) - 1;
      error = destroy(static_cast<size_t>(rng.UniformInt(0, last)));
    } else if (op < 95) {
      // Restore something when two targets are down, or half the time.
      const size_t num_down = down_links.size() + down_switches.size();
      if (num_down >= 2 || (num_down > 0 && rng.Bernoulli(0.5))) {
        if (!down_links.empty()) {
          topo.SetLinkUp(down_links.back(), true);
          down_links.pop_back();
        } else {
          topo.SetNodeUp(down_switches.back(), true);
          down_switches.pop_back();
        }
      } else if (rng.Bernoulli(0.7)) {
        down_links.push_back(rng.Choice(fabric_links));
        topo.SetLinkUp(down_links.back(), false);
      } else {
        down_switches.push_back(rng.Choice(fabric_switches));
        topo.SetNodeUp(down_switches.back(), false);
      }
      error = mismatch("a failure flip");
    } else {
      // Close every connection of one id, then deregister and re-register it.
      const AppId app = rng.Choice(ids);
      for (size_t i = live.size(); i-- > 0 && error.empty();) {
        if (std::get<0>(live[i]) == app) {
          error = destroy(i);
        }
      }
      if (error.empty()) {
        controller->AppDeregister(app);
        controller->AppRegister(app, rng.Choice(workloads));
        ++coverage->reregistrations;
        error = mismatch("re-registration");
      }
    }
  }
  while (error.empty() && !live.empty()) {
    error = destroy(live.size() - 1);
  }
  return error;
}

TEST_F(BookkeepingChurnTest, CentralizedMatchesCreateTimeRoutes) {
  CentralizedController controller(&network_, /*flow_sim=*/nullptr, &table_, {});
  ChurnCoverage coverage;
  EXPECT_EQ(RunChurn(&controller, 29, &coverage), "");
  EXPECT_GT(coverage.duplicate_creates, 0);
  EXPECT_GT(coverage.rerouted_destroys, 0);
  EXPECT_GT(coverage.reregistrations, 0);
}

TEST_F(BookkeepingChurnTest, DistributedMatchesCreateTimeRoutes) {
  DistributedControllerOptions options;
  options.num_shards = 3;
  DistributedController controller(&network_, /*flow_sim=*/nullptr, &table_,
                                   MappingDatabase::Build(table_, options.base.num_pls, 11),
                                   options);
  ChurnCoverage coverage;
  EXPECT_EQ(RunChurn(&controller, 31, &coverage), "");
  EXPECT_GT(coverage.duplicate_creates, 0);
  EXPECT_GT(coverage.rerouted_destroys, 0);
  EXPECT_GT(coverage.reregistrations, 0);
}

}  // namespace
}  // namespace saba
