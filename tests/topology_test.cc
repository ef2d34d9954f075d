#include "src/net/topology.h"

#include <gtest/gtest.h>

#include "src/net/routing.h"
#include "src/net/units.h"

namespace saba {
namespace {

TEST(TopologyTest, AddNodesAndLinks) {
  Topology topo;
  const NodeId a = topo.AddNode(NodeKind::kHost);
  const NodeId b = topo.AddNode(NodeKind::kSwitch);
  const LinkId l = topo.AddLink(a, b, Gbps64(10));
  EXPECT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.num_links(), 1u);
  EXPECT_EQ(topo.link(l).src, a);
  EXPECT_EQ(topo.link(l).dst, b);
  EXPECT_DOUBLE_EQ(topo.link(l).capacity_bps, Gbps(10));
  EXPECT_EQ(topo.node(a).kind, NodeKind::kHost);
  EXPECT_EQ(topo.node(b).kind, NodeKind::kSwitch);
}

TEST(TopologyTest, DuplexLinkAddsBothDirections) {
  Topology topo;
  const NodeId a = topo.AddNode(NodeKind::kHost);
  const NodeId b = topo.AddNode(NodeKind::kSwitch);
  const LinkId forward = topo.AddDuplexLink(a, b, Gbps64(5));
  EXPECT_EQ(topo.num_links(), 2u);
  EXPECT_EQ(topo.FindLink(a, b), forward);
  EXPECT_EQ(topo.FindLink(b, a), forward + 1);
  EXPECT_EQ(topo.FindLink(a, a), kInvalidLink);
}

TEST(TopologyTest, SetLinkCapacity) {
  Topology topo;
  const NodeId a = topo.AddNode(NodeKind::kHost);
  const NodeId b = topo.AddNode(NodeKind::kSwitch);
  const LinkId l = topo.AddLink(a, b, Gbps64(10));
  topo.SetLinkCapacity(l, Gbps64(2.5));
  EXPECT_DOUBLE_EQ(topo.link(l).capacity_bps, Gbps(2.5));
}

TEST(TopologyTest, OutLinksInOrder) {
  Topology topo;
  const NodeId a = topo.AddNode(NodeKind::kSwitch);
  const NodeId b = topo.AddNode(NodeKind::kHost);
  const NodeId c = topo.AddNode(NodeKind::kHost);
  const LinkId l1 = topo.AddLink(a, b, Gbps64(1));
  const LinkId l2 = topo.AddLink(a, c, Gbps64(1));
  EXPECT_EQ(topo.OutLinks(a), (std::vector<LinkId>{l1, l2}));
  EXPECT_TRUE(topo.OutLinks(b).empty());
}

TEST(SingleSwitchStarTest, ShapeAndCapacities) {
  const Topology topo = BuildSingleSwitchStar(8, Gbps64(56));
  EXPECT_EQ(topo.num_nodes(), 9u);
  EXPECT_EQ(topo.Hosts().size(), 8u);
  EXPECT_EQ(topo.Switches().size(), 1u);
  EXPECT_EQ(topo.num_links(), 16u);  // 8 duplex host links.
  for (size_t l = 0; l < topo.num_links(); ++l) {
    EXPECT_DOUBLE_EQ(topo.link(static_cast<LinkId>(l)).capacity_bps, Gbps(56));
  }
  // Every host connects exactly to the switch.
  const NodeId sw = topo.Switches()[0];
  for (NodeId h : topo.Hosts()) {
    EXPECT_NE(topo.FindLink(h, sw), kInvalidLink);
    EXPECT_NE(topo.FindLink(sw, h), kInvalidLink);
  }
}

TEST(SpineLeafTest, PaperScaleShape) {
  // §8.1: 54 spine, 102 leaf, 108 ToR, 18 servers per ToR = 1,944 servers.
  const Topology topo = BuildSpineLeaf(SpineLeafParams{});
  EXPECT_EQ(topo.Hosts().size(), 1944u);
  size_t tors = 0;
  size_t leaves = 0;
  size_t spines = 0;
  for (size_t n = 0; n < topo.num_nodes(); ++n) {
    switch (topo.node(static_cast<NodeId>(n)).kind) {
      case NodeKind::kTorSwitch:
        ++tors;
        break;
      case NodeKind::kLeafSwitch:
        ++leaves;
        break;
      case NodeKind::kSpineSwitch:
        ++spines;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(tors, 108u);
  EXPECT_EQ(leaves, 102u);
  EXPECT_EQ(spines, 54u);
  // Link count: hosts (1944) + ToR-to-pod-leaves (108*17) + leaf-spine
  // (102*54), all duplex.
  EXPECT_EQ(topo.num_links(), 2u * (1944u + 108u * 17u + 102u * 54u));
}

TEST(SpineLeafTest, SmallConfigConnectivity) {
  SpineLeafParams params;
  params.num_spine = 2;
  params.num_leaf = 4;
  params.num_tor = 4;
  params.hosts_per_tor = 3;
  params.num_pods = 2;
  const Topology topo = BuildSpineLeaf(params);
  EXPECT_EQ(topo.Hosts().size(), 12u);
  // Every leaf connects to every spine.
  std::vector<NodeId> leaves;
  std::vector<NodeId> spines;
  for (size_t n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(static_cast<NodeId>(n)).kind == NodeKind::kLeafSwitch) {
      leaves.push_back(static_cast<NodeId>(n));
    }
    if (topo.node(static_cast<NodeId>(n)).kind == NodeKind::kSpineSwitch) {
      spines.push_back(static_cast<NodeId>(n));
    }
  }
  for (NodeId leaf : leaves) {
    for (NodeId spine : spines) {
      EXPECT_NE(topo.FindLink(leaf, spine), kInvalidLink);
    }
  }
}

TEST(TopologyTest, UpFlagsAndEpochSemantics) {
  Topology topo = BuildSingleSwitchStar(4, Gbps64(10));
  EXPECT_EQ(topo.epoch(), 0u);
  const LinkId l0 = topo.OutLinks(0).front();
  EXPECT_TRUE(topo.LinkUsable(l0));

  topo.SetLinkUp(l0, false);
  EXPECT_EQ(topo.epoch(), 1u);
  EXPECT_FALSE(topo.LinkUsable(l0));
  EXPECT_FALSE(topo.link(l0).up);
  // Capacity is preserved while down, and setting the current state is a
  // no-op (no epoch bump).
  const Bps64 cap = topo.link(l0).capacity_bps;
  topo.SetLinkUp(l0, false);
  EXPECT_EQ(topo.epoch(), 1u);
  topo.SetLinkUp(l0, true);
  EXPECT_EQ(topo.epoch(), 2u);
  EXPECT_EQ(topo.link(l0).capacity_bps, cap);
  EXPECT_TRUE(topo.LinkUsable(l0));

  // A down node takes every incident link out of service.
  const NodeId hub = 4;
  topo.SetNodeUp(hub, false);
  EXPECT_EQ(topo.epoch(), 3u);
  for (size_t l = 0; l < topo.num_links(); ++l) {
    EXPECT_FALSE(topo.LinkUsable(static_cast<LinkId>(l)));
  }
  topo.SetNodeUp(hub, true);
  EXPECT_EQ(topo.epoch(), 4u);
  EXPECT_TRUE(topo.LinkUsable(l0));

  // Capacity changes never bump the epoch (routing is hop-count based).
  topo.SetLinkCapacity(l0, Gbps64(1));
  EXPECT_EQ(topo.epoch(), 4u);
}

TEST(FatTreeTest, ShapeInvariants) {
  for (int k : {4, 6, 8}) {
    FatTreeParams params;
    params.k = k;
    const Topology topo = BuildFatTree(params);
    const size_t hosts = static_cast<size_t>(k * k * k / 4);
    const size_t per_tier = static_cast<size_t>(k * k / 2);
    const size_t cores = static_cast<size_t>(k * k / 4);
    EXPECT_EQ(topo.Hosts().size(), hosts) << "k=" << k;
    EXPECT_EQ(topo.num_nodes(), hosts + 2 * per_tier + cores) << "k=" << k;
    // Duplex links: one per host, (k/2)^2 per pod edge-agg, plus k/2 uplinks
    // per agg — k^3/4 each tier, 3k^3/2 directed links total.
    EXPECT_EQ(topo.num_links(), 3 * hosts * 2) << "k=" << k;

    size_t edge = 0;
    size_t agg = 0;
    size_t core = 0;
    for (size_t n = 0; n < topo.num_nodes(); ++n) {
      switch (topo.node(static_cast<NodeId>(n)).kind) {
        case NodeKind::kTorSwitch:
          ++edge;
          break;
        case NodeKind::kLeafSwitch:
          ++agg;
          break;
        case NodeKind::kSpineSwitch:
          ++core;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(edge, per_tier) << "k=" << k;
    EXPECT_EQ(agg, per_tier) << "k=" << k;
    EXPECT_EQ(core, cores) << "k=" << k;

    // Degree checks: hosts 1 up-link, edges k (k/2 hosts + k/2 aggs), aggs k
    // (k/2 edges + k/2 cores), cores k (one agg per pod).
    for (size_t n = 0; n < topo.num_nodes(); ++n) {
      const NodeId id = static_cast<NodeId>(n);
      const size_t degree = topo.OutLinks(id).size();
      if (topo.node(id).kind == NodeKind::kHost) {
        EXPECT_EQ(degree, 1u) << "k=" << k << " node " << n;
      } else {
        EXPECT_EQ(degree, static_cast<size_t>(k)) << "k=" << k << " node " << n;
      }
    }
  }
}

TEST(FatTreeTest, AllHostPairsReachable) {
  for (int k : {4, 6, 8}) {
    const Topology topo = BuildFatTree(FatTreeParams{.k = k});
    Router router(&topo);
    const std::vector<NodeId> hosts = topo.Hosts();
    for (NodeId s : hosts) {
      for (NodeId d : hosts) {
        EXPECT_TRUE(router.Reachable(s, d)) << "k=" << k << " " << s << "->" << d;
      }
    }
  }
}

TEST(FatTreeTest, OversubscribedCoreCapacity) {
  FatTreeParams params{.k = 4, .agg_core_bps = Gbps64(28)};
  const Topology topo = BuildFatTree(params);
  for (size_t l = 0; l < topo.num_links(); ++l) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    const bool core_link = topo.node(link.src).kind == NodeKind::kSpineSwitch ||
                           topo.node(link.dst).kind == NodeKind::kSpineSwitch;
    EXPECT_EQ(link.capacity_bps, core_link ? Gbps64(28) : Gbps64(56));
  }
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(Gbps(56), 56e9);
  EXPECT_DOUBLE_EQ(Mbps(1), 1e6);
  EXPECT_DOUBLE_EQ(Bytes(1), 8.0);
  EXPECT_DOUBLE_EQ(Kilobytes(10), 80e3);
  EXPECT_DOUBLE_EQ(Gigabytes(1), 8e9);
}

TEST(NodeKindTest, IsSwitch) {
  EXPECT_FALSE(IsSwitch(NodeKind::kHost));
  EXPECT_TRUE(IsSwitch(NodeKind::kSwitch));
  EXPECT_TRUE(IsSwitch(NodeKind::kTorSwitch));
  EXPECT_TRUE(IsSwitch(NodeKind::kLeafSwitch));
  EXPECT_TRUE(IsSwitch(NodeKind::kSpineSwitch));
}

}  // namespace
}  // namespace saba
