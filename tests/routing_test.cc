#include "src/net/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/net/units.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

// Validates that `path` is a contiguous walk from src to dst.
void ExpectValidPath(const Topology& topo, const std::vector<LinkId>& path, NodeId src,
                     NodeId dst) {
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(topo.link(path.front()).src, src);
  EXPECT_EQ(topo.link(path.back()).dst, dst);
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(topo.link(path[i - 1]).dst, topo.link(path[i]).src);
  }
}

TEST(RouterTest, StarPathsAreTwoHops) {
  const Topology topo = BuildSingleSwitchStar(4, Gbps64(10));
  Router router(&topo);
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s == d) {
        continue;
      }
      const auto& path = router.Route(s, d, 0);
      EXPECT_EQ(path.size(), 2u);
      ExpectValidPath(topo, path, s, d);
    }
  }
}

TEST(RouterTest, SelfRouteIsEmpty) {
  const Topology topo = BuildSingleSwitchStar(4, Gbps64(10));
  Router router(&topo);
  EXPECT_TRUE(router.Route(2, 2, 0).empty());
}

TEST(RouterTest, SameSaltSamePath) {
  const Topology topo = BuildSpineLeaf(
      {.num_spine = 4, .num_leaf = 4, .num_tor = 4, .hosts_per_tor = 2, .num_pods = 2});
  Router router(&topo);
  const auto& a = router.Route(0, 7, 42);
  const auto& b = router.Route(0, 7, 42);
  EXPECT_EQ(a, b);
}

TEST(RouterTest, DifferentSaltsSpreadAcrossEcmp) {
  const Topology topo = BuildSpineLeaf(
      {.num_spine = 8, .num_leaf = 8, .num_tor = 4, .hosts_per_tor = 2, .num_pods = 2});
  Router router(&topo);
  // Hosts 0 and 7 are in different pods; many spine choices exist.
  std::set<std::vector<LinkId>> distinct;
  for (uint64_t salt = 0; salt < 32; ++salt) {
    distinct.insert(router.Route(0, 7, salt));
  }
  EXPECT_GT(distinct.size(), 2u) << "ECMP salting must spread paths";
}

TEST(RouterTest, SpineLeafPathsAreValidAndShortest) {
  SpineLeafParams params{
      .num_spine = 4, .num_leaf = 4, .num_tor = 4, .hosts_per_tor = 3, .num_pods = 2};
  const Topology topo = BuildSpineLeaf(params);
  Router router(&topo);
  const auto hosts = topo.Hosts();
  for (NodeId s : hosts) {
    for (NodeId d : hosts) {
      if (s == d) {
        continue;
      }
      const auto& path = router.Route(s, d, 1);
      ExpectValidPath(topo, path, s, d);
      const int same_tor = (s / params.hosts_per_tor) == (d / params.hosts_per_tor);
      const int same_pod = (s / (params.hosts_per_tor * 2)) == (d / (params.hosts_per_tor * 2));
      if (same_tor) {
        EXPECT_EQ(path.size(), 2u);  // host -> ToR -> host.
      } else if (same_pod) {
        EXPECT_EQ(path.size(), 4u);  // host -> ToR -> leaf -> ToR -> host.
      } else {
        EXPECT_EQ(path.size(), 6u);  // ... -> leaf -> spine -> leaf -> ...
      }
    }
  }
}

TEST(RouterTest, PathCacheGrowsOncePerKey) {
  const Topology topo = BuildSingleSwitchStar(4, Gbps64(10));
  Router router(&topo);
  router.Route(0, 1, 5);
  const size_t after_first = router.cached_paths();
  router.Route(0, 1, 5);
  EXPECT_EQ(router.cached_paths(), after_first);
  router.Route(0, 1, 6);
  EXPECT_EQ(router.cached_paths(), after_first + 1);
}

TEST(RouterTest, CachedPathReferenceStable) {
  const Topology topo = BuildSingleSwitchStar(8, Gbps64(10));
  Router router(&topo);
  const std::vector<LinkId>* first = &router.Route(0, 1, 0);
  // Force many insertions (potential rehash).
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId d = 0; d < 8; ++d) {
      if (s != d) {
        for (uint64_t salt = 0; salt < 8; ++salt) {
          router.Route(s, d, salt);
        }
      }
    }
  }
  EXPECT_EQ(first, &router.Route(0, 1, 0)) << "cache entries must be reference-stable";
}

// --- Path-cache aliasing regression ------------------------------------------
//
// The cache used to be keyed by the 64-bit PathDigest alone, so two triples
// whose digests collide silently shared one cached path — a wrong-routing bug.
// The digest is an invertible function (the splitmix64 finalizer is a
// bijection and the salt multiplier is odd), so an exact colliding triple can
// be constructed: given triple T1 and a target (src2, dst2), solve for the
// salt2 that makes PathDigest(src2, dst2, salt2) == PathDigest(T1).

uint64_t TestMix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t UnshiftXor(uint64_t value, int shift) {
  // Inverts z ^= z >> shift (shift >= 1): recover the high bits first, then
  // peel downward. Iterating the forward op converges for shift >= 64/2 in
  // one step and in general within 64/shift rounds.
  uint64_t result = value;
  for (int done = shift; done < 64; done += shift) {
    result = value ^ (result >> shift);
  }
  return result;
}

uint64_t TestInvMix64(uint64_t z) {
  // Inverse splitmix64 finalizer (inverse multipliers of the two constants).
  z = UnshiftXor(z, 31);
  z *= 0x319642b2d24d8ec3ULL;
  z = UnshiftXor(z, 27);
  z *= 0x96de1b173f119089ULL;
  z = UnshiftXor(z, 30);
  return z;
}

// Multiplicative inverse of an odd constant mod 2^64 (Newton iteration).
uint64_t OddInverse(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 5; ++i) {
    x *= 2 - a * x;
  }
  return x;
}

// Solves PathDigest(src, dst, salt) == digest for salt.
uint64_t CollidingSalt(NodeId src, NodeId dst, uint64_t digest) {
  const uint64_t pair_mix = TestMix64((static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
                                      static_cast<uint64_t>(static_cast<uint32_t>(dst)));
  const uint64_t salt_mix = digest ^ pair_mix;  // == Mix64(salt * C + 1)
  return (TestInvMix64(salt_mix) - 1) * OddInverse(0x9e3779b97f4a7c15ULL);
}

TEST(RouterTest, PathCacheCollisionCannotAliasRoutes) {
  const Topology topo = BuildSingleSwitchStar(8, Gbps64(10));
  Router router(&topo);

  const NodeId src1 = 0;
  const NodeId dst1 = 1;
  const uint64_t salt1 = 7;
  const NodeId src2 = 2;
  const NodeId dst2 = 3;
  const uint64_t salt2 = CollidingSalt(src2, dst2, PathDigest(src1, dst1, salt1));
  // The construction really collides — this is the pre-fix aliasing trigger.
  ASSERT_EQ(PathDigest(src1, dst1, salt1), PathDigest(src2, dst2, salt2));

  const std::vector<LinkId> first = router.Route(src1, dst1, salt1);
  const std::vector<LinkId>& second = router.Route(src2, dst2, salt2);
  ExpectValidPath(topo, first, src1, dst1);
  ExpectValidPath(topo, second, src2, dst2);  // Pre-fix: returned first's path.
  EXPECT_EQ(router.cached_paths(), 2u);
}

// --- Fat-tree ECMP & failure handling ----------------------------------------

TEST(RouterTest, FatTreeEcmpExercisesAllEqualCostCoreLinks) {
  FatTreeParams params{.k = 4};
  const Topology topo = BuildFatTree(params);
  Router router(&topo);
  // Hosts 0 and 15 sit in different pods: 4 equal-cost 6-hop paths (2 agg
  // choices x 2 core choices). Across many salts every one must appear.
  std::set<std::vector<LinkId>> distinct;
  for (uint64_t salt = 0; salt < 256; ++salt) {
    const auto& path = router.Route(0, 15, salt);
    EXPECT_EQ(path.size(), 6u);
    ExpectValidPath(topo, path, 0, 15);
    distinct.insert(path);
  }
  EXPECT_EQ(distinct.size(), 4u) << "ECMP salting must reach every equal-cost path";
}

TEST(RouterTest, EpochInvalidationReroutesAroundFailedLink) {
  Topology topo = BuildFatTree(FatTreeParams{.k = 4});
  Router router(&topo);
  const NodeId src = 0;
  const NodeId dst = 15;
  const std::vector<LinkId> before = router.Route(src, dst, 3);
  ExpectValidPath(topo, before, src, dst);

  // Fail the first switch-to-switch hop of the chosen path (host links are
  // the only way in/out, so fail the edge->agg hop: index 1).
  const LinkId broken = before[1];
  topo.SetLinkUp(broken, false);
  const std::vector<LinkId> after = router.Route(src, dst, 3);
  ExpectValidPath(topo, after, src, dst);
  EXPECT_EQ(after.size(), before.size()) << "k=4 keeps an equal-length detour";
  for (LinkId l : after) {
    EXPECT_NE(l, broken) << "rerouted path must avoid the failed link";
    EXPECT_TRUE(topo.LinkUsable(l));
  }

  // Restore: the same triple routes identically to the original epoch.
  topo.SetLinkUp(broken, true);
  EXPECT_EQ(router.Route(src, dst, 3), before);
}

TEST(RouterTest, SwitchFailureReroutesAndRecovers) {
  Topology topo = BuildFatTree(FatTreeParams{.k = 4});
  Router router(&topo);
  // agg0 is node 16 hosts + 8 edges = 24.
  const NodeId agg0 = 24;
  ASSERT_EQ(topo.node(agg0).kind, NodeKind::kLeafSwitch);
  topo.SetNodeUp(agg0, false);
  for (uint64_t salt = 0; salt < 16; ++salt) {
    const auto& path = router.Route(0, 15, salt);
    ExpectValidPath(topo, path, 0, 15);
    for (LinkId l : path) {
      EXPECT_NE(topo.link(l).src, agg0);
      EXPECT_NE(topo.link(l).dst, agg0);
    }
  }
  topo.SetNodeUp(agg0, true);
  EXPECT_TRUE(router.Reachable(0, 15));
}

TEST(RouterTest, UnreachableContract) {
  // A host pair on a star whose only switch goes down: unreachable = empty
  // path + Reachable() false; src == dst stays trivially reachable.
  Topology topo = BuildSingleSwitchStar(4, Gbps64(10));
  Router router(&topo);
  ASSERT_TRUE(router.Reachable(0, 1));
  topo.SetNodeUp(4, false);  // The hub switch.
  EXPECT_FALSE(router.Reachable(0, 1));
  EXPECT_TRUE(router.Route(0, 1, 0).empty());
  EXPECT_TRUE(router.Reachable(2, 2));
  topo.SetNodeUp(4, true);
  EXPECT_TRUE(router.Reachable(0, 1));
  EXPECT_FALSE(router.Route(0, 1, 0).empty());
}

// --- Core-indexed tables against the per-destination reference --------------
//
// The router keeps hop tables for core nodes only and reads a stub's counts
// through its attachment. The reference below is the router before either
// shortcut: one reverse BFS per destination over every node and usable link,
// then the same ECMP walk (PathDigest seed, splitmix64 per-hop hash). Every
// route must match it bit for bit.

constexpr int32_t kRefUnreachable = std::numeric_limits<int32_t>::max();

std::vector<int32_t> ReferenceDistances(const Topology& topo, NodeId dst) {
  std::vector<std::vector<LinkId>> in_links(topo.num_nodes());
  for (LinkId l = 0; l < static_cast<LinkId>(topo.num_links()); ++l) {
    in_links[static_cast<size_t>(topo.link(l).dst)].push_back(l);
  }
  std::vector<int32_t> dist(topo.num_nodes(), kRefUnreachable);
  dist[static_cast<size_t>(dst)] = 0;
  std::vector<NodeId> frontier{dst};
  for (size_t i = 0; i < frontier.size(); ++i) {
    const NodeId n = frontier[i];
    for (LinkId l : in_links[static_cast<size_t>(n)]) {
      const NodeId prev = topo.link(l).src;
      if (topo.LinkUsable(l) && dist[static_cast<size_t>(prev)] == kRefUnreachable) {
        dist[static_cast<size_t>(prev)] = dist[static_cast<size_t>(n)] + 1;
        frontier.push_back(prev);
      }
    }
  }
  return dist;
}

std::vector<LinkId> ReferenceRoute(const Topology& topo, const std::vector<int32_t>& dist,
                                   NodeId src, NodeId dst, uint64_t salt) {
  std::vector<LinkId> path;
  if (src == dst || dist[static_cast<size_t>(src)] == kRefUnreachable) {
    return path;
  }
  const uint64_t digest = PathDigest(src, dst, salt);
  for (NodeId u = src; u != dst; u = topo.link(path.back()).dst) {
    std::vector<LinkId> candidates;
    for (LinkId l : topo.OutLinks(u)) {
      if (topo.LinkUsable(l) &&
          dist[static_cast<size_t>(topo.link(l).dst)] == dist[static_cast<size_t>(u)] - 1) {
        candidates.push_back(l);
      }
    }
    const uint64_t h = TestMix64(digest ^ (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 17));
    path.push_back(candidates[h % candidates.size()]);
  }
  return path;
}

// Describes the first disagreement between the router and the reference on
// src -> dst, or returns "" when there is none.
std::string Mismatch(const Topology& topo, Router* router, const std::vector<int32_t>& dist,
                     NodeId src, NodeId dst, const std::vector<uint64_t>& salts) {
  const std::string pair = std::to_string(src) + "->" + std::to_string(dst);
  const bool reachable = src == dst || dist[static_cast<size_t>(src)] != kRefUnreachable;
  if (router->Reachable(src, dst) != reachable) {
    return "Reachable " + pair;
  }
  for (uint64_t salt : salts) {
    if (router->Route(src, dst, salt) != ReferenceRoute(topo, dist, src, dst, salt)) {
      return "Route " + pair + " salt " + std::to_string(salt);
    }
  }
  return "";
}

// The first mismatch over every (src, dst) node pair, hosts and switches
// alike, at salts 0-3, or "" when the router agrees everywhere.
std::string FirstMismatch(const Topology& topo, Router* router) {
  const std::vector<uint64_t> salts{0, 1, 2, 3};
  for (NodeId dst = 0; dst < static_cast<NodeId>(topo.num_nodes()); ++dst) {
    const std::vector<int32_t> dist = ReferenceDistances(topo, dst);
    for (NodeId src = 0; src < static_cast<NodeId>(topo.num_nodes()); ++src) {
      const std::string mismatch = Mismatch(topo, router, dist, src, dst, salts);
      if (!mismatch.empty()) {
        return mismatch;
      }
    }
  }
  return "";
}

// Hosts 0-2 on one switch, host 3 wired only to host 0, and hosts 4 and 5
// wired only to each other. Host 0 has two in-links and each of hosts 4 and
// 5 hangs on the other, so none of the three may read an attachment's table;
// host 3 may, through host 0.
Topology HostsOnHosts() {
  Topology topo;
  for (int h = 0; h < 6; ++h) {
    topo.AddNode(NodeKind::kHost);
  }
  const NodeId sw = topo.AddNode(NodeKind::kSwitch);
  for (NodeId h = 0; h < 3; ++h) {
    topo.AddDuplexLink(h, sw, Gbps64(10));
  }
  topo.AddDuplexLink(3, 0, Gbps64(10));
  topo.AddDuplexLink(4, 5, Gbps64(10));
  return topo;
}

// Two linked switches with hosts 0-1 on the first and 2-3 on the second, and
// host 4 with an uplink to each. Host 4 has two in-links, so it anchors its
// own table, and with the switch-to-switch link down it carries transit.
Topology DualHomedHost() {
  Topology topo;
  for (int h = 0; h < 5; ++h) {
    topo.AddNode(NodeKind::kHost);
  }
  const NodeId s0 = topo.AddNode(NodeKind::kSwitch);
  const NodeId s1 = topo.AddNode(NodeKind::kSwitch);
  topo.AddDuplexLink(s0, s1, Gbps64(10));
  topo.AddDuplexLink(0, s0, Gbps64(10));
  topo.AddDuplexLink(1, s0, Gbps64(10));
  topo.AddDuplexLink(2, s1, Gbps64(10));
  topo.AddDuplexLink(3, s1, Gbps64(10));
  topo.AddDuplexLink(4, s0, Gbps64(10));
  topo.AddDuplexLink(4, s1, Gbps64(10));
  return topo;
}

TEST(RouterTest, MatchesPerDestinationBfsUnderRandomFailures) {
  struct Fabric {
    std::string name;
    Topology topo;
  };
  std::vector<Fabric> fabrics;
  fabrics.push_back({"star", BuildSingleSwitchStar(8, Gbps64(10))});
  fabrics.push_back({"spine-leaf, 3 hosts per ToR",
                     BuildSpineLeaf({.num_spine = 4,
                                     .num_leaf = 4,
                                     .num_tor = 4,
                                     .hosts_per_tor = 3,
                                     .num_pods = 2})});
  fabrics.push_back({"spine-leaf, 1 host per ToR",
                     BuildSpineLeaf({.num_spine = 4,
                                     .num_leaf = 4,
                                     .num_tor = 4,
                                     .hosts_per_tor = 1,
                                     .num_pods = 2})});
  fabrics.push_back({"fat-tree k=4", BuildFatTree({.k = 4})});
  fabrics.push_back({"hosts on hosts", HostsOnHosts()});
  fabrics.push_back({"dual-homed host", DualHomedHost()});

  Rng rng(19);
  for (Fabric& fabric : fabrics) {
    Topology& topo = fabric.topo;
    Router router(&topo);
    // Failure targets: every directed link (both directions of each host
    // link), then every node, hosts and switches of every tier.
    const size_t num_links = topo.num_links();
    const size_t num_targets = num_links + topo.num_nodes();
    const auto set_up = [&](size_t target, bool up) {
      if (target < num_links) {
        topo.SetLinkUp(static_cast<LinkId>(target), up);
      } else {
        topo.SetNodeUp(static_cast<NodeId>(target - num_links), up);
      }
    };

    ASSERT_EQ(FirstMismatch(topo, &router), "") << fabric.name << ", no failures";
    // Each flip restores a down target half the time and fails an up one
    // otherwise, so the fabric moves through a few concurrent failures.
    std::vector<size_t> down;
    for (int flip = 0; flip < 50; ++flip) {
      if (!down.empty() && rng.Bernoulli(0.5)) {
        const size_t i =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(down.size()) - 1));
        set_up(down[i], true);
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        size_t target = 0;
        do {
          target = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(num_targets) - 1));
        } while (std::find(down.begin(), down.end(), target) != down.end());
        set_up(target, false);
        down.push_back(target);
      }
      ASSERT_EQ(FirstMismatch(topo, &router), "") << fabric.name << ", flip " << flip;
    }
  }
}

TEST(RouterTest, MatchesPerDestinationBfsOnChurnFabricSample) {
  // fig11-scale's 5x spine-leaf: 9,720 hosts, 540 ToRs, 510 leaves and 54
  // spines in 30 pods. Spines have 510 out-links, so this covers the widest
  // walk the provided benches route. The failure rounds below make the hop
  // tables' BFS meet unusable arcs and nodes it can never reach, in both its
  // top-down and its bottom-up levels.
  const SpineLeafParams params{
      .num_spine = 54, .num_leaf = 510, .num_tor = 540, .hosts_per_tor = 18, .num_pods = 30};
  Topology topo = BuildSpineLeaf(params);
  Router router(&topo);
  Rng rng(23);
  const int64_t last_node = static_cast<int64_t>(topo.num_nodes()) - 1;
  // Sources drawn from here half the time: the failed switches and the nodes
  // the failures cut off.
  std::vector<NodeId> touched;
  const auto run_queries = [&](const std::string& round, int num_queries) {
    for (int query = 0; query < num_queries; ++query) {
      const NodeId src = !touched.empty() && rng.Bernoulli(0.5)
                             ? rng.Choice(touched)
                             : static_cast<NodeId>(rng.UniformInt(0, last_node));
      const NodeId dst = static_cast<NodeId>(rng.UniformInt(0, last_node));
      const std::vector<uint64_t> salts{rng.Next()};
      const std::string mismatch =
          Mismatch(topo, &router, ReferenceDistances(topo, dst), src, dst, salts);
      if (!mismatch.empty()) {
        return round + ", query " + std::to_string(query) + ": " + mismatch;
      }
    }
    return std::string();
  };
  ASSERT_EQ(run_queries("no failures", 300), "");

  // Node ids: hosts, then ToRs, leaves and spines (BuildSpineLeaf's order).
  const NodeId first_tor = params.num_tor * params.hosts_per_tor;
  const NodeId first_leaf = first_tor + params.num_tor;
  const NodeId first_spine = first_leaf + params.num_leaf;
  std::vector<LinkId> down_links;
  std::vector<NodeId> down_nodes;
  // 2% of the directed ToR-leaf and leaf-spine links, plus every uplink of
  // one ToR, which cuts that ToR and its hosts off from the rest.
  const NodeId cut_tor = first_tor + static_cast<NodeId>(rng.UniformInt(0, params.num_tor - 1));
  for (LinkId l = 0; l < static_cast<LinkId>(topo.num_links()); ++l) {
    const Link& link = topo.link(l);
    if (link.src < first_tor || link.dst < first_tor) {
      continue;
    }
    if (link.src == cut_tor || rng.Bernoulli(0.02)) {
      topo.SetLinkUp(l, false);
      down_links.push_back(l);
    }
  }
  touched.push_back(cut_tor);
  touched.push_back(static_cast<NodeId>(cut_tor - first_tor) * params.hosts_per_tor);
  ASSERT_EQ(run_queries("random links down", 200), "");

  const NodeId spine = first_spine + static_cast<NodeId>(rng.UniformInt(0, params.num_spine - 1));
  topo.SetNodeUp(spine, false);
  down_nodes.push_back(spine);
  touched.push_back(spine);
  ASSERT_EQ(run_queries("and one spine down", 200), "");

  // Every leaf of one pod: each of its ToRs then reaches only its own hosts.
  const int pod = static_cast<int>(rng.UniformInt(0, params.num_pods - 1));
  const int leaves_per_pod = params.num_leaf / params.num_pods;
  const int tors_per_pod = params.num_tor / params.num_pods;
  for (int l = 0; l < leaves_per_pod; ++l) {
    const NodeId leaf = first_leaf + static_cast<NodeId>(pod * leaves_per_pod + l);
    topo.SetNodeUp(leaf, false);
    down_nodes.push_back(leaf);
    touched.push_back(leaf);
  }
  for (int t = 0; t < tors_per_pod; ++t) {
    const NodeId tor = first_tor + static_cast<NodeId>(pod * tors_per_pod + t);
    touched.push_back(tor);
    touched.push_back(static_cast<NodeId>(pod * tors_per_pod + t) * params.hosts_per_tor);
  }
  ASSERT_EQ(run_queries("and one pod's leaves down", 200), "");

  for (LinkId l : down_links) {
    topo.SetLinkUp(l, true);
  }
  for (NodeId n : down_nodes) {
    topo.SetNodeUp(n, true);
  }
  ASSERT_EQ(run_queries("all restored", 200), "");
}

// A small spine-leaf for the last-hop cases: hosts 0-11, three per ToR.
Topology SmallSpineLeaf() {
  return BuildSpineLeaf(
      {.num_spine = 4, .num_leaf = 4, .num_tor = 4, .hosts_per_tor = 3, .num_pods = 2});
}

NodeId TorOf(const Topology& topo, NodeId host) {
  return topo.link(topo.OutLinks(host).front()).dst;
}

TEST(RouterTest, DownTorToHostLinkCutsOnlyRoutesIntoTheHost) {
  Topology topo = SmallSpineLeaf();
  Router router(&topo);
  const NodeId h = 4;
  topo.SetLinkUp(topo.FindLink(TorOf(topo, h), h), false);
  for (NodeId n = 0; n < static_cast<NodeId>(topo.num_nodes()); ++n) {
    if (n == h) {
      continue;
    }
    EXPECT_FALSE(router.Reachable(n, h)) << n;
    EXPECT_TRUE(router.Route(n, h, 0).empty()) << n;
    EXPECT_TRUE(router.Reachable(h, n)) << n;
    ExpectValidPath(topo, router.Route(h, n, 0), h, n);
  }
}

TEST(RouterTest, DownHostToTorLinkCutsOnlyRoutesOutOfTheHost) {
  Topology topo = SmallSpineLeaf();
  Router router(&topo);
  const NodeId h = 4;
  topo.SetLinkUp(topo.FindLink(h, TorOf(topo, h)), false);
  for (NodeId n = 0; n < static_cast<NodeId>(topo.num_nodes()); ++n) {
    if (n == h) {
      continue;
    }
    EXPECT_FALSE(router.Reachable(h, n)) << n;
    EXPECT_TRUE(router.Route(h, n, 0).empty()) << n;
    EXPECT_TRUE(router.Reachable(n, h)) << n;
    ExpectValidPath(topo, router.Route(n, h, 0), n, h);
  }
}

TEST(RouterTest, RestoredLastHopGivesBackPreFailureRoute) {
  Topology topo = SmallSpineLeaf();
  Router router(&topo);
  const NodeId src = 0;
  const NodeId h = 10;  // Another pod: a six-hop route.
  const std::vector<LinkId> before = router.Route(src, h, 3);
  ASSERT_EQ(before.size(), 6u);
  const LinkId last_hop = topo.FindLink(TorOf(topo, h), h);
  topo.SetLinkUp(last_hop, false);
  EXPECT_TRUE(router.Route(src, h, 3).empty());
  topo.SetLinkUp(last_hop, true);
  EXPECT_EQ(router.Route(src, h, 3), before);
}

}  // namespace
}  // namespace saba
