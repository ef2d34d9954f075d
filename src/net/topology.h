// Datacenter topology graph.
//
// Nodes are hosts or switches; links are directed (an egress port on the
// source node). Three fabrics are provided as builders: the single-switch
// testbed star (8- and 32-server experiments), the 1,944-server three-tier
// spine-leaf fabric of §8.1 (54 spine, 102 leaf, 108 ToR switches, 18
// servers per ToR), and a k-ary fat-tree (BuildFatTree) for the
// routing-diversity and failure scenarios beyond the paper.
//
// Shape (node and link counts, endpoints) is fixed at construction, but the
// fabric's *state* is simulated: links and nodes carry capacity-preserving
// up/down failure flags (SetLinkUp / SetNodeUp) and capacities may change
// (SetLinkCapacity). Every up/down flip bumps a monotonic epoch() counter;
// the Router watches it and invalidates its distance/path caches, so routes
// recompute around failures deterministically (see routing.h for the
// invalidation and reroute contract).

#ifndef SRC_NET_TOPOLOGY_H_
#define SRC_NET_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/net/units.h"

namespace saba {

using NodeId = int32_t;
using LinkId = int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

enum class NodeKind : uint8_t {
  kHost = 0,
  kTorSwitch = 1,
  kLeafSwitch = 2,
  kSpineSwitch = 3,
  kSwitch = 4,  // Generic switch (single-switch star).
};

inline bool IsSwitch(NodeKind kind) { return kind != NodeKind::kHost; }

struct Node {
  NodeKind kind = NodeKind::kHost;
  // Failure flag: a down node takes all its incident links out of service
  // (LinkUsable) without forgetting any capacity or shape.
  bool up = true;
};

// A directed link: the egress port of `src` facing `dst`.
struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bps64 capacity_bps = 0;
  // Failure flag: a down link keeps its capacity (restores are exact) but is
  // skipped by routing. Duplex failures flip both directed links.
  bool up = true;
};

class Topology {
 public:
  Topology() = default;

  NodeId AddNode(NodeKind kind);

  // Adds a single directed link and returns its id.
  LinkId AddLink(NodeId src, NodeId dst, Bps64 capacity_bps);

  // Adds both directions with equal capacity; returns the src->dst id (the
  // reverse id is the returned id + 1).
  LinkId AddDuplexLink(NodeId a, NodeId b, Bps64 capacity_bps);

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_links() const { return links_.size(); }

  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  const Link& link(LinkId id) const { return links_[static_cast<size_t>(id)]; }

  // Mutable capacity access (the profiler throttles host links this way;
  // degradation scenarios scale capacities mid-run). Does NOT bump epoch():
  // capacity never changes hop-count routing, so router caches stay valid.
  void SetLinkCapacity(LinkId id, Bps64 capacity_bps);

  // --- Failure flags & epoch -----------------------------------------------
  // Capacity-preserving up/down state. A change (and only a change — setting
  // the current value is a no-op) bumps epoch(), signalling every Router on
  // this topology to drop its distance/path caches before the next query.
  void SetLinkUp(LinkId id, bool up);
  void SetNodeUp(NodeId id, bool up);

  // A link is usable iff it and both its endpoints are up.
  bool LinkUsable(LinkId id) const {
    const Link& l = links_[static_cast<size_t>(id)];
    return l.up && nodes_[static_cast<size_t>(l.src)].up && nodes_[static_cast<size_t>(l.dst)].up;
  }

  // Monotonic counter of up/down mutations; starts at 0.
  uint64_t epoch() const { return epoch_; }

  // Outgoing link ids of a node, in insertion order.
  const std::vector<LinkId>& OutLinks(NodeId id) const {
    return out_links_[static_cast<size_t>(id)];
  }

  // The link src->dst, or kInvalidLink if absent.
  LinkId FindLink(NodeId src, NodeId dst) const;

  // All host node ids, in insertion order.
  std::vector<NodeId> Hosts() const;

  // All switch node ids, in insertion order.
  std::vector<NodeId> Switches() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;
  uint64_t epoch_ = 0;
};

// Builder for the testbed-style star: `num_hosts` hosts on one switch, every
// host link at `capacity_bps` (the paper's testbed uses 56 Gb/s).
Topology BuildSingleSwitchStar(int num_hosts, Bps64 capacity_bps);

// Parameters for the three-tier spine-leaf fabric of §8.1.
struct SpineLeafParams {
  int num_spine = 54;
  int num_leaf = 102;
  int num_tor = 108;
  int hosts_per_tor = 18;
  // Each ToR uplinks to all leaves of its pod; each leaf uplinks to every
  // spine. Pods partition ToRs and leaves evenly.
  int num_pods = 6;
  Bps64 host_link_bps = Gbps64(56);
  Bps64 tor_leaf_bps = Gbps64(56);
  Bps64 leaf_spine_bps = Gbps64(56);
};

// Builds the fabric. Host ids are assigned first (so host h is node h),
// followed by ToR, leaf, then spine switches.
Topology BuildSpineLeaf(const SpineLeafParams& params);

// Parameters for the k-ary three-tier fat-tree (Al-Fares et al.): k pods,
// each with k/2 edge switches (k/2 hosts each) fully meshed to k/2
// aggregation switches; (k/2)^2 core switches, core c = a*(k/2)+j linking to
// aggregation switch #a of every pod. Hosts total k^3/4.
struct FatTreeParams {
  int k = 4;  // Pod count / switch arity; must be even and >= 2.
  Bps64 host_link_bps = Gbps64(56);
  Bps64 edge_agg_bps = Gbps64(56);
  // Lower this below edge_agg_bps for an oversubscribed core.
  Bps64 agg_core_bps = Gbps64(56);
};

// Builds the fat-tree. Host ids first (host h is node h), then edge
// (kTorSwitch), aggregation (kLeafSwitch), core (kSpineSwitch), so the
// existing NodeKind tiers map onto the fat-tree roles. BFS shortest paths
// over this wiring reproduce two-phase pod routing's path set exactly: an
// inter-pod route climbs host->edge->agg->core and descends to the
// destination pod, with (k/2)^2 equal-cost core choices spread by the
// router's deterministic ECMP salt (the pod-prefix/host-suffix tables of
// two-phase routing pick among the same candidates).
Topology BuildFatTree(const FatTreeParams& params);

}  // namespace saba

#endif  // SRC_NET_TOPOLOGY_H_
