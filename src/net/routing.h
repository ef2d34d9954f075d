// Deterministic shortest-path routing with ECMP spreading.
//
// The real system reads switch forwarding tables through infiniband-diags
// (paper §7.2); here routes are computed on the topology directly: BFS
// shortest paths over *usable* links, with equal-cost next hops selected by a
// deterministic hash of (src, dst, salt). The salt lets a connection pin its
// path (as an InfiniBand connection does) while different connections spread
// across the fabric like ECMP.
//
// Two caches serve the stage-structured workloads, which reuse the same node
// pairs across stages: resolved paths, keyed by the full (src, dst, salt)
// triple, and hop-count tables, one reverse BFS per *anchor* node.
//
// A node h is a *stub* when it has exactly one in-link s->h, every out-link
// of h goes back to s, and s is not such a node itself (that happens only to
// two nodes wired just to each other). Every host the star, spine-leaf and
// fat-tree builders make is a stub; every other node is *core*. The shape is
// read from the topology at construction, and the core nodes are numbered
// densely. A stub never lies inside a shortest path, since its only
// neighbour is s, so each table holds one entry per core node: 1,104 instead
// of 10,824 on fig11-scale's fabric.
//
// Each table is a level-synchronous reverse BFS that expands every level in
// the direction likely to scan fewer arcs (direction-optimizing BFS, Beamer
// et al., SC 2012). Top-down, the level's nodes scan their in-arcs in a flat
// (CSR) in-adjacency of the core nodes alone. Bottom-up, each unreached core
// node scans its out-arcs in the walk's out-adjacency (below), from its first
// core head on, and stops at the first usable one into the level. A level
// goes bottom-up when its in-arcs exceed 1/14 of the unreached nodes'
// out-arcs (Beamer et al.'s alpha), and the BFS stops once the unreached
// nodes have no out-arc left. BFS levels are unique, so either direction
// gives the same table. On fig11-scale's fabric a ToR's table scans about
// 20,000 arcs instead of all 73,440 core in-arcs: the other pods' leaves and
// then their ToRs are found bottom-up, a leaf at its first spine arc and a
// ToR at its first leaf arc.
//
// A stub destination h reads its attachment s's table: d(n->h) = d(n->s) + 1
// for n != h, and 0 at h. When s->h is not usable (the link, s or h is down),
// no other node reaches h. A stub n's own count is d(s->anchor) + 1 when one
// of its uplinks is usable, and unreachable otherwise, which is what a BFS
// over every node assigns it. A core destination anchors its own table, so
// the cache holds at most one table per switch, never one per host.
//
// The ECMP walk scans a node's out-links in OutLinks order from a flat
// out-adjacency and keeps the usable ones whose head is one hop closer. It
// skips a stub head other than the destination: that stub's only neighbour is
// the node being left, so it is never closer. Each hop therefore sees the
// same candidates, in the same order, as a per-destination BFS over every
// node, and the per-hop hash picks the same link. Both caches are dropped
// whenever the topology's failure epoch() advances, so routes recompute
// around link/switch failures.

#ifndef SRC_NET_ROUTING_H_
#define SRC_NET_ROUTING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/net/topology.h"

namespace saba {

// The mixed 64-bit digest of a (src, dst, salt) routing triple. It seeds the
// deterministic ECMP tie-break inside Route() and hashes RouteKey for the
// path cache — but it is never trusted as an identity: the cache compares
// full triples, so digest collisions can slow a lookup, never alias routes.
uint64_t PathDigest(NodeId src, NodeId dst, uint64_t salt);

// Exact identity of a cached route. Equality is field-wise; hashing goes
// through PathDigest.
struct RouteKey {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  uint64_t salt = 0;

  bool operator==(const RouteKey& o) const {
    return src == o.src && dst == o.dst && salt == o.salt;
  }
};

struct RouteKeyHash {
  size_t operator()(const RouteKey& k) const {
    return static_cast<size_t>(PathDigest(k.src, k.dst, k.salt));
  }
};

class Router {
 public:
  // The topology must outlive the router. Shape (nodes, links, endpoints) is
  // fixed after construction, but up/down state may change: whenever
  // Topology::epoch() advances, the router drops its caches on the next
  // query, so previously returned references are invalidated by any
  // SetLinkUp/SetNodeUp call. Capacity changes don't touch the epoch and
  // leave cached routes valid.
  explicit Router(const Topology* topo);

  // Returns the sequence of link ids along a shortest path over usable links
  // from src to dst. `salt` selects among equal-cost paths; the same
  // (src, dst, salt) at the same epoch always yields the same path.
  //
  // Contract for the empty return: the path is empty iff src == dst OR dst is
  // currently unreachable from src. Callers that inject failures distinguish
  // the two with Reachable(); the provided builders guarantee full
  // reachability at epoch 0, so construction-time callers may assert it. The
  // returned reference is stable until the next epoch change.
  const std::vector<LinkId>& Route(NodeId src, NodeId dst, uint64_t salt);

  // True iff a usable path from src to dst exists at the current epoch
  // (trivially true for src == dst).
  bool Reachable(NodeId src, NodeId dst);

  // Number of distinct cached paths (for tests and capacity planning).
  size_t cached_paths() const { return path_cache_.size(); }

 private:
  // core_index_ of a stub.
  static constexpr int32_t kStub = -1;

  // One entry of a flat adjacency: a link and the core index of its far end
  // (its head in the out-adjacency, its tail in the in-adjacency), or kStub.
  struct Arc {
    LinkId link;
    int32_t core;
  };

  // Hop counts to one destination over usable links: 0 at `dst`, and the
  // anchor table's entry plus extra_hops at every other node (unreachable
  // stays unreachable). A null table means no other node reaches `dst`.
  struct HopsTo {
    NodeId dst;
    // The anchor's table, indexed by core index.
    const std::vector<int32_t>* table;
    int32_t extra_hops;
    // dst's one in-link when dst is a stub, kInvalidLink otherwise.
    LinkId last_hop;
  };

  // Drops both caches if the topology's failure epoch moved since the last
  // query. Called on every public entry point.
  void MaybeInvalidate();

  // Hop counts to `dst`: through its attachment's table when `dst` is a stub,
  // through its own table otherwise (see the file comment).
  HopsTo DistancesTo(NodeId dst);

  // Hop count from `n` to `to.dst`, or INT32_MAX when unreachable.
  int32_t HopsFrom(NodeId n, const HopsTo& to) const;

  // Hop counts from every core node to core node `anchor` over usable links,
  // computed by a level-synchronous, direction-optimizing reverse BFS and
  // cached. Unreachable nodes hold INT32_MAX.
  const std::vector<int32_t>& TableFor(int32_t anchor);

  // Core-to-core in-arcs of core node `core`, and the out-arcs a bottom-up
  // level scans for it (core_out_).
  uint32_t InDegree(int32_t core) const;
  uint32_t OutDegree(int32_t core) const;

  const Topology* topo_;
  // Failure epoch the caches were computed at.
  uint64_t seen_epoch_ = 0;
  // Dense index of each core node, kStub for each stub.
  std::vector<int32_t> core_index_;
  // last_hop_[h] is the one in-link of a stub h, and kInvalidLink for every
  // core node.
  std::vector<LinkId> last_hop_;
  // Out-links of node n, in OutLinks order:
  // out_arcs_[out_begin_[n] .. out_begin_[n + 1]).
  std::vector<uint32_t> out_begin_;
  std::vector<Arc> out_arcs_;
  // The out-arcs a bottom-up BFS level scans for core node c:
  // out_arcs_[core_out_[c].first .. core_out_[c].end), the node's out-arcs
  // from its first core head on. The stub heads before it (a ToR's hosts)
  // can never be one hop closer to an anchor.
  struct CoreArcs {
    uint32_t first;
    uint32_t end;
  };
  std::vector<CoreArcs> core_out_;
  // In-links of core node c from core nodes:
  // in_arcs_[in_begin_[c] .. in_begin_[c + 1]).
  std::vector<uint32_t> in_begin_;
  std::vector<Arc> in_arcs_;
  // Core-indexed table cache: tables_[c] is anchor c's table, empty until
  // first asked for.
  std::vector<std::vector<int32_t>> tables_;
  // Scratch reused by every call: the BFS's current and next levels and its
  // not-yet-reached nodes (core indices), and one hop's ECMP candidates.
  std::vector<int32_t> frontier_;
  std::vector<int32_t> next_;
  std::vector<int32_t> unvisited_;
  std::vector<LinkId> candidates_;
  // Keyed by the full (src, dst, salt) triple — PathDigest is only the
  // hasher, so a digest collision costs a bucket probe, never a wrong route.
  // Lookup-only (find/emplace by key, plus size()); nothing ever iterates it,
  // so its order can't reach routing decisions.
  // saba-lint: unordered-iter-ok(lookup-only cache, never iterated)
  std::unordered_map<RouteKey, std::vector<LinkId>, RouteKeyHash> path_cache_;
};

}  // namespace saba

#endif  // SRC_NET_ROUTING_H_
