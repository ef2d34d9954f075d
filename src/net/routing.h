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
// triple, and hop-count tables, one reverse BFS per *anchor* node. A
// destination h is single-homed when it has exactly one in-link s->h and every
// out-link of h goes back to s; every host the star, spine-leaf and fat-tree
// builders make is. Its hop counts are read from the table of its attachment
// switch s: d(n->h) = d(n->s) + 1 for n != h, and 0 at h. When that last hop
// is not usable (the link, s or h is down), no other node reaches h, while h's
// own routes out are unaffected. Any other destination anchors its own table,
// so on the provided fabrics the cache holds at most one table per switch,
// never one per host. The rule is read from the topology's shape at
// construction. Both caches are dropped whenever the topology's failure
// epoch() advances, so routes recompute around link/switch failures.

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
  // Hop counts to one destination over usable links: 0 at `dst`, and
  // (*table)[n] + extra_hops at every other node n (unreachable stays
  // unreachable). A null table means no other node reaches `dst`.
  struct HopsTo {
    NodeId dst;
    const std::vector<int32_t>* table;
    int32_t extra_hops;

    int32_t operator()(NodeId n) const;
  };

  // Drops both caches if the topology's failure epoch moved since the last
  // query. Called on every public entry point.
  void MaybeInvalidate();

  // Hop counts to `dst`: through its attachment switch's table when `dst` is
  // single-homed, through its own table otherwise (see the file comment).
  HopsTo DistancesTo(NodeId dst);

  // Hop counts from every node to `anchor` over usable links, computed by
  // reverse BFS and cached. Unreachable nodes hold INT32_MAX.
  const std::vector<int32_t>& TableFor(NodeId anchor);

  const Topology* topo_;
  // Failure epoch the caches were computed at.
  uint64_t seen_epoch_ = 0;
  // Reverse adjacency: in_links_[n] lists links whose dst is n.
  std::vector<std::vector<LinkId>> in_links_;
  // last_hop_[h] is the one in-link of a single-homed node h, and
  // kInvalidLink for every other node.
  std::vector<LinkId> last_hop_;
  // Node-indexed table cache: tables_[a] is anchor a's table, empty until
  // first asked for.
  std::vector<std::vector<int32_t>> tables_;
  // Keyed by the full (src, dst, salt) triple — PathDigest is only the
  // hasher, so a digest collision costs a bucket probe, never a wrong route.
  // Lookup-only (find/emplace by key, plus size()); nothing ever iterates it,
  // so its order can't reach routing decisions.
  // saba-lint: unordered-iter-ok(lookup-only cache, never iterated)
  std::unordered_map<RouteKey, std::vector<LinkId>, RouteKeyHash> path_cache_;
};

}  // namespace saba

#endif  // SRC_NET_ROUTING_H_
