#include "src/net/routing.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

namespace saba {
namespace {

constexpr int32_t kUnreachable = std::numeric_limits<int32_t>::max();

// splitmix64 finalizer.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t PathDigest(NodeId src, NodeId dst, uint64_t salt) {
  return Mix64((static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
               static_cast<uint64_t>(static_cast<uint32_t>(dst))) ^
         Mix64(salt * 0x9e3779b97f4a7c15ULL + 1);
}

Router::Router(const Topology* topo) : topo_(topo) {
  assert(topo != nullptr);
  seen_epoch_ = topo_->epoch();
  const size_t num_nodes = topo_->num_nodes();
  in_links_.resize(num_nodes);
  for (size_t l = 0; l < topo_->num_links(); ++l) {
    in_links_[static_cast<size_t>(topo_->link(static_cast<LinkId>(l)).dst)].push_back(
        static_cast<LinkId>(l));
  }
  last_hop_.assign(num_nodes, kInvalidLink);
  for (size_t n = 0; n < num_nodes; ++n) {
    if (in_links_[n].size() != 1) {
      continue;
    }
    const LinkId in = in_links_[n].front();
    const NodeId attach = topo_->link(in).src;
    const std::vector<LinkId>& out = topo_->OutLinks(static_cast<NodeId>(n));
    if (std::all_of(out.begin(), out.end(),
                    [&](LinkId l) { return topo_->link(l).dst == attach; })) {
      last_hop_[n] = in;
    }
  }
  tables_.resize(num_nodes);
}

int32_t Router::HopsTo::operator()(NodeId n) const {
  if (n == dst) {
    return 0;
  }
  if (table == nullptr) {
    return kUnreachable;
  }
  const int32_t d = (*table)[static_cast<size_t>(n)];
  return d == kUnreachable ? kUnreachable : d + extra_hops;
}

void Router::MaybeInvalidate() {
  const uint64_t epoch = topo_->epoch();
  if (epoch != seen_epoch_) {
    tables_.assign(tables_.size(), {});
    path_cache_.clear();
    seen_epoch_ = epoch;
  }
}

Router::HopsTo Router::DistancesTo(NodeId dst) {
  const LinkId last_hop = last_hop_[static_cast<size_t>(dst)];
  if (last_hop == kInvalidLink) {
    return {dst, &TableFor(dst), 0};
  }
  if (!topo_->LinkUsable(last_hop)) {
    return {dst, nullptr, 0};
  }
  return {dst, &TableFor(topo_->link(last_hop).src), 1};
}

const std::vector<int32_t>& Router::TableFor(NodeId anchor) {
  std::vector<int32_t>& dist = tables_[static_cast<size_t>(anchor)];
  if (!dist.empty()) {
    return dist;
  }
  dist.assign(topo_->num_nodes(), kUnreachable);
  dist[static_cast<size_t>(anchor)] = 0;
  std::deque<NodeId> frontier{anchor};
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop_front();
    for (LinkId l : in_links_[static_cast<size_t>(n)]) {
      // The visited test goes first: on a spine-leaf most in-links lead back
      // to nodes already reached, and it reads no endpoint up flags.
      const NodeId prev = topo_->link(l).src;
      if (dist[static_cast<size_t>(prev)] == kUnreachable && topo_->LinkUsable(l)) {
        dist[static_cast<size_t>(prev)] = dist[static_cast<size_t>(n)] + 1;
        frontier.push_back(prev);
      }
    }
  }
  return dist;
}

const std::vector<LinkId>& Router::Route(NodeId src, NodeId dst, uint64_t salt) {
  MaybeInvalidate();
  const RouteKey key{src, dst, salt};
  auto it = path_cache_.find(key);
  if (it != path_cache_.end()) {
    return it->second;
  }

  // The digest seeds the per-hop ECMP tie-break; the cache above is keyed by
  // the full triple, so digest collisions cannot alias routes.
  const uint64_t digest = PathDigest(src, dst, salt);
  std::vector<LinkId> path;
  if (src != dst) {
    const HopsTo hops = DistancesTo(dst);
    if (hops(src) != kUnreachable) {
      NodeId u = src;
      while (u != dst) {
        // Collect all usable next hops on a shortest path. The hop test goes
        // first: it rejects most of a spine's or leaf's out-links.
        const int32_t next_hops = hops(u) - 1;
        std::vector<LinkId> candidates;
        for (LinkId l : topo_->OutLinks(u)) {
          if (hops(topo_->link(l).dst) == next_hops && topo_->LinkUsable(l)) {
            candidates.push_back(l);
          }
        }
        assert(!candidates.empty());
        const uint64_t h = Mix64(digest ^ (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 17));
        const LinkId chosen = candidates[h % candidates.size()];
        path.push_back(chosen);
        u = topo_->link(chosen).dst;
      }
    }
    // else: unreachable at this epoch — cache the empty path; callers use
    // Reachable() to distinguish this from src == dst (routing.h contract).
  }
  return path_cache_.emplace(key, std::move(path)).first->second;
}

bool Router::Reachable(NodeId src, NodeId dst) {
  MaybeInvalidate();
  if (src == dst) {
    return true;
  }
  return DistancesTo(dst)(src) != kUnreachable;
}

}  // namespace saba
