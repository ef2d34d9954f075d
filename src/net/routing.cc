#include "src/net/routing.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace saba {
namespace {

constexpr int32_t kUnreachable = std::numeric_limits<int32_t>::max();
// A hop-table level goes bottom-up when its frontier has more than
// 1/kBottomUpFactor of the unvisited nodes' arcs (Router::TableFor).
constexpr uint64_t kBottomUpFactor = 14;

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
  const LinkId num_links = static_cast<LinkId>(topo_->num_links());
  // Each node's in-degree and its last in-link, the only one when the degree
  // is 1.
  std::vector<uint32_t> in_degree(num_nodes, 0);
  std::vector<LinkId> some_in(num_nodes, kInvalidLink);
  for (LinkId l = 0; l < num_links; ++l) {
    const size_t dst = static_cast<size_t>(topo_->link(l).dst);
    ++in_degree[dst];
    some_in[dst] = l;
  }
  // True when node n has exactly one in-link and every out-link of n goes
  // back to that link's tail.
  const auto single_homed = [&](size_t n) {
    if (in_degree[n] != 1) {
      return false;
    }
    const NodeId attach = topo_->link(some_in[n]).src;
    const std::vector<LinkId>& out = topo_->OutLinks(static_cast<NodeId>(n));
    return std::all_of(out.begin(), out.end(),
                       [&](LinkId l) { return topo_->link(l).dst == attach; });
  };
  last_hop_.assign(num_nodes, kInvalidLink);
  core_index_.assign(num_nodes, kStub);
  int32_t num_core = 0;
  for (size_t n = 0; n < num_nodes; ++n) {
    if (single_homed(n) && !single_homed(static_cast<size_t>(topo_->link(some_in[n]).src))) {
      last_hop_[n] = some_in[n];
    } else {
      core_index_[n] = num_core++;
    }
  }
  const auto core_of = [&](NodeId n) { return core_index_[static_cast<size_t>(n)]; };

  out_begin_.reserve(num_nodes + 1);
  out_begin_.push_back(0);
  out_arcs_.reserve(static_cast<size_t>(num_links));
  core_out_.reserve(static_cast<size_t>(num_core));
  for (size_t n = 0; n < num_nodes; ++n) {
    for (LinkId l : topo_->OutLinks(static_cast<NodeId>(n))) {
      out_arcs_.push_back({l, core_of(topo_->link(l).dst)});
    }
    const uint32_t end = static_cast<uint32_t>(out_arcs_.size());
    if (core_index_[n] != kStub) {
      uint32_t first = out_begin_.back();
      while (first < end && out_arcs_[first].core == kStub) {
        ++first;
      }
      core_out_.push_back({first, end});
    }
    out_begin_.push_back(end);
  }

  // Core-to-core links grouped by head, in link id order within a head.
  in_begin_.assign(static_cast<size_t>(num_core) + 1, 0);
  for (LinkId l = 0; l < num_links; ++l) {
    const Link& link = topo_->link(l);
    if (core_of(link.src) != kStub && core_of(link.dst) != kStub) {
      ++in_begin_[static_cast<size_t>(core_of(link.dst)) + 1];
    }
  }
  for (size_t c = 0; c < static_cast<size_t>(num_core); ++c) {
    in_begin_[c + 1] += in_begin_[c];
  }
  in_arcs_.resize(in_begin_.back());
  std::vector<uint32_t> next(in_begin_.begin(), in_begin_.end() - 1);
  for (LinkId l = 0; l < num_links; ++l) {
    const Link& link = topo_->link(l);
    if (core_of(link.src) != kStub && core_of(link.dst) != kStub) {
      in_arcs_[next[static_cast<size_t>(core_of(link.dst))]++] = {l, core_of(link.src)};
    }
  }
  tables_.resize(static_cast<size_t>(num_core));
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
    return {dst, &TableFor(core_index_[static_cast<size_t>(dst)]), 0, kInvalidLink};
  }
  if (!topo_->LinkUsable(last_hop)) {
    return {dst, nullptr, 0, last_hop};
  }
  const NodeId attach = topo_->link(last_hop).src;
  return {dst, &TableFor(core_index_[static_cast<size_t>(attach)]), 1, last_hop};
}

int32_t Router::HopsFrom(NodeId n, const HopsTo& to) const {
  if (n == to.dst) {
    return 0;
  }
  if (to.table == nullptr) {
    return kUnreachable;
  }
  int32_t core = core_index_[static_cast<size_t>(n)];
  int32_t extra_hops = to.extra_hops;
  if (core == kStub) {
    // A stub's every path leaves through its attachment, one hop up.
    const auto first = out_arcs_.begin() + out_begin_[static_cast<size_t>(n)];
    const auto last = out_arcs_.begin() + out_begin_[static_cast<size_t>(n) + 1];
    if (std::none_of(first, last, [&](const Arc& a) { return topo_->LinkUsable(a.link); })) {
      return kUnreachable;
    }
    core = first->core;
    ++extra_hops;
  }
  const int32_t d = (*to.table)[static_cast<size_t>(core)];
  return d == kUnreachable ? kUnreachable : d + extra_hops;
}

uint32_t Router::InDegree(int32_t core) const {
  return in_begin_[static_cast<size_t>(core) + 1] - in_begin_[static_cast<size_t>(core)];
}

uint32_t Router::OutDegree(int32_t core) const {
  const CoreArcs& arcs = core_out_[static_cast<size_t>(core)];
  return arcs.end - arcs.first;
}

const std::vector<int32_t>& Router::TableFor(int32_t anchor) {
  std::vector<int32_t>& dist = tables_[static_cast<size_t>(anchor)];
  if (!dist.empty()) {
    return dist;
  }
  dist.assign(tables_.size(), kUnreachable);
  dist[static_cast<size_t>(anchor)] = 0;
  frontier_.assign(1, anchor);
  // The arcs each direction would scan to expand the frontier: top-down reads
  // the frontier's in-arcs, bottom-up at most the unvisited nodes' out-arcs
  // from their first core head on. A node with none can never be reached, so
  // the BFS stops once the unvisited nodes have none between them.
  uint64_t frontier_arcs = InDegree(anchor);
  uint64_t unvisited_arcs = 0;
  unvisited_.clear();
  for (int32_t c = 0; c < static_cast<int32_t>(tables_.size()); ++c) {
    if (c != anchor) {
      unvisited_.push_back(c);
      unvisited_arcs += OutDegree(c);
    }
  }
  for (int32_t hops = 1; !frontier_.empty() && unvisited_arcs > 0; ++hops) {
    next_.clear();
    // Bottom-up usually stops long before it has scanned every unvisited
    // node's arcs, so it wins once the frontier's arcs exceed a fraction of
    // theirs: Beamer et al.'s alpha of 14.
    if (frontier_arcs * kBottomUpFactor <= unvisited_arcs) {
      // Top-down: each frontier node claims its unvisited in-neighbours.
      for (const int32_t c : frontier_) {
        const size_t first = in_begin_[static_cast<size_t>(c)];
        const size_t last = in_begin_[static_cast<size_t>(c) + 1];
        for (size_t k = first; k < last; ++k) {
          // The visited test goes first: on a spine-leaf most in-links lead
          // back to nodes already reached, and it reads no endpoint up flags.
          const Arc& arc = in_arcs_[k];
          if (dist[static_cast<size_t>(arc.core)] == kUnreachable && topo_->LinkUsable(arc.link)) {
            dist[static_cast<size_t>(arc.core)] = hops;
            next_.push_back(arc.core);
          }
        }
      }
    } else {
      // Bottom-up: each unvisited node looks for one usable out-arc into the
      // frontier and stops at the first. Nodes that top-down levels reached
      // leave the list here.
      size_t kept = 0;
      for (const int32_t c : unvisited_) {
        if (dist[static_cast<size_t>(c)] != kUnreachable) {
          continue;
        }
        const CoreArcs& arcs = core_out_[static_cast<size_t>(c)];
        bool reached = false;
        for (uint32_t i = arcs.first; i < arcs.end && !reached; ++i) {
          const Arc& arc = out_arcs_[i];
          reached = arc.core != kStub && dist[static_cast<size_t>(arc.core)] == hops - 1 &&
                    topo_->LinkUsable(arc.link);
        }
        if (reached) {
          dist[static_cast<size_t>(c)] = hops;
          next_.push_back(c);
        } else {
          unvisited_[kept++] = c;
        }
      }
      unvisited_.resize(kept);
    }
    frontier_arcs = 0;
    for (const int32_t c : next_) {
      frontier_arcs += InDegree(c);
      unvisited_arcs -= OutDegree(c);
    }
    frontier_.swap(next_);
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
    const HopsTo to = DistancesTo(dst);
    int32_t hops = HopsFrom(src, to);
    if (hops != kUnreachable) {
      path.reserve(static_cast<size_t>(hops));
      const std::vector<int32_t>& table = *to.table;
      for (NodeId u = src; u != dst; u = topo_->link(path.back()).dst) {
        // Collect all usable next hops one hop closer. The hop test goes
        // first: it rejects most of a spine's or leaf's out-links. Of the
        // stub heads only dst, at 0 hops, can be closer.
        --hops;
        const int32_t entry = hops - to.extra_hops;
        candidates_.clear();
        for (uint32_t i = out_begin_[static_cast<size_t>(u)];
             i < out_begin_[static_cast<size_t>(u) + 1]; ++i) {
          const Arc& arc = out_arcs_[i];
          const bool closer = arc.core == kStub ? arc.link == to.last_hop && hops == 0
                                                : table[static_cast<size_t>(arc.core)] == entry;
          if (closer && topo_->LinkUsable(arc.link)) {
            candidates_.push_back(arc.link);
          }
        }
        assert(!candidates_.empty());
        const uint64_t h = Mix64(digest ^ (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 17));
        path.push_back(candidates_[h % candidates_.size()]);
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
  return HopsFrom(src, DistancesTo(dst)) != kUnreachable;
}

}  // namespace saba
