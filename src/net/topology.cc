#include "src/net/topology.h"

#include <cassert>

namespace saba {

NodeId Topology::AddNode(NodeKind kind) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({kind});
  out_links_.emplace_back();
  return id;
}

LinkId Topology::AddLink(NodeId src, NodeId dst, Bps64 capacity_bps) {
  assert(src >= 0 && static_cast<size_t>(src) < nodes_.size());
  assert(dst >= 0 && static_cast<size_t>(dst) < nodes_.size());
  assert(src != dst);
  assert(capacity_bps > 0);
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back({src, dst, capacity_bps});
  out_links_[static_cast<size_t>(src)].push_back(id);
  return id;
}

LinkId Topology::AddDuplexLink(NodeId a, NodeId b, Bps64 capacity_bps) {
  const LinkId forward = AddLink(a, b, capacity_bps);
  AddLink(b, a, capacity_bps);
  return forward;
}

void Topology::SetLinkCapacity(LinkId id, Bps64 capacity_bps) {
  assert(id >= 0 && static_cast<size_t>(id) < links_.size());
  assert(capacity_bps > 0);
  links_[static_cast<size_t>(id)].capacity_bps = capacity_bps;
}

void Topology::SetLinkUp(LinkId id, bool up) {
  assert(id >= 0 && static_cast<size_t>(id) < links_.size());
  Link& l = links_[static_cast<size_t>(id)];
  if (l.up != up) {
    l.up = up;
    ++epoch_;
  }
}

void Topology::SetNodeUp(NodeId id, bool up) {
  assert(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  Node& n = nodes_[static_cast<size_t>(id)];
  if (n.up != up) {
    n.up = up;
    ++epoch_;
  }
}

LinkId Topology::FindLink(NodeId src, NodeId dst) const {
  for (LinkId id : out_links_[static_cast<size_t>(src)]) {
    if (links_[static_cast<size_t>(id)].dst == dst) {
      return id;
    }
  }
  return kInvalidLink;
}

std::vector<NodeId> Topology::Hosts() const {
  std::vector<NodeId> hosts;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kHost) {
      hosts.push_back(static_cast<NodeId>(i));
    }
  }
  return hosts;
}

std::vector<NodeId> Topology::Switches() const {
  std::vector<NodeId> switches;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (IsSwitch(nodes_[i].kind)) {
      switches.push_back(static_cast<NodeId>(i));
    }
  }
  return switches;
}

Topology BuildSingleSwitchStar(int num_hosts, Bps64 capacity_bps) {
  assert(num_hosts >= 2);
  Topology topo;
  std::vector<NodeId> hosts;
  hosts.reserve(static_cast<size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) {
    hosts.push_back(topo.AddNode(NodeKind::kHost));
  }
  const NodeId sw = topo.AddNode(NodeKind::kSwitch);
  for (NodeId h : hosts) {
    topo.AddDuplexLink(h, sw, capacity_bps);
  }
  return topo;
}

Topology BuildSpineLeaf(const SpineLeafParams& p) {
  assert(p.num_pods > 0);
  assert(p.num_tor % p.num_pods == 0 && "ToRs must partition evenly into pods");
  assert(p.num_leaf % p.num_pods == 0 && "leaves must partition evenly into pods");
  Topology topo;

  const int num_hosts = p.num_tor * p.hosts_per_tor;
  for (int h = 0; h < num_hosts; ++h) {
    topo.AddNode(NodeKind::kHost);
  }
  std::vector<NodeId> tors;
  tors.reserve(static_cast<size_t>(p.num_tor));
  for (int t = 0; t < p.num_tor; ++t) {
    tors.push_back(topo.AddNode(NodeKind::kTorSwitch));
  }
  std::vector<NodeId> leaves;
  leaves.reserve(static_cast<size_t>(p.num_leaf));
  for (int l = 0; l < p.num_leaf; ++l) {
    leaves.push_back(topo.AddNode(NodeKind::kLeafSwitch));
  }
  std::vector<NodeId> spines;
  spines.reserve(static_cast<size_t>(p.num_spine));
  for (int s = 0; s < p.num_spine; ++s) {
    spines.push_back(topo.AddNode(NodeKind::kSpineSwitch));
  }

  // Hosts to their ToR.
  for (int h = 0; h < num_hosts; ++h) {
    topo.AddDuplexLink(static_cast<NodeId>(h), tors[static_cast<size_t>(h / p.hosts_per_tor)],
                       p.host_link_bps);
  }
  // ToR to every leaf of its pod.
  const int tors_per_pod = p.num_tor / p.num_pods;
  const int leaves_per_pod = p.num_leaf / p.num_pods;
  for (int t = 0; t < p.num_tor; ++t) {
    const int pod = t / tors_per_pod;
    for (int l = 0; l < leaves_per_pod; ++l) {
      topo.AddDuplexLink(tors[static_cast<size_t>(t)],
                         leaves[static_cast<size_t>(pod * leaves_per_pod + l)], p.tor_leaf_bps);
    }
  }
  // Every leaf to every spine.
  for (int l = 0; l < p.num_leaf; ++l) {
    for (int s = 0; s < p.num_spine; ++s) {
      topo.AddDuplexLink(leaves[static_cast<size_t>(l)], spines[static_cast<size_t>(s)],
                         p.leaf_spine_bps);
    }
  }
  return topo;
}

Topology BuildFatTree(const FatTreeParams& p) {
  assert(p.k >= 2 && p.k % 2 == 0 && "fat-tree arity must be even");
  const int k = p.k;
  const int half = k / 2;
  const int num_hosts = k * k * k / 4;
  const int switches_per_tier = k * half;  // k pods, k/2 edge (and agg) each.
  Topology topo;

  for (int h = 0; h < num_hosts; ++h) {
    topo.AddNode(NodeKind::kHost);
  }
  std::vector<NodeId> edges;
  edges.reserve(static_cast<size_t>(switches_per_tier));
  for (int e = 0; e < switches_per_tier; ++e) {
    edges.push_back(topo.AddNode(NodeKind::kTorSwitch));
  }
  std::vector<NodeId> aggs;
  aggs.reserve(static_cast<size_t>(switches_per_tier));
  for (int a = 0; a < switches_per_tier; ++a) {
    aggs.push_back(topo.AddNode(NodeKind::kLeafSwitch));
  }
  std::vector<NodeId> cores;
  cores.reserve(static_cast<size_t>(half * half));
  for (int c = 0; c < half * half; ++c) {
    cores.push_back(topo.AddNode(NodeKind::kSpineSwitch));
  }

  // Host h sits under edge switch h / (k/2).
  for (int h = 0; h < num_hosts; ++h) {
    topo.AddDuplexLink(static_cast<NodeId>(h), edges[static_cast<size_t>(h / half)],
                       p.host_link_bps);
  }
  // Within each pod: full edge x aggregation mesh.
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        topo.AddDuplexLink(edges[static_cast<size_t>(pod * half + e)],
                           aggs[static_cast<size_t>(pod * half + a)], p.edge_agg_bps);
      }
    }
  }
  // Core c = a*(k/2)+j connects to aggregation switch #a of every pod, so each
  // aggregation switch reaches k/2 cores and each core reaches all k pods.
  for (int a = 0; a < half; ++a) {
    for (int j = 0; j < half; ++j) {
      const NodeId core = cores[static_cast<size_t>(a * half + j)];
      for (int pod = 0; pod < k; ++pod) {
        topo.AddDuplexLink(aggs[static_cast<size_t>(pod * half + a)], core, p.agg_core_bps);
      }
    }
  }
  return topo;
}

}  // namespace saba
