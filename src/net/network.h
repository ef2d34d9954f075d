// The fabric: topology + per-port queue configuration + congestion model.
//
// Every directed link models an egress port. A port has a configurable number
// of queues (InfiniBand Virtual Lanes), a Service-Level-to-queue map, and WFQ
// weights — exactly the knobs Saba's controller programs (paper §5.2, §7.2).
// Strict priority is not a port setting: it is an AllocationDiscipline
// (allocator.h), chosen per simulation. Ports on NICs (host egress links)
// carry the same structure, as InfiniBand NICs also implement VLs.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <array>
#include <cassert>
#include <memory>
#include <vector>

#include "src/net/routing.h"
#include "src/net/topology.h"

namespace saba {

// InfiniBand supports 16 Service Levels (§5.3, §7.2).
inline constexpr int kNumServiceLevels = 16;

// Per-egress-port configuration. Defaults put every SL in queue 0 with weight
// 1 — i.e. a single FIFO shared by everyone, which is the baseline setup.
struct PortConfig {
  int num_queues = 1;
  std::array<int, kNumServiceLevels> sl_to_queue{};  // Zero-initialized: all SLs -> queue 0.
  std::vector<double> queue_weights = {1.0};
};

// Models the efficiency of the congestion-control protocol within one queue.
//
// The paper's baseline (InfiniBand FECN) only *approximates* max-min fairness
// and loses throughput under contention between unrelated applications
// (§8.1; see also the authors' ISPASS'20 switch study). We model this as a
// per-queue capacity efficiency that decays with the number of *distinct
// applications* whose flows share the queue at a link: homogeneous, paced
// flows from one application coexist well, heterogeneous mixes trigger FECN
// over-throttling. Saba inherits the same model — its benefit here comes
// solely from separating applications into queues, which is faithful to the
// deployed system (Saba does not change the congestion protocol, §5.2).
class CongestionModel {
 public:
  virtual ~CongestionModel() = default;
  // Fraction of the queue's bandwidth share actually attainable when
  // `distinct_apps` applications share the queue on a link. In [0, 1].
  virtual double QueueEfficiency(size_t distinct_apps) const = 0;
};

// Perfect protocol: full efficiency always (used for ideal max-min, Homa,
// Sincronia — all idealized in the paper's simulations).
class IdealCongestionModel : public CongestionModel {
 public:
  double QueueEfficiency(size_t) const override { return 1.0; }
};

// FECN-approximation: efficiency 1/(1 + gamma * ln^2(n) * (1 - 1/n)) for
// n >= 1 distinct applications sharing a queue. The collapse is superlinear
// in heterogeneity: two similar applications sharing a VL coexist almost
// losslessly (the testbed runs 16 jobs over 8 VLs and still wins big), while
// a single FIFO mixing a dozen applications loses half its goodput — the
// congestion-spreading regime the authors measured on a real InfiniBand
// switch (ISPASS'20). gamma = 0 reduces to ideal; the default reproduces the
// paper's baseline-vs-ideal-max-min gap (see EXPERIMENTS.md).
class FecnCongestionModel : public CongestionModel {
 public:
  explicit FecnCongestionModel(double gamma = 0.30) : gamma_(gamma) { assert(gamma >= 0); }
  double QueueEfficiency(size_t distinct_apps) const override;

 private:
  double gamma_;
};

// Topology + per-port configs + router + congestion model, owned together.
// Not copyable and not movable: the router points at this object's topology.
class Network {
 public:
  // Every port starts with `default_queues` queues, all SLs mapped to queue
  // 0, equal weights, and an ideal congestion model.
  Network(Topology topology, int default_queues = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }

  Router& router() { return router_; }

  // Contract with the allocation engine, which keeps each flow's queue and
  // each queue's weight from the moment its delta arrived: a write through
  // port() (or SetQueueCountEverywhere / MapSlToQueueEverywhere), a change to
  // the per-app weights an allocator reads, or SetCongestionModel must reach
  // every FlowSimulator over this network through NotifyLinkChanged (one port)
  // or RequestReallocate (unknown ports) before its next reallocation.
  // Configuring before the first flow starts needs no notification.
  PortConfig& port(LinkId link) { return ports_[static_cast<size_t>(link)]; }
  const PortConfig& port(LinkId link) const { return ports_[static_cast<size_t>(link)]; }

  // Reconfigures the queue count on every port (weights reset to equal, SL
  // map preserved modulo clamping to the new queue count).
  void SetQueueCountEverywhere(int num_queues);

  // Sets the SL->queue map entry on every port.
  void MapSlToQueueEverywhere(int sl, int queue);

  // Mid-run, follow with RequestReallocate (see the contract at port()).
  void SetCongestionModel(std::unique_ptr<CongestionModel> model);
  const CongestionModel& congestion() const { return *congestion_; }

 private:
  Topology topology_;
  Router router_;
  std::vector<PortConfig> ports_;
  std::unique_ptr<CongestionModel> congestion_;
};

}  // namespace saba

#endif  // SRC_NET_NETWORK_H_
