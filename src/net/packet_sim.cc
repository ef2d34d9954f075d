#include "src/net/packet_sim.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "src/net/units.h"
#include "src/sim/event_scheduler.h"

namespace saba {
namespace {

// Per-flow FIFO inside a VL queue.
struct FlowQueue {
  int flow = -1;
  std::deque<int> packets;  // Packet payloads are just flow ids; store counts.
  double deficit = 0;
};

// One VL queue on an egress port.
struct QueueState {
  std::vector<FlowQueue> flows;
  int occupancy = 0;  // Packets buffered (including one in transmission).
  int reserved = 0;   // Slots promised to in-flight upstream transmissions.
  int granted = 0;    // Slots promised to waiting feeders (credit grants).
  double deficit = 0;
  size_t cursor = 0;  // Intra-queue DRR position.
  // Feeders waiting for a credit: >= 0 is an upstream LinkId, < 0 encodes a
  // source flow as -(flow + 1). Served round robin as slots free — without
  // explicit grants, a fast competitor snatches every freed slot and a
  // cross-traffic flow can starve completely (classic input-buffered switch
  // unfairness; real fabrics arbitrate ingress ports round-robin).
  std::deque<int> waiters;

  FlowQueue& FlowLane(int flow) {
    for (FlowQueue& lane : flows) {
      if (lane.flow == flow) {
        return lane;
      }
    }
    flows.push_back({flow, {}, 0});
    return flows.back();
  }
};

// One egress port (directed link).
struct PortState {
  bool busy = false;
  std::vector<QueueState> queues;
  size_t queue_cursor = 0;
};

struct FlowState {
  std::vector<LinkId> path;
  int sl = 0;
  double intra_weight = 1.0;
  int queue_at_hop(const Network& net, size_t hop) const {
    return net.port(path[hop]).sl_to_queue[static_cast<size_t>(sl)];
  }
  // Remaining packets to inject; -1 => unlimited.
  int64_t to_inject = -1;
  double delivered_bits = 0;
};

class PacketEngine {
 public:
  PacketEngine(Network* network, const std::vector<PacketFlowSpec>& specs,
               const PacketSimConfig& config)
      : network_(network), config_(config) {
    ports_.resize(network_->topology().num_links());
    in_links_.resize(network_->topology().num_nodes());
    kick_cursor_.assign(network_->topology().num_nodes(), 0);
    for (size_t l = 0; l < network_->topology().num_links(); ++l) {
      in_links_[static_cast<size_t>(network_->topology().link(static_cast<LinkId>(l)).dst)]
          .push_back(static_cast<LinkId>(l));
    }
    for (size_t l = 0; l < ports_.size(); ++l) {
      ports_[l].queues.resize(
          static_cast<size_t>(network_->port(static_cast<LinkId>(l)).num_queues));
    }
    flows_.reserve(specs.size());
    for (size_t f = 0; f < specs.size(); ++f) {
      const PacketFlowSpec& spec = specs[f];
      assert(spec.src != spec.dst);
      FlowState flow;
      flow.path = network_->router().Route(spec.src, spec.dst, spec.path_salt);
      flow.sl = spec.sl;
      flow.intra_weight = spec.intra_weight;
      flow.to_inject =
          spec.total_bits < 0
              ? -1
              : static_cast<int64_t>(spec.total_bits / kPacketBits);
      flows_.push_back(std::move(flow));
    }
  }

  PacketSimResult Run() {
    // Prime: inject as much as the first-hop buffers take.
    for (size_t f = 0; f < flows_.size(); ++f) {
      InjectUpTo(static_cast<int>(f));
    }
    for (size_t l = 0; l < ports_.size(); ++l) {
      TryServe(static_cast<LinkId>(l));
    }
    scheduler_.RunUntil(config_.horizon_seconds);

    PacketSimResult result;
    for (const FlowState& flow : flows_) {
      result.delivered_bits.push_back(flow.delivered_bits);
    }
    for (const PortState& port : ports_) {
      for (const QueueState& queue : port.queues) {
        result.packets_in_flight += queue.occupancy;
      }
    }
    return result;
  }

 private:
  // Hop index of `link` on `flow`'s path.
  size_t HopIndex(int flow, LinkId link) const {
    const auto& path = flows_[static_cast<size_t>(flow)].path;
    for (size_t h = 0; h < path.size(); ++h) {
      if (path[h] == link) {
        return h;
      }
    }
    assert(false && "link not on flow path");
    return 0;
  }

  QueueState& QueueOf(int flow, size_t hop) {
    const FlowState& state = flows_[static_cast<size_t>(flow)];
    const LinkId link = state.path[hop];
    const int q = state.queue_at_hop(*network_, hop);
    return ports_[static_cast<size_t>(link)].queues[static_cast<size_t>(q)];
  }

  bool HasSpace(const QueueState& queue) const {
    return queue.occupancy + queue.reserved + queue.granted < config_.buffer_packets;
  }

  // Registers `waiter` for a credit on `queue` (deduplicated).
  void AwaitCredit(QueueState& queue, int waiter) {
    for (int w : queue.waiters) {
      if (w == waiter) {
        return;
      }
    }
    queue.waiters.push_back(waiter);
  }

  // Credit grants held by upstream links / sources, keyed by (queue, waiter).
  // Small and transient: linear scan.
  struct Grant {
    const QueueState* queue;
    int waiter;
    int count;
  };
  std::vector<Grant> grants_;

  int& GrantCount(const QueueState& queue, int waiter) {
    for (Grant& grant : grants_) {
      if (grant.queue == &queue && grant.waiter == waiter) {
        return grant.count;
      }
    }
    grants_.push_back({&queue, waiter, 0});
    return grants_.back().count;
  }

  bool HasGrant(const QueueState& queue, int waiter) {
    for (const Grant& grant : grants_) {
      if (grant.queue == &queue && grant.waiter == waiter && grant.count > 0) {
        return true;
      }
    }
    return false;
  }

  // Keeps the first-hop queue of `flow` full while budget remains.
  void InjectUpTo(int flow) {
    FlowState& state = flows_[static_cast<size_t>(flow)];
    QueueState& queue = QueueOf(flow, 0);
    while (state.to_inject != 0) {
      const int source_waiter = -(flow + 1);
      if (HasGrant(queue, source_waiter)) {
        GrantCount(queue, source_waiter) -= 1;
        queue.granted -= 1;
      } else if (!HasSpace(queue)) {
        AwaitCredit(queue, source_waiter);
        return;
      }
      queue.FlowLane(flow).packets.push_back(flow);
      queue.occupancy += 1;
      if (state.to_inject > 0) {
        --state.to_inject;
      }
    }
  }

  // True if the head packet of `flow` at `hop` could be transmitted now:
  // final hop, free downstream space, or a credit granted to this link. A
  // blocked head registers as a credit waiter.
  bool Eligible(int flow, size_t hop) {
    const FlowState& state = flows_[static_cast<size_t>(flow)];
    if (hop + 1 >= state.path.size()) {
      return true;
    }
    QueueState& next = QueueOf(flow, hop + 1);
    if (HasSpace(next) || HasGrant(next, state.path[hop])) {
      return true;
    }
    AwaitCredit(next, state.path[hop]);
    return false;
  }

  // Deficit-round-robin selection and transmission start for a port. One
  // packet per call: the current queue keeps serving while its banked
  // deficit lasts; quanta are granted when the round-robin pointer *enters*
  // a queue, so weights translate into packets-per-round exactly.
  void TryServe(LinkId link) {
    PortState& port = ports_[static_cast<size_t>(link)];
    if (port.busy) {
      return;
    }
    const PortConfig& config = network_->port(link);
    const size_t num_queues = port.queues.size();
    double min_weight = config.queue_weights[0];
    for (double w : config.queue_weights) {
      min_weight = std::min(min_weight, w);
    }

    auto queue_eligible = [&](QueueState& queue) {
      for (const FlowQueue& lane : queue.flows) {
        if (!lane.packets.empty() && Eligible(lane.flow, HopIndex(lane.flow, link))) {
          return true;
        }
      }
      return false;
    };

    // Each queue is entered at most twice per call (once with a fresh
    // quantum); the +1 covers the initial state.
    for (size_t attempt = 0; attempt < 2 * num_queues + 1; ++attempt) {
      QueueState& queue = port.queues[port.queue_cursor];
      if (queue_eligible(queue) && queue.deficit >= kPacketBits) {
        // Intra-queue DRR: grant intra quanta until some eligible lane can
        // send (bounded by 1/min_intra_weight passes).
        for (int pass = 0; pass < 16; ++pass) {
          const size_t lanes = queue.flows.size();
          const size_t start = queue.cursor;
          for (size_t lstep = 0; lstep < lanes; ++lstep) {
            const size_t idx = (start + lstep) % lanes;
            FlowQueue& lane = queue.flows[idx];
            if (lane.packets.empty() ||
                !Eligible(lane.flow, HopIndex(lane.flow, link))) {
              continue;
            }
            lane.deficit +=
                flows_[static_cast<size_t>(lane.flow)].intra_weight * kPacketBits;
            if (lane.deficit >= kPacketBits) {
              lane.deficit -= kPacketBits;
              queue.deficit -= kPacketBits;
              queue.cursor = (idx + 1) % lanes;
              StartTransmission(link, port.queue_cursor, idx);
              return;
            }
          }
          queue.cursor = (start + 1) % lanes;
        }
        assert(false && "an eligible lane must be able to send");
      }
      // Leave this queue: ineligible queues forfeit their bank (work
      // conservation); eligible-but-exhausted queues keep the remainder.
      if (!queue_eligible(queue)) {
        queue.deficit = 0;
      }
      port.queue_cursor = (port.queue_cursor + 1) % num_queues;
      QueueState& next = port.queues[port.queue_cursor];
      if (queue_eligible(next)) {
        next.deficit = std::min(
            next.deficit + config.queue_weights[port.queue_cursor] / min_weight *
                               kPacketBits,
            2.0 * config.queue_weights[port.queue_cursor] / min_weight * kPacketBits);
      } else if (attempt >= num_queues) {
        // A full round found nothing eligible anywhere: idle until a kick.
        bool any = false;
        for (QueueState& candidate : port.queues) {
          any = any || queue_eligible(candidate);
        }
        if (!any) {
          return;
        }
      }
    }
  }

  void StartTransmission(LinkId link, size_t q, size_t lane_index) {
    PortState& port = ports_[static_cast<size_t>(link)];
    QueueState& queue = port.queues[q];
    FlowQueue& lane = queue.flows[lane_index];
    const int flow = lane.packets.front();
    lane.packets.pop_front();
    port.busy = true;

    const size_t hop = HopIndex(flow, link);
    const bool final_hop = hop + 1 >= flows_[static_cast<size_t>(flow)].path.size();
    if (!final_hop) {
      QueueState& next = QueueOf(flow, hop + 1);
      // Consume a held grant first; otherwise take free space.
      if (HasGrant(next, link)) {
        GrantCount(next, link) -= 1;
        next.granted -= 1;
      }
      next.reserved += 1;  // Credit taken downstream.
    }
    const double serialization =
        kPacketBits / network_->topology().link(link).capacity_bps;
    scheduler_.ScheduleAfter(serialization, [this, link, q, flow, hop, final_hop] {
      FinishTransmission(link, q, flow, hop, final_hop);
    });
  }

  void FinishTransmission(LinkId link, size_t q, int flow, size_t hop, bool final_hop) {
    PortState& port = ports_[static_cast<size_t>(link)];
    QueueState& queue = port.queues[q];
    queue.occupancy -= 1;
    port.busy = false;

    // The freed slot goes to the next credit waiter, if any.
    if (!queue.waiters.empty()) {
      const int waiter = queue.waiters.front();
      queue.waiters.pop_front();
      GrantCount(queue, waiter) += 1;
      queue.granted += 1;
      if (waiter >= 0) {
        TryServe(static_cast<LinkId>(waiter));
      } else {
        InjectUpTo(-waiter - 1);
        TryServe(flows_[static_cast<size_t>(-waiter - 1)].path.front());
      }
    }

    if (final_hop) {
      flows_[static_cast<size_t>(flow)].delivered_bits += kPacketBits;
    } else {
      QueueState& next = QueueOf(flow, hop + 1);
      next.reserved -= 1;
      next.occupancy += 1;
      next.FlowLane(flow).packets.push_back(flow);
      TryServe(flows_[static_cast<size_t>(flow)].path[hop + 1]);
    }

    // A slot freed in this queue: sources feeding this port's first hops may
    // inject, and upstream ports blocked on credit may now proceed.
    KickFeeders(link);
    TryServe(link);
  }

  // Wakes everything that might have been waiting for space at `link`. The
  // upstream kick order rotates per node so a freed credit is not always
  // granted to the same feeder (real arbiters round-robin ingress ports).
  void KickFeeders(LinkId link) {
    const NodeId node = network_->topology().link(link).src;
    for (size_t f = 0; f < flows_.size(); ++f) {
      if (flows_[f].path.front() == link) {
        InjectUpTo(static_cast<int>(f));
      }
    }
    const auto& feeders = in_links_[static_cast<size_t>(node)];
    if (!feeders.empty()) {
      size_t& cursor = kick_cursor_[static_cast<size_t>(node)];
      cursor = (cursor + 1) % feeders.size();
      for (size_t step = 0; step < feeders.size(); ++step) {
        TryServe(feeders[(cursor + step) % feeders.size()]);
      }
    }
    TryServe(link);
  }

  Network* network_;
  PacketSimConfig config_;
  EventScheduler scheduler_;
  std::vector<PortState> ports_;
  std::vector<FlowState> flows_;
  std::vector<std::vector<LinkId>> in_links_;
  std::vector<size_t> kick_cursor_;
};

}  // namespace

PacketSimResult RunPacketSim(Network* network, const std::vector<PacketFlowSpec>& flows,
                             const PacketSimConfig& config) {
  assert(network != nullptr);
  assert(!flows.empty());
  assert(config.buffer_packets >= 2);
  assert(config.horizon_seconds > 0);
  PacketEngine engine(network, flows, config);
  return engine.Run();
}

}  // namespace saba
