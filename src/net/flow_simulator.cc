#include "src/net/flow_simulator.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "src/sim/log.h"

namespace saba {
namespace {

// Base dust floor in bits. A flow counts as drained when its residue is
// within DustFor(rate) — the floor plus a nanosecond of transmission at the
// flow's current rate, which absorbs the floating-point error of computing
// the completion instant as now + remaining/rate.
constexpr double kCompletionDustBits = 1e-6;

double DustFor(double rate_bps) { return kCompletionDustBits + rate_bps * 1e-9; }

}  // namespace

FlowSimulator::FlowSimulator(EventScheduler* scheduler, Network* network,
                             const BandwidthAllocator* allocator)
    : scheduler_(scheduler),
      network_(network),
      engine_(network, allocator->discipline(), allocator->per_app_weights()) {
  assert(scheduler != nullptr && network != nullptr);
}

FlowId FlowSimulator::StartFlow(AppId app, NodeId src, NodeId dst, double bits, int sl,
                                uint64_t path_salt, CompletionCallback on_complete,
                                double intra_weight) {
  assert(src != dst && "flows must connect distinct hosts");
  assert(bits > 0);
  assert(sl >= 0 && sl < kNumServiceLevels);
  assert(intra_weight > 0);

  const FlowId id = next_flow_id_++;
  // Ids only grow, so the new record always goes at the end of the table.
  FlowRecord& record = flows_.try_emplace(flows_.end(), id)->second;
  record.flow.id = id;
  record.flow.app = app;
  record.flow.sl = sl;
  record.flow.intra_weight = intra_weight;
  record.flow.remaining_bits = bits;
  // The simulator owns a copy of the route: router cache entries are
  // invalidated by topology mutations (routing.h contract), and the engine
  // holds flow.path between deltas. Endpoints + salt stay on the record so a
  // failure can re-resolve the same pinned connection.
  record.src = src;
  record.dst = dst;
  record.path_salt = path_salt;
  record.path_storage = network_->router().Route(src, dst, path_salt);
  record.flow.path = &record.path_storage;
  assert(!record.flow.path->empty() && "flow endpoints must be reachable at start");
  record.on_complete = std::move(on_complete);
  record.last_update = scheduler_->Now();
  engine_.FlowAdded(&record.flow);
  MarkDirty();
  return id;
}

void FlowSimulator::CancelFlow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return;
  }
  engine_.FlowRemoved(&it->second.flow);
  flows_.erase(it);
  ++cancelled_;
  MarkDirty();
}

void FlowSimulator::SetFlowPriority(FlowId id, int priority) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return;
  }
  if (it->second.flow.priority != priority) {
    it->second.flow.priority = priority;
    engine_.FlowQueueChanged(&it->second.flow);
    MarkDirty();
  }
}

void FlowSimulator::SetAppServiceLevel(AppId app, int sl) {
  assert(sl >= 0 && sl < kNumServiceLevels);
  bool changed = false;
  for (auto& [id, record] : flows_) {
    if (record.flow.app == app && record.flow.sl != sl) {
      record.flow.sl = sl;
      engine_.FlowQueueChanged(&record.flow);
      changed = true;
    }
  }
  if (changed) {
    MarkDirty();
  }
}

void FlowSimulator::RequestReallocate() {
  // The caller reconfigured an unknown set of ports; every queue capacity is
  // suspect, so the next solve takes the full-recompute path.
  engine_.InvalidateAll();
  MarkDirty();
}

void FlowSimulator::NotifyLinkChanged(LinkId link) {
  engine_.PortConfigChanged(link);
  MarkDirty();
}

void FlowSimulator::HandleTopologyChange() {
  const Topology& topo = network_->topology();
  Router& router = network_->router();
  // Ascending flow-id order keeps the FlowRemoved/FlowAdded delta stream
  // canonical (see flows_ comment); restores never move pinned flows, so only
  // paths that now cross an unusable link re-resolve.
  for (auto& [id, record] : flows_) {
    bool broken = false;
    for (LinkId l : record.path_storage) {
      if (!topo.LinkUsable(l)) {
        broken = true;
        break;
      }
    }
    if (!broken) {
      continue;
    }
    engine_.FlowRemoved(&record.flow);
    record.path_storage = router.Route(record.src, record.dst, record.path_salt);
    assert(!record.path_storage.empty() &&
           "failure scenarios must keep live flow endpoints connected");
    record.flow.path = &record.path_storage;
    engine_.FlowAdded(&record.flow);
    ++rerouted_;
  }
  // Even with no broken flows, usable capacity may have shifted (e.g. a
  // restored link rejoins its ECMP group); recompute rates at this instant.
  RequestReallocate();
}

double FlowSimulator::FlowRate(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.flow.rate;
}

double FlowSimulator::FlowRemainingBits(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return 0.0;
  }
  const FlowRecord& record = it->second;
  const double elapsed = scheduler_->Now() - record.last_update;
  return std::max(0.0, record.flow.remaining_bits - record.flow.rate * elapsed);
}

double FlowSimulator::HostEgressRate(NodeId host) const {
  assert(host >= 0 && static_cast<size_t>(host) < network_->topology().num_nodes());
  double total = 0.0;
  for (const auto& [id, record] : flows_) {
    if (record.src == host) {
      total += record.flow.rate;
    }
  }
  return total;
}

void FlowSimulator::SyncFlow(FlowRecord* record) {
  const SimTime now = scheduler_->Now();
  const double elapsed = now - record->last_update;
  if (elapsed > 0) {
    record->flow.remaining_bits -= record->flow.rate * elapsed;
    // Keep a dust floor so the allocator precondition (remaining > 0) holds
    // for flows that are completed later in this same instant.
    if (record->flow.remaining_bits < kCompletionDustBits) {
      record->flow.remaining_bits = kCompletionDustBits;
    }
    record->last_update = now;
  }
}

void FlowSimulator::MarkDirty() {
  if (dirty_) {
    return;
  }
  dirty_ = true;
  scheduler_->ScheduleAt(scheduler_->Now(), [this] {
    dirty_ = false;
    Reallocate();
  });
}

void FlowSimulator::Reallocate() {
  assert(!reallocating_ && "reentrant reallocation");
  reallocating_ = true;
  ++allocator_runs_;

  for (auto& [id, record] : flows_) {
    SyncFlow(&record);
  }
  if (pre_allocate_hook_) {
    pre_allocate_hook_();
  }

  engine_.Recompute();

  // Re-plan the single next-completion event at the earliest finish time.
  const SimTime now = scheduler_->Now();
  SimTime next = kNeverTime;
  for (auto& [id, record] : flows_) {
    const double rate = record.flow.rate;
    if (rate > 0) {
      next = std::min(next, now + record.flow.remaining_bits / rate);
    }
  }
  if (next != kNeverTime && completion_quantum_ > 0) {
    // Snap up to the grid so near-simultaneous completions share an event.
    next = std::ceil(next / completion_quantum_) * completion_quantum_;
  }
  if (!TimeAlmostEqual(next, next_completion_time_) || !next_completion_event_.pending()) {
    next_completion_event_.Cancel();
    next_completion_time_ = next;
    if (next != kNeverTime) {
      next_completion_event_ = scheduler_->ScheduleAt(next, [this] { OnCompletionTick(); });
    }
  }
  reallocating_ = false;
}

void FlowSimulator::OnCompletionTick() {
  next_completion_time_ = kNeverTime;
  // Drain everything up to now, then extract the finished flows before any
  // callback runs (callbacks may start new flows; the allocator must never
  // see the finished ones).
  std::vector<decltype(flows_)::node_type> finished;
  for (auto it = flows_.begin(); it != flows_.end();) {
    FlowRecord& record = it->second;
    SyncFlow(&record);
    if (record.flow.remaining_bits <= DustFor(record.flow.rate)) {
      engine_.FlowRemoved(&record.flow);
      finished.push_back(flows_.extract(it++));
    } else {
      ++it;
    }
  }
  completed_ += finished.size();
  MarkDirty();  // Remaining flows need fresh rates and a new tick.
  for (const auto& node : finished) {
    if (node.mapped().on_complete) {
      node.mapped().on_complete(node.key());
    }
  }
}

}  // namespace saba
