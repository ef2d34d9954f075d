// Event-driven fluid flow simulator.
//
// Flows are byte-counted transfers between hosts. Whenever the active flow
// set, the switch configuration, or flow priorities change, the simulator
// re-runs the bandwidth allocator and re-plans every flow's completion event.
// Between events, each flow drains at its allocated rate. Re-allocations are
// coalesced: any number of changes at the same simulated instant trigger a
// single allocator run.
//
// Allocation is incremental: the simulator streams flow/port deltas into a
// persistent AllocationEngine (built from the allocator's discipline and
// weights) and each coalesced reallocation re-solves only the link-sharing
// components those deltas touched (see allocation_engine.h; DESIGN.md §7.1
// "Incremental allocation"). The engine's rates are bit-identical to a
// from-scratch run. The simulator's id-ordered map is the only flow table; the
// engine keeps each flow's queue at every path link, and the per-queue sums,
// pointing into it. Hence a change to a port, a per-app weight or the
// congestion model must be announced through NotifyLinkChanged or
// RequestReallocate before the next reallocation (network.h).

#ifndef SRC_NET_FLOW_SIMULATOR_H_
#define SRC_NET_FLOW_SIMULATOR_H_

#include <cassert>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/net/allocation_engine.h"
#include "src/net/allocator.h"
#include "src/net/network.h"
#include "src/sim/event_scheduler.h"

namespace saba {

class FlowSimulator {
 public:
  using CompletionCallback = std::function<void(FlowId)>;

  // `scheduler` and `network` must outlive the simulator; `allocator` is
  // read once, to build the engine.
  FlowSimulator(EventScheduler* scheduler, Network* network, const BandwidthAllocator* allocator);

  FlowSimulator(const FlowSimulator&) = delete;
  FlowSimulator& operator=(const FlowSimulator&) = delete;

  // Starts a transfer of `bits` from `src` to `dst` (distinct hosts) with
  // service level `sl`. `path_salt` pins the ECMP path (same salt -> same
  // path). `on_complete` fires when the last bit drains; it may start new
  // flows. `intra_weight` sets the flow's relative share within its queue
  // (see ActiveFlow::intra_weight). Returns the flow id.
  FlowId StartFlow(AppId app, NodeId src, NodeId dst, double bits, int sl, uint64_t path_salt,
                   CompletionCallback on_complete, double intra_weight = 1.0);

  // Removes a flow before completion (no callback fires).
  void CancelFlow(FlowId id);

  // Changes the strict-priority class of a flow (used by the Homa-like and
  // Sincronia-like policies). Triggers reallocation, also when called from
  // the pre-allocate hook: see SetPreAllocateHook for the echo that causes.
  void SetFlowPriority(FlowId id, int priority);

  // Changes the SL of every active flow of an application (used when a
  // controller re-clusters PLs). Triggers reallocation.
  void SetAppServiceLevel(AppId app, int sl);

  // Notifies the simulator that port configurations, per-app weights or the
  // congestion model changed; rates are recomputed at the current instant.
  // The changes are unattributed, so this invalidates the whole fabric (the
  // engine re-keys every flow and recomputes in full).
  void RequestReallocate();

  // Notifies the simulator that one link changed in place: its capacity (e.g.
  // a degradation scenario scaled it) or its port configuration. Routing is
  // untouched, so this streams a targeted PortConfigChanged delta, which
  // re-keys that port's flows, instead of invalidating the whole fabric.
  void NotifyLinkChanged(LinkId link);

  // Re-pins live flows after a topology up/down mutation (SetLinkUp /
  // SetNodeUp). Only flows whose pinned path now crosses an unusable link are
  // re-resolved — like InfiniBand connections, established paths never move
  // on restores — each as a FlowRemoved/FlowAdded delta pair so the engine's
  // incremental state stays bit-identical to a from-scratch solve. Every
  // affected flow's endpoints must still be reachable (asserted): failure
  // scenarios may degrade the fabric, not partition live flows.
  void HandleTopologyChange();

  // Installed hook runs immediately before each allocator invocation — the
  // Homa-like policy refreshes size-based priorities here, the Sincronia-like
  // policy its BSSI order. A priority the hook changes echoes: MarkDirty's
  // event clears dirty_ before it calls Reallocate, so SetFlowPriority inside
  // the hook schedules a second Reallocate at the same instant. That run
  // re-syncs every flow, re-runs the hook and the completion scan, and
  // usually solves nothing. Dropping it moves allocator_runs() and the
  // engine counters, which the benchmark's digests pin.
  void SetPreAllocateHook(std::function<void()> hook) { pre_allocate_hook_ = std::move(hook); }

  // No-op kept only because perfbench/src/corun_cells.cc still calls it; the
  // engine always solves serially. Deleted together with that call in the
  // next change to the benchmark.
  void SetSolveJobs([[maybe_unused]] int jobs) { assert(jobs == 1); }

  // Quantizes flow-completion event times up to the next multiple of
  // `quantum` seconds (0 = exact, the default). Large co-runs use a coarse
  // grid (~0.25 s on minutes-long jobs) so that near-simultaneous completions
  // coalesce into a single reallocation: the error is bounded by the quantum
  // per stage, and the reallocation count drops by an order of magnitude.
  void SetCompletionQuantum(double quantum) {
    assert(quantum >= 0);
    completion_quantum_ = quantum;
  }

  // --- Introspection -------------------------------------------------------

  // Current rate of a flow in bits/s; 0 if unknown.
  double FlowRate(FlowId id) const;

  // Remaining bits of a flow at the current instant; 0 if unknown.
  double FlowRemainingBits(FlowId id) const;

  // Sum of rates of active flows whose source is `host` (egress throughput),
  // added in ascending flow-id order. O(active flows) per call.
  double HostEgressRate(NodeId host) const;

  size_t active_flow_count() const { return flows_.size(); }
  uint64_t completed_flow_count() const { return completed_; }
  uint64_t cancelled_flow_count() const { return cancelled_; }
  uint64_t allocator_runs() const { return allocator_runs_; }
  // Flows re-pinned by HandleTopologyChange over the simulator's lifetime.
  uint64_t rerouted_flow_count() const { return rerouted_; }

  // Incremental-allocation counters (how much work the dirty-component
  // expansion saved); see AllocationEngineStats.
  const AllocationEngineStats& engine_stats() const { return engine_.stats(); }

  // Visits every active flow in ascending id order without copying. Policies
  // may change flow attributes via SetFlowPriority / SetAppServiceLevel
  // during the visit, but must not start or cancel flows.
  template <typename Fn>
  void ForEachActiveFlow(Fn&& fn) const {
    for (const auto& [id, record] : flows_) {
      fn(record.flow);
    }
  }

  EventScheduler* scheduler() { return scheduler_; }
  Network* network() { return network_; }

 private:
  struct FlowRecord {
    ActiveFlow flow;  // flow.path points at path_storage below.
    CompletionCallback on_complete;
    SimTime last_update = 0;
    // Endpoints and salt are kept so HandleTopologyChange can re-resolve the
    // path; the simulator owns its own copy of each route (rather than
    // pointing into the router's cache) because topology mutations invalidate
    // cached references mid-run (routing.h contract).
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    uint64_t path_salt = 0;
    std::vector<LinkId> path_storage;
  };

  // Applies elapsed drain to `record` up to Now().
  void SyncFlow(FlowRecord* record);

  // Recomputes dirty rates and re-plans the next-completion event.
  void Reallocate();

  // Schedules a coalesced reallocation at the current instant.
  void MarkDirty();

  // Fires at the earliest planned completion: drains and completes every
  // flow that has reached zero. One event serves the whole flow set — the
  // alternative (an event per flow, re-planned on every reallocation) floods
  // the scheduler heap with cancelled entries.
  void OnCompletionTick();

  EventScheduler* scheduler_;
  Network* network_;
  AllocationEngine engine_;
  std::function<void()> pre_allocate_hook_;

  // The flow table, ordered by flow id: completion extraction, host-egress
  // accumulation, the service-level sweep and ForEachActiveFlow all iterate
  // it, so ascending-id iteration keeps callback order and float-sum order
  // canonical across platforms (DESIGN.md §7.1). Map nodes never move, which
  // keeps FlowRecord addresses stable: ActiveFlow::path points into the
  // record itself, and the engine holds the ActiveFlow pointer between
  // deltas. OnCompletionTick extract()s finished nodes, so a record outlives
  // its table entry until its callback has run. HandleTopologyChange also
  // relies on this order: broken flows re-pin in ascending id order, which
  // keeps the delta stream canonical (§7.4).
  std::map<FlowId, FlowRecord> flows_;
  FlowId next_flow_id_ = 1;
  EventHandle next_completion_event_;
  SimTime next_completion_time_ = kNeverTime;
  double completion_quantum_ = 0;
  bool dirty_ = false;
  bool reallocating_ = false;
  uint64_t completed_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t allocator_runs_ = 0;
  uint64_t rerouted_ = 0;
};

}  // namespace saba

#endif  // SRC_NET_FLOW_SIMULATOR_H_
