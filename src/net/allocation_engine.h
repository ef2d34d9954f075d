// Incremental allocation engine: a persistent fabric state driven by deltas.
//
// A from-scratch solve (AllocateFromScratch) rebuilds the whole
// flow -> queue -> link resource graph on every call, even though a typical
// simulator event (one flow starting or completing) perturbs only the links on
// that flow's path. AllocationEngine keeps the graph alive between events:
// callers stream deltas (FlowAdded / FlowRemoved / FlowQueueChanged /
// PortConfigChanged), the engine tracks a dirty-link set, and Recompute()
// expands the dirty links to the affected connected components of the
// link-sharing graph and re-runs progressive filling only over those
// components. Flows outside the dirty components keep their previous rates.
//
// Exactness, not approximation: two flows can influence each other's rates
// only through a chain of shared links, so a connected component of the
// link <-> flow sharing graph is a self-contained allocation subproblem. Both
// the engine and the from-scratch path (AllocateFromScratch) decompose the
// fabric into components and solve each with the same fill. The solve itself
// is fixed-point integer arithmetic (units.h Bps64 + WeightUnits): rates are
// exact 128-bit floors of rational water levels and every aggregate is a
// commutative integer sum, so a component's rates are a pure function of its
// flow *multiset* — no flow ordering, summation order, or tie-break exists to
// discipline (DESIGN.md §7.1). Incremental and from-scratch rates are
// therefore bit-identical by arithmetic — a property
// tests/allocation_engine_test.cc enforces under randomized churn.
//
// Kept state: the engine holds the nested disciplines' resource graph, not
// just membership. Every (link, queue) that carries flows is a resource with
// its queue weight, member flows, intra-weight sum, distinct apps and cached
// congestion efficiency; every flow has a row naming its resource at each
// path link. The deltas keep both current: port configuration, the per-app
// weights and the congestion model are read when the engine applies a delta
// (InvalidateAll's at the next Recompute()), never inside a component solve.
// A component solve only renumbers the graph into the solver's arrays; of
// Network it reads link capacities. Hence the contract (network.h): a change
// to a port, a per-app weight or the congestion model must reach the engine
// as PortConfigChanged or InvalidateAll before the next Recompute().
// InvalidateAll() is the full-recompute fallback (what
// RequestReallocate maps to when the changed ports are unknown): the next
// Recompute() re-keys every flow and seeds the same BFS from every link that
// carries one. AllocateFromScratch shares none of this state; it builds its
// graph from Network on every call and stays the independent oracle.
//
// The caller owns the flows (FlowSimulator's id-ordered map is the one flow
// table) and keeps each pointer valid between deltas.
//
// Determinism: the engine introduces no randomness and no dependence on
// memory layout or flow order, so results are reproducible across runs and
// SABA_JOBS settings (DESIGN.md §7). Dirty components are solved one after
// another on the calling thread; parallelism lives a layer up, in the
// SweepRunner cells and the controller's sharded flush.

#ifndef SRC_NET_ALLOCATION_ENGINE_H_
#define SRC_NET_ALLOCATION_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/allocator.h"
#include "src/net/network.h"

namespace saba {

// The component solver's scratch arena. Opaque — defined in
// allocation_engine.cc.
struct ComponentScratch;

// Counters exposed for benchmarks and the co-run report. flows_rerated vs
// flow_events shows how much work the dirty-component expansion saved.
struct AllocationEngineStats {
  uint64_t recomputes = 0;        // Recompute() calls that had dirty state.
  uint64_t full_recomputes = 0;   // ... of which took the full fallback path.
  uint64_t components_solved = 0; // Connected components re-solved.
  uint64_t flows_rerated = 0;     // Flow rates recomputed, summed over solves.
  uint64_t flows_frozen = 0;      // Flows whose rates were left untouched.
};

class AllocationEngine {
 public:
  // `net` must outlive the engine; the topology's link count must not change
  // (port *configurations* may, via PortConfigChanged / InvalidateAll).
  // `per_app_weights` is used by kPerAppQueues only (null = unit weights).
  AllocationEngine(const Network* net, AllocationDiscipline discipline,
                   PerAppWeightFn per_app_weights = nullptr);
  ~AllocationEngine();

  AllocationEngine(const AllocationEngine&) = delete;
  AllocationEngine& operator=(const AllocationEngine&) = delete;

  // --- Delta feed ----------------------------------------------------------
  // The flow pointer must stay valid and its path stable until FlowRemoved.
  void FlowAdded(ActiveFlow* flow);
  void FlowRemoved(ActiveFlow* flow);
  // The flow moved queues in place: its sl, priority, or intra_weight
  // changed. (A path change requires FlowRemoved + FlowAdded.)
  void FlowQueueChanged(ActiveFlow* flow);
  // The PortConfig of `link` changed (queue count, SL map, weights), or its
  // capacity did. Re-keys the flows crossing `link` at once.
  void PortConfigChanged(LinkId link);
  // Something unattributable changed (ports, per-app weights or the
  // congestion model): the next Recompute() re-keys every flow, in
  // O(registered flows), and re-rates every flow.
  void InvalidateAll();

  // Re-rates every flow in a component touched by a dirty link; all other
  // flows keep their previous rate. With no dirty state this is a no-op.
  void Recompute();

  const AllocationEngineStats& stats() const { return stats_; }

 private:
  // One (link, queue) that carries flows. Under strict priority a link has one
  // resource (key 0) that only tracks membership.
  struct Resource {
    LinkId link = kInvalidLink;   // kInvalidLink: on the free list.
    int key = 0;                  // Queue index, or the AppId under kPerAppQueues.
    int64_t weight_units = 0;     // The queue's WFQ weight.
    int64_t flow_weight_sum = 0;  // Sum of the members' intra-weight units.
    double efficiency = 1.0;      // QueueEfficiency(apps.size()).
    std::vector<int32_t> flows;   // Member flow slots, unordered.
    std::vector<std::pair<AppId, int32_t>> apps;  // Distinct member apps, each with its count.
  };
  // One path link of a registered flow and the flow's resource there.
  struct Crossing {
    LinkId link = kInvalidLink;
    int32_t resource = -1;
  };
  // A registered flow. Its row of crossings, in path order, is
  // rows_[slot * row_stride_, + path_len).
  struct FlowSlot {
    ActiveFlow* flow = nullptr;  // nullptr: on the free list.
    int64_t weight_units = 0;    // WeightUnits(intra_weight) when last keyed.
    int32_t path_len = 0;
  };

  bool nested() const { return discipline_ != AllocationDiscipline::kStrictPriority; }
  Crossing* Row(int32_t slot) { return &rows_[static_cast<size_t>(slot) * row_stride_]; }
  int32_t FindSlot(const ActiveFlow* flow) const;
  // Adds `slot` to its queue's resource at `link`, creating the resource if
  // the queue carries no flow yet; returns the resource id.
  int32_t Join(int32_t slot, LinkId link);
  // Removes `slot` from `resource`, freeing the resource when it empties.
  void Leave(int32_t slot, int32_t resource);
  void RekeyLink(LinkId link);
  void RekeyAll();

  void MarkLinkDirty(LinkId link);
  // Appends the flows of the component of `seed` reachable through shared
  // links (each exactly once, in BFS discovery order — the solver does not
  // care) to component_ and component_slots_, and its links to bfs_queue_.
  void CollectComponent(LinkId seed);
  // Solves the collected component under a nested discipline from the kept
  // resource graph.
  void SolveKeptComponent();

  const Network* net_;
  const AllocationDiscipline discipline_;
  const PerAppWeightFn per_app_weights_;

  // Per link: the resources at that link (a link carries a flow iff its list
  // is non-empty).
  std::vector<std::vector<int32_t>> link_resources_;
  std::vector<Resource> resources_;
  std::vector<int32_t> free_resources_;
  std::vector<FlowSlot> slots_;
  std::vector<int32_t> free_slots_;
  std::vector<Crossing> rows_;
  size_t row_stride_ = 0;  // The longest registered path so far.
  size_t num_flows_ = 0;   // Registered flows; flows_frozen is counted against it.

  std::vector<LinkId> dirty_links_;
  std::vector<uint8_t> link_dirty_;
  bool all_dirty_ = false;

  // Recompute() scratch, persistent to avoid reallocation.
  std::vector<uint8_t> link_visited_;
  std::vector<LinkId> visited_scratch_;
  std::vector<LinkId> bfs_queue_;
  std::vector<ActiveFlow*> component_;
  std::vector<int32_t> component_slots_;
  std::vector<int32_t> res_local_;  // Per resource: its index in the current solve.
  std::vector<std::pair<int32_t, int32_t>> rekey_;  // RekeyLink's (slot, path index).

  std::unique_ptr<ComponentScratch> scratch_;  // The solver arena.

  AllocationEngineStats stats_;
};

// From-scratch allocation under `discipline`: partitions the flows into
// link-sharing components with a union-find (in whatever order they arrive —
// the integer solve is order-independent) and solves each with the same
// component solver the engine uses. This is the oracle the incremental path
// is tested against and the one from-scratch entry point. All flows must have
// non-empty paths, remaining_bits > 0, and unique ids. Writes ActiveFlow::rate
// for every flow.
void AllocateFromScratch(const std::vector<ActiveFlow*>& flows, const Network& net,
                         AllocationDiscipline discipline,
                         const PerAppWeightFn& per_app_weights = nullptr);

}  // namespace saba

#endif  // SRC_NET_ALLOCATION_ENGINE_H_
