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
// fabric into components and solve each with the same code. The solve itself
// is fixed-point integer arithmetic (units.h Bps64 + WeightUnits): rates are
// exact 128-bit floors of rational water levels and every aggregate is a
// commutative integer sum, so a component's rates are a pure function of its
// flow *multiset* — no flow ordering, summation order, or tie-break exists to
// discipline (DESIGN.md §7.1). Incremental and from-scratch rates are
// therefore bit-identical by arithmetic — a property
// tests/allocation_engine_test.cc enforces under randomized churn. InvalidateAll() is the full-recompute fallback (what
// RequestReallocate maps to when the changed ports are unknown): the next
// Recompute() seeds the same BFS from every link that carries a flow.
//
// The engine holds no flow table of its own — only per-link membership and a
// live-flow count. The caller owns the flows (FlowSimulator's id-ordered map
// is the one flow table) and keeps each pointer valid between deltas.
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
  // The PortConfig of `link` changed (queue count, SL map, weights).
  void PortConfigChanged(LinkId link);
  // Something unattributable changed (e.g. a fabric-wide reconfiguration):
  // the next Recompute() marks every link that carries a flow dirty and
  // re-rates every flow.
  void InvalidateAll();

  // Re-rates every flow in a component touched by a dirty link; all other
  // flows keep their previous rate. With no dirty state this is a no-op.
  void Recompute();

  const AllocationEngineStats& stats() const { return stats_; }

 private:
  void MarkLinkDirty(LinkId link);
  // Appends the flows of the component of `seed` reachable through shared
  // links (each exactly once, in BFS discovery order — the solver does not
  // care), marking links visited.
  void CollectComponent(LinkId seed, std::vector<ActiveFlow*>* out);

  const Network* net_;
  const AllocationDiscipline discipline_;
  const PerAppWeightFn per_app_weights_;

  // Per link: flows whose path crosses it (unordered; the solve is
  // order-independent).
  std::vector<std::vector<ActiveFlow*>> link_flows_;
  size_t num_flows_ = 0;  // Registered flows; flows_frozen is counted against it.

  std::vector<LinkId> dirty_links_;
  std::vector<uint8_t> link_dirty_;
  bool all_dirty_ = false;

  // Recompute() scratch, persistent to avoid reallocation.
  std::vector<uint8_t> link_visited_;
  std::vector<LinkId> visited_scratch_;
  std::vector<LinkId> bfs_queue_;
  std::vector<ActiveFlow*> component_;

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
