// Incremental allocation engine: a persistent fabric state driven by deltas.
//
// A from-scratch solve (BandwidthAllocator::Allocate) rebuilds the whole
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
// the engine and the from-scratch path (AllocateFromScratch, which backs
// BandwidthAllocator::Allocate) decompose the fabric into components and
// solve each with the same code. The solve itself is fixed-point integer
// arithmetic (units.h Bps64 + WeightUnits): rates are exact 128-bit floors of
// rational water levels and every aggregate is a commutative integer sum, so
// a component's rates are a pure function of its flow *multiset* — no flow
// ordering, summation order, or tie-break exists to discipline (DESIGN.md
// §7.1). Incremental and from-scratch rates are therefore bit-identical by
// arithmetic — a property tests/allocation_engine_test.cc enforces under
// randomized churn. InvalidateAll() is the full-recompute fallback (what
// RequestReallocate maps to when the changed ports are unknown): the next
// Recompute() seeds the same BFS from every link that carries a flow.
//
// The engine holds no flow table of its own — only per-link membership and a
// live-flow count. The caller owns the flows (FlowSimulator's id-ordered map
// is the one flow table) and keeps each pointer valid between deltas.
//
// Determinism: the engine introduces no randomness and no dependence on
// memory layout or flow order, so results are reproducible across runs and
// SABA_JOBS settings (DESIGN.md §7).
//
// Component-parallel solving (DESIGN.md §7.3): because components are
// independent subproblems, a solve that touches several of them may fan the
// component solves across a saba::WorkerPool (SetSolveJobs). Scheduling never
// reaches any component's arithmetic — each worker slot solves into its own
// scratch arena and writes only its component's flows — so serial, parallel,
// incremental, and from-scratch solves are all bit-identical;
// tests/allocation_engine_test.cc enforces this under randomized churn at
// solve_jobs ∈ {1, 2, 4}.

#ifndef SRC_NET_ALLOCATION_ENGINE_H_
#define SRC_NET_ALLOCATION_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/allocator.h"
#include "src/net/network.h"

namespace saba {

// Everything one solve needs that is not the flows themselves: the per-worker
// scratch arenas, the partition scratch, and the (lazily created) worker
// pool. Opaque — defined in allocation_engine.cc.
struct EngineSolveState;

// Counters exposed for benchmarks and the co-run report. flows_rerated vs
// flow_events shows how much work the dirty-component expansion saved. The
// parallel_* counters are deterministic functions of (delta stream,
// solve_jobs): both are 0 when solve_jobs == 1, and identical for every
// solve_jobs > 1 (the dispatch decision depends only on the component count
// and the batch's flow count — see kMinParallelBatchFlows).
struct AllocationEngineStats {
  uint64_t recomputes = 0;        // Recompute() calls that had dirty state.
  uint64_t full_recomputes = 0;   // ... of which took the full fallback path.
  uint64_t components_solved = 0; // Connected components re-solved.
  uint64_t flows_rerated = 0;     // Flow rates recomputed, summed over solves.
  uint64_t flows_frozen = 0;      // Flows whose rates were left untouched.
  uint64_t parallel_solves = 0;   // Component batches fanned across the pool.
  uint64_t parallel_components = 0;  // Components solved inside those batches.
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

  // Adaptive serial fallback: a multi-component batch is fanned across the
  // pool only when it re-rates at least this many flows in total. Pool
  // dispatch costs a few microseconds — ~4x the whole solve on the one- and
  // two-component batches typical of steady-state churn (BENCH_micro.json's
  // BM_ChurnIncrementalParallel rows) — while batches past this size (full
  // recomputes, re-clusterings) amortize it easily. The threshold keeps the
  // dispatch decision a pure function of the delta stream and solve_jobs.
  static constexpr size_t kMinParallelBatchFlows = 64;

  // Component-parallel solving (DESIGN.md §7.3): when a solve touches more
  // than one dirty component, fan the component solves across `jobs` worker
  // slots (1, the default, solves serially on the calling thread; the env
  // knob is SABA_SOLVE_JOBS, threaded down by the exp layer). Rates are
  // bit-identical at every setting, so this may be changed at any time, even
  // between Recomputes. When discipline is kPerAppQueues, `per_app_weights`
  // must be safe to call concurrently (a pure read, like the controller's
  // AppWeightAtPort) before setting jobs > 1. jobs must be >= 1.
  void SetSolveJobs(int jobs);
  int solve_jobs() const;

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

  // Solver arenas + worker pool (per-slot scratch; DESIGN.md §7.3).
  std::unique_ptr<EngineSolveState> solve_;

  AllocationEngineStats stats_;
};

// From-scratch allocation under `discipline`: partitions the flows into
// link-sharing components with a union-find (in whatever order they arrive —
// the integer solve is order-independent) and solves each with the same
// component solver the engine uses. This is the oracle the incremental path
// is tested against, and the implementation behind
// BandwidthAllocator::Allocate. Flow ids must be unique. Writes
// ActiveFlow::rate for every flow.
void AllocateFromScratch(const std::vector<ActiveFlow*>& flows, const Network& net,
                         AllocationDiscipline discipline,
                         const PerAppWeightFn& per_app_weights = nullptr);

}  // namespace saba

#endif  // SRC_NET_ALLOCATION_ENGINE_H_
