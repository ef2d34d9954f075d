#include "src/net/allocation_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "src/sim/worker_pool.h"

namespace saba {

// -----------------------------------------------------------------------------
// Shared allocation core. The fluid WFQ allocation is a *nested* max-min:
//   level 1: each egress port's capacity is split across its backlogged
//            queues in proportion to the configured weights (WFQ);
//   level 2: inside a queue, backlogged flows share the queue's allocation
//            max-min fairly, weighted by ActiveFlow::intra_weight.
//
// We model every (link, queue) pair that carries flows as a *virtual
// resource* with its own capacity, run weighted progressive filling over
// those resources (each flow has ONE scalar weight — its intra weight — so
// the filling is exact weighted max-min over the resources), and then
// redistribute the capacity that under-demanding queues left unused to the
// queues that were actually constrained, iterating toward the
// work-conserving fixed point. A few rounds suffice: each round either finds
// no slack or strictly grows some binding queue's capacity.
//
// All of it is fixed-point integer arithmetic (units.h): capacities and rates
// are Bps64, weights live on the WeightUnits grid, water levels are exact
// rationals, and frozen rates are 128-bit-exact floors. The result is a pure
// function of the *multiset* of flows in a component — no summation order,
// iteration order, or heap tie-break can change a single bit (DESIGN.md
// §7.1). That arithmetic exactness, not ordering discipline, is what makes
// the incremental engine bit-identical to a from-scratch run, and what makes
// component-*parallel* solving exact (DESIGN.md §7.3): a component's solve
// reads only the shared immutable Network and its own flows and scratch
// arena, so fanning components across worker slots cannot change anything.
//
// The scratch types below are file-local implementation details; they live at
// namespace (not anonymous) scope only because EngineSolveState — forward-
// declared in the header so the engine can own one — aggregates them.
// -----------------------------------------------------------------------------

// Working state for one virtual resource (a queue on a link).
struct ResourceWork {
  Bps64 capacity = 0;       // Goodput available to this queue at this link.
  Bps64 remaining = 0;      // Capacity not yet claimed by frozen flows.
  int64_t weight_units = 0; // Configured WFQ weight of the queue (WeightUnits).
  int64_t denom0 = 0;       // Sum of member flows' intra weight units.
  int64_t denom = 0;        // ... restricted to still-active flows (per fill).
  int32_t active0 = 0;      // Member flow count.
  int32_t active = 0;       // Still-active flow count (per fill).
  double efficiency = 1.0;  // Congestion-model efficiency of the queue.
  bool binding = false;     // Some flow froze *at* this resource in the fill.
};

// One lazy min-heap entry: the resource's water level remaining/denom as it
// was when pushed. Levels only rise during a fill, so a popped entry whose
// stored level no longer matches the resource is simply stale — re-push at
// the current level. Exactly one live entry exists per active resource.
struct LevelHeapEntry {
  Bps64 num = 0;      // remaining at push time (>= 0).
  int64_t den = 1;    // denom at push time (> 0).
  int32_t resource = 0;
};

// Maps LinkId -> dense slot, reusing storage across calls.
class LinkSlotMap {
 public:
  void Prepare(size_t num_links) {
    if (slots_.size() < num_links) {
      slots_.assign(num_links, -1);
    }
  }

  int SlotFor(LinkId link, bool* inserted) {
    int32_t& slot = slots_[static_cast<size_t>(link)];
    *inserted = slot < 0;
    if (slot < 0) {
      slot = next_++;
      touched_.push_back(link);
    }
    return slot;
  }

  int At(LinkId link) const { return slots_[static_cast<size_t>(link)]; }

  void Reset() {
    for (LinkId link : touched_) {
      slots_[static_cast<size_t>(link)] = -1;
    }
    touched_.clear();
    next_ = 0;
  }

 private:
  std::vector<int32_t> slots_;
  std::vector<LinkId> touched_;
  int32_t next_ = 0;
};

// Union-find over links, storage reused across calls like LinkSlotMap.
class LinkUnionFind {
 public:
  void Prepare(size_t num_links) {
    if (parent_.size() < num_links) {
      parent_.assign(num_links, kInvalidLink);
    }
  }

  LinkId Find(LinkId l) {
    if (parent_[static_cast<size_t>(l)] == kInvalidLink) {
      parent_[static_cast<size_t>(l)] = l;
      touched_.push_back(l);
    }
    LinkId root = l;
    while (parent_[static_cast<size_t>(root)] != root) {
      root = parent_[static_cast<size_t>(root)];
    }
    while (parent_[static_cast<size_t>(l)] != root) {
      const LinkId next = parent_[static_cast<size_t>(l)];
      parent_[static_cast<size_t>(l)] = root;
      l = next;
    }
    return root;
  }

  void Union(LinkId a, LinkId b) {
    const LinkId ra = Find(a);
    const LinkId rb = Find(b);
    if (ra != rb) {
      parent_[static_cast<size_t>(rb)] = ra;
    }
  }

  void Reset() {
    for (LinkId l : touched_) {
      parent_[static_cast<size_t>(l)] = kInvalidLink;
    }
    touched_.clear();
  }

 private:
  std::vector<LinkId> parent_;
  std::vector<LinkId> touched_;
};

// Per-slot solver arenas. Every piece of scratch the component solvers need
// is an explicit field here, so concurrent component solves on pool workers
// touch disjoint memory by construction (DESIGN.md §7.3) — no sharing
// assumption is left implicit in thread identity. One arena exists per worker
// slot; the serial path uses arena 0.
//
// The flow <-> resource incidence is CSR-shaped and built ONCE per component
// solve (the old per-round rebuild of per-resource member vectors dominated
// the churn benches): flow_res_offset/flow_res list each flow's resources,
// res_flow_offset/res_flow the transpose via counting sort.
struct ComponentScratch {
  // Incidence CSR + quantized per-flow weights.
  std::vector<int32_t> flow_res_offset;  // size n+1.
  std::vector<int32_t> flow_res;
  std::vector<int64_t> flow_weight;      // WeightUnits(intra_weight).
  std::vector<int32_t> res_flow_offset;  // size R+1.
  std::vector<int32_t> res_flow;
  std::vector<int32_t> res_fill;
  std::vector<ResourceWork> work;
  std::vector<std::vector<AppId>> res_apps;  // Distinct apps per resource.
  // Per link slot (SolveComponentNested).
  LinkSlotMap link_slot;
  std::vector<std::vector<std::pair<int, int>>> queue_index;
  std::vector<Bps64> link_capacity;
  std::vector<int32_t> link_crossings;  // Σ active0 over the link's resources.
  std::vector<std::vector<int32_t>> link_resources;
  // ProgressiveFillInt.
  std::vector<uint8_t> frozen;
  std::vector<LevelHeapEntry> heap;
  std::vector<int32_t> batch;
  // SolveComponentStrict.
  std::vector<ActiveFlow*> by_class;
  LinkSlotMap remaining_slot;
  std::vector<Bps64> remaining;
  std::vector<ActiveFlow*> cls;
};

// Everything one solve needs besides the flows: per-slot arenas, the
// partition scratch, and the (lazily created) worker pool. The engine owns
// one; AllocateFromScratch keeps one per calling thread (it runs inside
// SweepRunner tasks, where thread confinement is the isolation).
struct EngineSolveState {
  int jobs = 1;                       // Solve-time worker slots (>= 1).
  std::unique_ptr<WorkerPool> pool;   // Created on the first parallel batch.
  std::vector<std::unique_ptr<ComponentScratch>> arenas;  // arenas[slot].

  // Component-batch scratch: groups for both partitions, the union-find
  // fields for SolvePartitioned (from-scratch) only.
  LinkUnionFind uf;
  std::vector<int32_t> group_of_root;  // Per link, -1 = none.
  std::vector<LinkId> group_roots;
  std::vector<std::vector<ActiveFlow*>> groups;
};

namespace {

using Int128 = __int128;

// Exact rational level comparisons by cross-multiplication. Numerators are
// capacities (< 2^63) and denominators weight sums (< 2^62), so the products
// stay inside signed 128 bits.
inline bool LevelEq(Bps64 na, int64_t da, Bps64 nb, int64_t db) {
  return static_cast<Int128>(na) * db == static_cast<Int128>(nb) * da;
}

struct LevelGreater {
  bool operator()(const LevelHeapEntry& a, const LevelHeapEntry& b) const {
    return static_cast<Int128>(a.num) * b.den > static_cast<Int128>(b.num) * a.den;
  }
};

// Weighted progressive filling over virtual resources, in exact integer
// arithmetic. Each flow has a scalar weight (its quantized intra weight) and
// a CSR list of resources (one per path link); all rates grow in proportion
// to the weights until a resource saturates, whose flows then freeze at
// floor(weight * level) — classic weighted max-min.
//
// Order independence is arithmetic, not disciplinary: the minimum water level
// is a unique rational, the *batch* of resources sitting at that level is
// gathered in full before anything freezes, every frozen rate is an exact
// floor of the same rational snapshot, and all state updates are commutative
// integer sums. The execution is therefore a deterministic sequence of
// (level, batch, frozen set) values no enumeration order can perturb.
//
// Caller contract: the incidence CSR, flow_weight, and work[0..num_resources)
// are built, with remaining=capacity, denom=denom0>0, active=active0>0 and
// binding=false. Writes flows[f]->rate for every flow.
void ProgressiveFillInt(const std::vector<ActiveFlow*>& flows, size_t num_resources,
                        ComponentScratch* s) {
  const size_t n = flows.size();
  s->frozen.assign(n, 0);

  std::vector<LevelHeapEntry>& heap = s->heap;
  heap.clear();
  for (size_t r = 0; r < num_resources; ++r) {
    const ResourceWork& w = s->work[r];
    assert(w.active > 0 && w.denom > 0 && w.remaining >= 0);
    heap.push_back({w.remaining, w.denom, static_cast<int32_t>(r)});
  }
  std::make_heap(heap.begin(), heap.end(), LevelGreater{});

  std::vector<int32_t>& batch = s->batch;
  size_t frozen_count = 0;
  while (frozen_count < n) {
    assert(!heap.empty() && "unfrozen flows imply a live resource entry");
    std::pop_heap(heap.begin(), heap.end(), LevelGreater{});
    const LevelHeapEntry top = heap.back();
    heap.pop_back();
    ResourceWork& w0 = s->work[static_cast<size_t>(top.resource)];
    if (w0.active == 0) {
      continue;  // Drained by earlier freezes; the entry is dead.
    }
    if (!LevelEq(w0.remaining, w0.denom, top.num, top.den)) {
      // Stale: the level rose since the push. Re-push at the current level.
      heap.push_back({w0.remaining, w0.denom, top.resource});
      std::push_heap(heap.begin(), heap.end(), LevelGreater{});
      continue;
    }
    // top is fresh, so its level is the global minimum (stored levels never
    // exceed current ones). Gather EVERY resource sitting at exactly this
    // level before freezing anything: all their entries are at the heap
    // front, and the full batch is what makes the freeze set — and therefore
    // the whole fill — independent of heap tie-break order.
    const Bps64 p = w0.remaining;
    const int64_t q = w0.denom;
    batch.clear();
    batch.push_back(top.resource);
    while (!heap.empty() && LevelEq(heap.front().num, heap.front().den, p, q)) {
      std::pop_heap(heap.begin(), heap.end(), LevelGreater{});
      const LevelHeapEntry e = heap.back();
      heap.pop_back();
      ResourceWork& we = s->work[static_cast<size_t>(e.resource)];
      if (we.active == 0) {
        continue;
      }
      if (LevelEq(we.remaining, we.denom, p, q)) {
        batch.push_back(e.resource);
      } else {
        heap.push_back({we.remaining, we.denom, e.resource});
        std::push_heap(heap.begin(), heap.end(), LevelGreater{});
      }
    }
    for (const int32_t rb : batch) {
      ResourceWork& wr = s->work[static_cast<size_t>(rb)];
      wr.binding = true;
      for (int32_t k = s->res_flow_offset[static_cast<size_t>(rb)],
                   end = s->res_flow_offset[static_cast<size_t>(rb) + 1];
           k < end; ++k) {
        const size_t f = static_cast<size_t>(s->res_flow[static_cast<size_t>(k)]);
        if (s->frozen[f]) {
          continue;
        }
        s->frozen[f] = 1;
        ++frozen_count;
        const int64_t wf = s->flow_weight[f];
        // Exact floor of the weighted share at the batch level. Any equal
        // rational representation of the level gives the same floor, so it
        // does not matter which batch resource supplied (p, q).
        const Bps64 rate = p > 0 ? static_cast<Bps64>(static_cast<Int128>(wf) * p / q) : 0;
        flows[f]->rate = rate;
        for (int32_t j = s->flow_res_offset[f], jend = s->flow_res_offset[f + 1]; j < jend; ++j) {
          ResourceWork& wx = s->work[static_cast<size_t>(s->flow_res[static_cast<size_t>(j)])];
          wx.remaining -= rate;
          wx.denom -= wf;
          wx.active -= 1;
          // Frozen shares never exceed a resource's proportional claim, so
          // remaining stays >= 0 and levels are monotone non-decreasing —
          // the invariant the lazy heap relies on.
          assert(wx.remaining >= 0);
        }
      }
      assert(wr.active == 0 && "a binding resource freezes all its flows");
    }
  }
  (void)frozen_count;
}

// Builds the resource -> flows CSR (transpose of flow_res) by counting sort,
// and resets the per-fill resource state. Shared by the nested and strict
// solvers once their flow -> resource CSR is in place.
void FinishIncidence(size_t n, size_t num_resources, ComponentScratch* s) {
  if (s->res_flow_offset.size() < num_resources + 1) {
    s->res_flow_offset.resize(num_resources + 1);
  }
  if (s->res_fill.size() < num_resources) {
    s->res_fill.resize(num_resources);
  }
  s->res_flow_offset[0] = 0;
  for (size_t r = 0; r < num_resources; ++r) {
    s->res_flow_offset[r + 1] = s->res_flow_offset[r] + s->work[r].active0;
    s->res_fill[r] = s->res_flow_offset[r];
  }
  if (s->res_flow.size() < s->flow_res.size()) {
    s->res_flow.resize(s->flow_res.size());
  }
  for (size_t f = 0; f < n; ++f) {
    for (int32_t j = s->flow_res_offset[f], jend = s->flow_res_offset[f + 1]; j < jend; ++j) {
      const size_t r = static_cast<size_t>(s->flow_res[static_cast<size_t>(j)]);
      s->res_flow[static_cast<size_t>(s->res_fill[r]++)] = static_cast<int32_t>(f);
    }
  }
}

// Floor dust threshold for redistribution at a link: integer freezes shed
// strictly less than one bit/s per (flow, resource) crossing, and every
// RoundBps crossing at most half a bit, so residuals below this are rounding
// noise, not reclaimable capacity. Value-based (capacity and crossing count),
// hence order-independent.
inline Bps64 FloorDust(Bps64 link_capacity, int32_t crossings) {
  return std::max<Bps64>(link_capacity / 1000000000, 2 * static_cast<Bps64>(crossings) + 2);
}

// Runs the redistribution rounds over the prepared component; leaves final
// rates in the flows.
void SolveNestedWfqInt(const std::vector<ActiveFlow*>& flows, size_t num_resources,
                       size_t num_link_slots, ComponentScratch* s) {
  // Initial capacities: WFQ shares among the queues present at each link,
  // each degraded by its own protocol efficiency. The share ratio and
  // efficiency are the only double factors in the solver; both are exact
  // functions of integer weight sums and app counts, and the product is
  // rounded once through RoundBps.
  for (size_t ls = 0; ls < num_link_slots; ++ls) {
    int64_t weight_sum = 0;
    for (const int32_t r : s->link_resources[ls]) {
      weight_sum += s->work[static_cast<size_t>(r)].weight_units;
    }
    assert(weight_sum > 0);
    for (const int32_t r : s->link_resources[ls]) {
      ResourceWork& w = s->work[static_cast<size_t>(r)];
      w.capacity = RoundBps(
          BpsToDouble(s->link_capacity[ls]) *
          (static_cast<double>(w.weight_units) / static_cast<double>(weight_sum)) * w.efficiency);
    }
  }

  constexpr int kMaxRounds = 4;
  for (int round = 0; round < kMaxRounds; ++round) {
    for (size_t r = 0; r < num_resources; ++r) {
      ResourceWork& w = s->work[r];
      w.remaining = w.capacity;
      w.denom = w.denom0;
      w.active = w.active0;
      w.binding = false;
    }
    ProgressiveFillInt(flows, num_resources, s);
    if (round + 1 == kMaxRounds) {
      break;  // This fill stands.
    }

    // Work conservation: re-home each link's unused capacity to the queues
    // that were actually constrained there ("binding"), in weight proportion.
    // Slack re-enters scaled by the receiving queue's own efficiency — WRR
    // can only hand out what the (imperfect) protocol can carry. Every
    // aggregate here is a commutative integer sum of per-resource values.
    bool changed = false;
    for (size_t ls = 0; ls < num_link_slots; ++ls) {
      Bps64 wire_used = 0;
      int64_t hungry_weight = 0;
      for (const int32_t r : s->link_resources[ls]) {
        const ResourceWork& w = s->work[static_cast<size_t>(r)];
        const Bps64 goodput = w.capacity - w.remaining;
        wire_used += w.efficiency > 0 ? RoundBps(BpsToDouble(goodput) / w.efficiency) : goodput;
        if (w.binding) {
          hungry_weight += w.weight_units;
        }
      }
      const Bps64 dust = FloorDust(s->link_capacity[ls], s->link_crossings[ls]);
      const Bps64 slack = s->link_capacity[ls] - wire_used;
      if (slack <= dust || hungry_weight == 0) {
        continue;
      }
      for (const int32_t r : s->link_resources[ls]) {
        ResourceWork& w = s->work[static_cast<size_t>(r)];
        const Bps64 goodput = w.capacity - w.remaining;
        if (w.binding) {
          const Bps64 grant = RoundBps(
              BpsToDouble(slack) *
              (static_cast<double>(w.weight_units) / static_cast<double>(hungry_weight)) *
              w.efficiency);
          if (grant > dust) {
            changed = true;
          }
          w.capacity = goodput + grant;
        } else {
          // Keep only what it used; its surplus is being re-homed.
          w.capacity = goodput;
        }
      }
    }
    if (!changed) {
      break;
    }
  }
}

// Nested WFQ over one component: `queue_key(flow, link)` identifies the
// flow's queue at a port, `queue_weight(flow, link)` its weight. Flows may
// arrive in ANY order — the solve is a function of the flow multiset.
template <typename QueueKeyFn, typename QueueWeightFn>
void SolveComponentNested(const std::vector<ActiveFlow*>& flows, const Network& net,
                          QueueKeyFn queue_key, QueueWeightFn queue_weight,
                          ComponentScratch* s) {
  if (flows.empty()) {
    return;
  }
  const size_t n = flows.size();

  if (n == 1) {
    // Single-flow component: the flow owns every queue it crosses (weight
    // ratios are exactly 1.0), so its rate is the minimum over path links of
    // the efficiency-degraded link capacity. Bit-identical to the general
    // path, which would compute the same RoundBps per link and freeze at the
    // floor of share/weight = capacity.
    ActiveFlow* flow = flows[0];
    assert(flow->path != nullptr && !flow->path->empty());
    assert(flow->remaining_bits > 0);
    assert(flow->intra_weight > 0);
    const double eff = net.congestion().QueueEfficiency(1);
    Bps64 rate = kBps64Max;
    for (const LinkId l : *flow->path) {
      rate = std::min(rate, RoundBps(BpsToDouble(net.topology().link(l).capacity_bps) * eff));
    }
    flow->rate = rate;
    return;
  }

  // --- Build the component's resource graph (once; reused across rounds). ---
  LinkSlotMap& link_slot = s->link_slot;
  link_slot.Prepare(net.topology().num_links());
  if (s->flow_res_offset.size() < n + 1) {
    s->flow_res_offset.resize(n + 1);
  }
  if (s->flow_weight.size() < n) {
    s->flow_weight.resize(n);
  }
  s->flow_res.clear();

  size_t num_resources = 0;
  size_t num_link_slots = 0;
  for (size_t f = 0; f < n; ++f) {
    const ActiveFlow* flow = flows[f];
    assert(flow->path != nullptr && !flow->path->empty());
    assert(flow->remaining_bits > 0);
    assert(flow->intra_weight > 0);
    s->flow_weight[f] = WeightUnits(flow->intra_weight);
    s->flow_res_offset[f] = static_cast<int32_t>(s->flow_res.size());
    for (const LinkId l : *flow->path) {
      bool inserted = false;
      const size_t ls = static_cast<size_t>(link_slot.SlotFor(l, &inserted));
      if (inserted) {
        if (s->queue_index.size() <= ls) {
          s->queue_index.resize(ls + 1);
          s->link_resources.resize(ls + 1);
          s->link_capacity.resize(ls + 1);
          s->link_crossings.resize(ls + 1);
        }
        s->queue_index[ls].clear();
        s->link_resources[ls].clear();
        s->link_capacity[ls] = net.topology().link(l).capacity_bps;
        s->link_crossings[ls] = 0;
        ++num_link_slots;
      }
      const int key = queue_key(*flow, l);
      auto& index = s->queue_index[ls];
      const auto it = std::find_if(index.begin(), index.end(),
                                   [key](const auto& entry) { return entry.first == key; });
      int resource;
      if (it == index.end()) {
        resource = static_cast<int>(num_resources++);
        if (s->work.size() < num_resources) {
          s->work.resize(num_resources);
          s->res_apps.resize(num_resources);
        }
        ResourceWork& w = s->work[static_cast<size_t>(resource)];
        // Any member flow yields the same queue weight (the key pins the
        // queue), so it is fine that the first-seen flow supplies it.
        w.weight_units = WeightUnits(queue_weight(*flow, l));
        w.denom0 = 0;
        w.active0 = 0;
        s->res_apps[static_cast<size_t>(resource)].clear();
        index.emplace_back(key, resource);
        s->link_resources[ls].push_back(resource);
      } else {
        resource = it->second;
      }
      auto& apps = s->res_apps[static_cast<size_t>(resource)];
      if (std::find(apps.begin(), apps.end(), flow->app) == apps.end()) {
        apps.push_back(flow->app);
      }
      ResourceWork& w = s->work[static_cast<size_t>(resource)];
      w.denom0 += s->flow_weight[f];
      w.active0 += 1;
      s->link_crossings[ls] += 1;
      s->flow_res.push_back(static_cast<int32_t>(resource));
    }
  }
  s->flow_res_offset[n] = static_cast<int32_t>(s->flow_res.size());
  link_slot.Reset();

  for (size_t r = 0; r < num_resources; ++r) {
    s->work[r].efficiency = net.congestion().QueueEfficiency(s->res_apps[r].size());
  }
  FinishIncidence(n, num_resources, s);

  SolveNestedWfqInt(flows, num_resources, num_link_slots, s);
}

// Strict priority over one component: classes served best (lowest value)
// first, each getting a max-min allocation of what higher classes left. All
// scratch lives in the per-slot arena — this solver runs once per component
// per event, so per-call heap allocation would dominate at churn rates.
void SolveComponentStrict(const std::vector<ActiveFlow*>& flows, const Network& net,
                          ComponentScratch* s) {
  if (flows.empty()) {
    return;
  }

  // Group by priority class. A plain sort suffices: order *within* a class
  // cannot matter, the integer fill being a function of the flow multiset.
  std::vector<ActiveFlow*>& by_class = s->by_class;
  by_class.assign(flows.begin(), flows.end());
  std::sort(by_class.begin(), by_class.end(),
            [](const ActiveFlow* a, const ActiveFlow* b) { return a->priority < b->priority; });

  // Remaining capacity persists across classes; lower classes only see what
  // higher classes left behind.
  LinkSlotMap& remaining_slot = s->remaining_slot;
  remaining_slot.Prepare(net.topology().num_links());
  std::vector<Bps64>& remaining = s->remaining;
  remaining.clear();
  for (const ActiveFlow* flow : by_class) {
    assert(flow->path != nullptr && !flow->path->empty());
    for (const LinkId l : *flow->path) {
      bool inserted = false;
      (void)remaining_slot.SlotFor(l, &inserted);
      if (inserted) {
        remaining.push_back(net.topology().link(l).capacity_bps);
      }
    }
  }

  std::vector<ActiveFlow*>& cls = s->cls;
  LinkSlotMap& link_slot = s->link_slot;

  size_t i = 0;
  while (i < by_class.size()) {
    const int prio = by_class[i]->priority;
    cls.clear();
    while (i < by_class.size() && by_class[i]->priority == prio) {
      cls.push_back(by_class[i]);
      ++i;
    }
    const size_t m = cls.size();

    if (m == 1) {
      // One flow in the class (the common case under pFabric-style per-flow
      // priorities): its max-min rate is the bottleneck remaining capacity.
      // Identical to the general fill, which freezes at floor(W*rem/W).
      ActiveFlow* flow = cls[0];
      assert(flow->remaining_bits > 0);
      assert(flow->intra_weight > 0);
      Bps64 rate = kBps64Max;
      for (const LinkId l : *flow->path) {
        rate = std::min(rate, remaining[static_cast<size_t>(remaining_slot.At(l))]);
      }
      flow->rate = rate;
    } else {
      // Weighted max-min within the class on the remaining capacity: one
      // resource per link (a priority class behaves like a single queue).
      link_slot.Prepare(net.topology().num_links());
      if (s->flow_res_offset.size() < m + 1) {
        s->flow_res_offset.resize(m + 1);
      }
      if (s->flow_weight.size() < m) {
        s->flow_weight.resize(m);
      }
      s->flow_res.clear();
      size_t used_links = 0;
      for (size_t f = 0; f < m; ++f) {
        const ActiveFlow* flow = cls[f];
        assert(flow->remaining_bits > 0);
        assert(flow->intra_weight > 0);
        s->flow_weight[f] = WeightUnits(flow->intra_weight);
        s->flow_res_offset[f] = static_cast<int32_t>(s->flow_res.size());
        for (const LinkId l : *flow->path) {
          bool inserted = false;
          const int slot = link_slot.SlotFor(l, &inserted);
          if (inserted) {
            if (s->work.size() <= used_links) {
              s->work.resize(used_links + 1);
            }
            ResourceWork& w = s->work[used_links];
            w.capacity = remaining[static_cast<size_t>(remaining_slot.At(l))];
            w.denom0 = 0;
            w.active0 = 0;
            ++used_links;
          }
          ResourceWork& w = s->work[static_cast<size_t>(slot)];
          w.denom0 += s->flow_weight[f];
          w.active0 += 1;
          s->flow_res.push_back(slot);
        }
      }
      s->flow_res_offset[m] = static_cast<int32_t>(s->flow_res.size());
      link_slot.Reset();
      FinishIncidence(m, used_links, s);
      for (size_t r = 0; r < used_links; ++r) {
        ResourceWork& w = s->work[r];
        w.remaining = w.capacity;
        w.denom = w.denom0;
        w.active = w.active0;
        w.binding = false;
      }
      ProgressiveFillInt(cls, used_links, s);
    }

    // Integer conservation guarantees the class fits; the clamp only guards
    // the (unreachable) pathological case.
    for (const ActiveFlow* flow : cls) {
      for (const LinkId l : *flow->path) {
        Bps64& rem = remaining[static_cast<size_t>(remaining_slot.At(l))];
        rem = std::max<Bps64>(0, rem - flow->rate);
      }
    }
  }
  remaining_slot.Reset();
}

// Solves one component under the discipline. Reads only the (immutable
// during a solve) Network, the component's flows and the given arena — the
// isolation the parallel batch below relies on. Flow order is irrelevant.
void SolveComponent(const std::vector<ActiveFlow*>& flows, const Network& net,
                    AllocationDiscipline discipline, const PerAppWeightFn& per_app_weights,
                    ComponentScratch* scratch) {
  switch (discipline) {
    case AllocationDiscipline::kWfqSlQueues:
      SolveComponentNested(
          flows, net,
          [&net](const ActiveFlow& flow, LinkId l) {
            const PortConfig& port = net.port(l);
            const int q = port.sl_to_queue[static_cast<size_t>(flow.sl)];
            assert(q >= 0 && q < port.num_queues);
            return q;
          },
          [&net](const ActiveFlow& flow, LinkId l) {
            const PortConfig& port = net.port(l);
            const int q = port.sl_to_queue[static_cast<size_t>(flow.sl)];
            const double w = port.queue_weights[static_cast<size_t>(q)];
            assert(w > 0 && "queue weights must be strictly positive");
            return w;
          },
          scratch);
      break;
    case AllocationDiscipline::kPerAppQueues:
      SolveComponentNested(
          flows, net, [](const ActiveFlow& flow, LinkId) { return static_cast<int>(flow.app); },
          [&per_app_weights](const ActiveFlow& flow, LinkId l) {
            const double w = per_app_weights ? per_app_weights(l, flow.app) : 1.0;
            assert(w > 0);
            return w;
          },
          scratch);
      break;
    case AllocationDiscipline::kStrictPriority:
      SolveComponentStrict(flows, net, scratch);
      break;
  }
}

// Solves components[0..num) under the discipline. With jobs > 1, at least
// two components, and enough total flows to amortize the dispatch
// (kMinParallelBatchFlows) the batch is fanned across the worker pool, each
// slot solving into its own arena; otherwise it runs serially on the calling
// thread with arena 0. Either way every component's arithmetic is identical —
// the choice is pure scheduling (DESIGN.md §7.3). Each component writes only
// its own flows' rates, so "merging" is the identity.
void SolveComponentBatch(const std::vector<std::vector<ActiveFlow*>>& components, size_t num,
                         const Network& net, AllocationDiscipline discipline,
                         const PerAppWeightFn& per_app_weights, EngineSolveState* state,
                         AllocationEngineStats* stats) {
  size_t batch_flows = 0;
  for (size_t i = 0; i < num; ++i) {
    batch_flows += components[i].size();
  }
  const bool fan_out = state->jobs > 1 && num > 1 &&
                       batch_flows >= AllocationEngine::kMinParallelBatchFlows;
  const size_t arenas_needed = fan_out ? static_cast<size_t>(state->jobs) : 1;
  while (state->arenas.size() < arenas_needed) {
    state->arenas.push_back(std::make_unique<ComponentScratch>());
  }
  if (!fan_out) {
    for (size_t i = 0; i < num; ++i) {
      SolveComponent(components[i], net, discipline, per_app_weights, state->arenas[0].get());
    }
    return;
  }
  if (state->pool == nullptr || state->pool->jobs() != state->jobs) {
    state->pool = std::make_unique<WorkerPool>(state->jobs);
  }
  // saba-lint: pool-capture-ok(task i reads only components[i] and writes only the rates of
  // that component's flows — components partition the flow set, so writes never alias across
  // tasks; scratch lives in the slot-confined arena, §7.3)
  state->pool->Run(num, [&](size_t i, int slot) {
    SolveComponent(components[i], net, discipline, per_app_weights,
                   state->arenas[static_cast<size_t>(slot)].get());
  });
  if (stats != nullptr) {
    ++stats->parallel_solves;
    stats->parallel_components += num;
  }
}

// Partitions flows into link-sharing components with a union-find over links
// and solves each — the from-scratch oracle's partition, independent of the
// engine's BFS. Components are numbered by first appearance in the scan; the
// numbering (like the flow order inside each group) affects nothing but
// scheduling.
void SolvePartitioned(const std::vector<ActiveFlow*>& flows, const Network& net,
                      AllocationDiscipline discipline, const PerAppWeightFn& per_app_weights,
                      EngineSolveState* state) {
  LinkUnionFind& uf = state->uf;
  uf.Prepare(net.topology().num_links());
  for (const ActiveFlow* flow : flows) {
    assert(flow->path != nullptr && !flow->path->empty());
    const LinkId first = flow->path->front();
    (void)uf.Find(first);  // Registers single-link paths too.
    for (size_t i = 1; i < flow->path->size(); ++i) {
      uf.Union(first, (*flow->path)[i]);
    }
  }

  std::vector<int32_t>& group_of_root = state->group_of_root;
  if (group_of_root.size() < net.topology().num_links()) {
    group_of_root.assign(net.topology().num_links(), -1);
  }
  std::vector<LinkId>& group_roots = state->group_roots;
  std::vector<std::vector<ActiveFlow*>>& groups = state->groups;
  size_t num_groups = 0;
  for (ActiveFlow* flow : flows) {
    const LinkId root = uf.Find(flow->path->front());
    int32_t& g = group_of_root[static_cast<size_t>(root)];
    if (g < 0) {
      g = static_cast<int32_t>(num_groups++);
      group_roots.push_back(root);
      if (groups.size() < num_groups) {
        groups.emplace_back();
      }
      groups[static_cast<size_t>(g)].clear();
    }
    groups[static_cast<size_t>(g)].push_back(flow);
  }

  SolveComponentBatch(groups, num_groups, net, discipline, per_app_weights, state, nullptr);

  for (const LinkId root : group_roots) {
    group_of_root[static_cast<size_t>(root)] = -1;
  }
  group_roots.clear();
  uf.Reset();
}

}  // namespace

void AllocateFromScratch(const std::vector<ActiveFlow*>& flows, const Network& net,
                         AllocationDiscipline discipline, const PerAppWeightFn& per_app_weights) {
  if (flows.empty()) {
    return;
  }
  // Entry-point arena only: from-scratch solves run inside SweepRunner tasks
  // on many threads at once, so the state is thread-confined here (and stays
  // serial — jobs is never raised, so no nested pool is ever created). No
  // canonical sort: the integer solve is order-independent by arithmetic.
  // saba-lint: shared-state-ok(thread_local: each thread owns a private solve state, nothing
  // is shared across workers, and the solve it feeds is order-independent integer math)
  static thread_local EngineSolveState state;
  SolvePartitioned(flows, net, discipline, per_app_weights, &state);
}

AllocationEngine::AllocationEngine(const Network* net, AllocationDiscipline discipline,
                                   PerAppWeightFn per_app_weights)
    : net_(net),
      discipline_(discipline),
      per_app_weights_(std::move(per_app_weights)),
      solve_(std::make_unique<EngineSolveState>()) {
  assert(net != nullptr);
  const size_t num_links = net->topology().num_links();
  link_flows_.resize(num_links);
  link_dirty_.assign(num_links, 0);
  link_visited_.assign(num_links, 0);
}

AllocationEngine::~AllocationEngine() = default;

void AllocationEngine::SetSolveJobs(int jobs) {
  assert(jobs >= 1 && "solve_jobs counts worker slots; 1 is the serial path");
  solve_->jobs = jobs;  // The pool is (re)created lazily on the next batch.
}

int AllocationEngine::solve_jobs() const { return solve_->jobs; }

void AllocationEngine::MarkLinkDirty(LinkId link) {
  assert(link >= 0 && static_cast<size_t>(link) < link_dirty_.size());
  if (!link_dirty_[static_cast<size_t>(link)]) {
    link_dirty_[static_cast<size_t>(link)] = 1;
    dirty_links_.push_back(link);
  }
}

void AllocationEngine::FlowAdded(ActiveFlow* flow) {
  assert(flow != nullptr && flow->path != nullptr && !flow->path->empty());
  ++num_flows_;
  for (LinkId l : *flow->path) {
    assert(net_->topology().LinkUsable(l) && "flow path crosses a failed link; reroute first");
    link_flows_[static_cast<size_t>(l)].push_back(flow);
    MarkLinkDirty(l);
  }
}

void AllocationEngine::FlowRemoved(ActiveFlow* flow) {
  assert(flow != nullptr && num_flows_ > 0);
  --num_flows_;
  for (LinkId l : *flow->path) {
    auto& members = link_flows_[static_cast<size_t>(l)];
    const auto it = std::find(members.begin(), members.end(), flow);
    assert(it != members.end() && "flow not registered");
    *it = members.back();
    members.pop_back();
    MarkLinkDirty(l);
  }
}

void AllocationEngine::FlowQueueChanged(ActiveFlow* flow) {
  assert(flow != nullptr);
  for (LinkId l : *flow->path) {
    MarkLinkDirty(l);
  }
}

void AllocationEngine::PortConfigChanged(LinkId link) {
  MarkLinkDirty(link);
}

void AllocationEngine::InvalidateAll() { all_dirty_ = true; }

void AllocationEngine::CollectComponent(LinkId seed, std::vector<ActiveFlow*>* out) {
  bfs_queue_.clear();
  link_visited_[static_cast<size_t>(seed)] = 1;
  visited_scratch_.push_back(seed);
  bfs_queue_.push_back(seed);
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    const LinkId l = bfs_queue_[head];
    for (ActiveFlow* flow : link_flows_[static_cast<size_t>(l)]) {
      // Every link of the flow's path joins the component, so the flow is
      // collected exactly once: when the BFS processes its first path link.
      // (Paths never repeat a link — FlowRemoved's single-erase relies on
      // the same property.)
      if (flow->path->front() == l) {
        out->push_back(flow);
      }
      for (LinkId k : *flow->path) {
        if (!link_visited_[static_cast<size_t>(k)]) {
          link_visited_[static_cast<size_t>(k)] = 1;
          visited_scratch_.push_back(k);
          bfs_queue_.push_back(k);
        }
      }
    }
  }
}

void AllocationEngine::Recompute() {
  if (!all_dirty_ && dirty_links_.empty()) {
    return;
  }
  ++stats_.recomputes;
  if (all_dirty_) {
    ++stats_.full_recomputes;
    all_dirty_ = false;
    // Every link that carries a flow seeds the BFS below, so the full path
    // re-solves every component through the incremental code. The scan is
    // skipped for an empty engine: a flowless simulator under a controller
    // still invalidates its whole fabric on every flush.
    if (num_flows_ > 0) {
      for (size_t l = 0; l < link_flows_.size(); ++l) {
        if (!link_flows_[l].empty()) {
          MarkLinkDirty(static_cast<LinkId>(l));
        }
      }
    }
  }

  // Gather ALL dirty components first (the BFS stays serial and
  // deterministic), then solve the batch — serially or fanned across the
  // pool; either way bit-identical (DESIGN.md §7.3).
  std::vector<std::vector<ActiveFlow*>>& components = solve_->groups;
  size_t num_components = 0;
  size_t rerated = 0;
  for (const LinkId seed : dirty_links_) {
    if (link_visited_[static_cast<size_t>(seed)]) {
      continue;  // Already part of an earlier seed's component.
    }
    if (components.size() == num_components) {
      components.emplace_back();
    }
    std::vector<ActiveFlow*>& out = components[num_components];
    out.clear();
    CollectComponent(seed, &out);
    if (out.empty()) {
      continue;  // A dirty link nobody crosses (e.g. a removed flow's last link).
    }
    rerated += out.size();
    ++num_components;
  }
  SolveComponentBatch(components, num_components, *net_, discipline_, per_app_weights_,
                      solve_.get(), &stats_);
  stats_.components_solved += num_components;
  for (const LinkId l : visited_scratch_) {
    link_visited_[static_cast<size_t>(l)] = 0;
  }
  visited_scratch_.clear();

  stats_.flows_rerated += rerated;
  stats_.flows_frozen += num_flows_ - rerated;
  for (const LinkId l : dirty_links_) {
    link_dirty_[static_cast<size_t>(l)] = 0;
  }
  dirty_links_.clear();
}

}  // namespace saba
