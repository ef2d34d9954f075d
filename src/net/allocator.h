// Fluid bandwidth allocation over the fabric.
//
// The simulator is flow-level: instead of packets, each active flow has an
// instantaneous rate, recomputed whenever the set of flows (or the switch
// configuration) changes. Two disciplines are provided:
//
//  * WfqMaxMinAllocator — weighted max-min across per-port queues, matching
//    the WFQ/WRR scheduling of InfiniBand switches (§5.2). A flow's weight at
//    a link is queue_weight / flows_in_that_queue; rates are computed by
//    weighted progressive filling: all flows grow proportionally to their
//    path-wide minimum weight until a link saturates, whose flows then freeze
//    at their share, and so on. The allocation is work-conserving and every
//    flow ends up bottlenecked at some saturated link. (The per-flow weight
//    is fixed at the start of each allocation — the classical approximation
//    used by fluid simulators; per-queue shares at a single bottleneck are
//    exact.)
//
//  * StrictPriorityAllocator — serves priority classes in order (class 0
//    first), giving each class a max-min allocation of the capacity left by
//    higher classes. Used by the Homa-like and Sincronia-like baselines.
//
// Capacity efficiency: each queue's share is scaled by the Network's
// CongestionModel according to how many distinct applications share the
// queue at that link (see network.h for the rationale).
//
// A BandwidthAllocator is a plain value naming what to solve: a discipline
// plus, for per-application queues, a weight function. The solving itself
// lives in one place, src/net/allocation_engine.{h,cc}: AllocateFromScratch
// is a from-scratch run, and FlowSimulator builds an AllocationEngine from
// the same two fields to solve incrementally. Both paths run the same
// component solver, so their rates are bit-identical.

#ifndef SRC_NET_ALLOCATOR_H_
#define SRC_NET_ALLOCATOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/net/units.h"

namespace saba {

using FlowId = int64_t;
using AppId = int32_t;

inline constexpr FlowId kInvalidFlow = -1;
inline constexpr AppId kInvalidApp = -1;

// A flow currently in the fabric, as seen by the allocator.
struct ActiveFlow {
  FlowId id = kInvalidFlow;
  AppId app = kInvalidApp;
  // Service level carried in the flow's packets; ports map it to a queue.
  int sl = 0;
  // Priority class for StrictPriorityAllocator (lower value = served first).
  // Policies (Homa, Sincronia) maintain this; WFQ ignores it.
  int priority = 0;
  // Relative share of the flow within its queue (and class): normal traffic
  // is 1.0; subordinate traffic (an application's own opportunistic
  // prefetch) uses a small value so it yields to critical flows wherever
  // they contend, while still soaking up idle capacity.
  double intra_weight = 1.0;
  double remaining_bits = 0;
  // Path of the flow (non-empty; set by the flow simulator at start time).
  const std::vector<LinkId>* path = nullptr;
  // Output: instantaneous rate in fixed-point bits/s, written by the
  // allocation engine. Integer by design: rates come out of the integer fill
  // exactly (units.h), and consumers convert to double only at the fluid
  // boundary.
  Bps64 rate = 0;
};

// Queue discipline a BandwidthAllocator (or AllocationEngine) solves under.
enum class AllocationDiscipline {
  kWfqSlQueues,     // Port SL->queue map + configured WFQ weights.
  kPerAppQueues,    // One virtual queue per application at every port.
  kStrictPriority,  // Priority classes served in order (class 0 first).
};

// Weight of application `app` at port `link` for kPerAppQueues; must be > 0.
using PerAppWeightFn = std::function<double(LinkId, AppId)>;

class BandwidthAllocator {
 public:
  explicit BandwidthAllocator(AllocationDiscipline discipline,
                              PerAppWeightFn per_app_weights = nullptr)
      : discipline_(discipline), per_app_weights_(std::move(per_app_weights)) {}
  // Virtual only so callers may own a named subclass through a base pointer;
  // the subclasses add nothing but their constructor.
  virtual ~BandwidthAllocator() = default;
  BandwidthAllocator(const BandwidthAllocator&) = default;
  BandwidthAllocator& operator=(const BandwidthAllocator&) = default;
  BandwidthAllocator(BandwidthAllocator&&) = default;
  BandwidthAllocator& operator=(BandwidthAllocator&&) = default;

  AllocationDiscipline discipline() const { return discipline_; }
  // Used by kPerAppQueues only; null means unit weight for every application.
  const PerAppWeightFn& per_app_weights() const { return per_app_weights_; }

 private:
  AllocationDiscipline discipline_;
  PerAppWeightFn per_app_weights_;
};

class WfqMaxMinAllocator : public BandwidthAllocator {
 public:
  WfqMaxMinAllocator() : BandwidthAllocator(AllocationDiscipline::kWfqSlQueues) {}
};

class StrictPriorityAllocator : public BandwidthAllocator {
 public:
  StrictPriorityAllocator() : BandwidthAllocator(AllocationDiscipline::kStrictPriority) {}
};

// WFQ where every application gets its own (virtual) queue at every port,
// regardless of SL maps and port queue counts — the "unlimited queues"
// idealization. With the default unit weights this is the paper's *ideal
// max-min fairness* (study 4: "each workload is assigned to a dedicated
// queue" served round-robin); with a weight function it is Saba's
// upper-bound configuration in Fig 11b. Congestion efficiency is ideal
// (queues are app-pure by construction).
class PerAppWfqAllocator : public BandwidthAllocator {
 public:
  // Null `weights` means unit weight for every application (ideal max-min).
  explicit PerAppWfqAllocator(PerAppWeightFn weights = nullptr)
      : BandwidthAllocator(AllocationDiscipline::kPerAppQueues, std::move(weights)) {}
};

}  // namespace saba

#endif  // SRC_NET_ALLOCATOR_H_
