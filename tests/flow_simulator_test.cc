#include "src/net/flow_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/rng.h"

#include "src/net/allocator.h"
#include "src/net/network.h"
#include "src/net/units.h"
#include "src/sim/event_scheduler.h"

namespace saba {
namespace {

class FlowSimulatorTest : public ::testing::Test {
 protected:
  FlowSimulatorTest()
      : network_(BuildSingleSwitchStar(4, Gbps64(10)), 8),
        flow_sim_(&scheduler_, &network_, &allocator_) {}

  EventScheduler scheduler_;
  Network network_;
  WfqMaxMinAllocator allocator_;
  FlowSimulator flow_sim_;
};

TEST_F(FlowSimulatorTest, SingleFlowCompletesAtExactTime) {
  // 10 Gb over a 10 Gb/s path: exactly 1 second.
  SimTime done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { done = scheduler_.Now(); });
  scheduler_.Run();
  EXPECT_NEAR(done, 1.0, 1e-9);
  EXPECT_EQ(flow_sim_.active_flow_count(), 0u);
  EXPECT_EQ(flow_sim_.completed_flow_count(), 1u);
}

TEST_F(FlowSimulatorTest, TwoCompetingFlowsSlowEachOtherDown) {
  // Both flows into host1: each gets 5 Gb/s, so 10 Gb takes 2 s.
  std::vector<SimTime> done;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { done.push_back(scheduler_.Now()); });
  flow_sim_.StartFlow(1, 2, 1, Gbps(10), 0, 0, [&](FlowId) { done.push_back(scheduler_.Now()); });
  scheduler_.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
}

TEST_F(FlowSimulatorTest, RateRisesWhenCompetitorFinishes) {
  // Flow A: 10 Gb; flow B: 5 Gb, same bottleneck. B finishes at t=1 (5 Gb at
  // 5 Gb/s); A then speeds up: 5 Gb remaining at 10 Gb/s -> t=1.5.
  SimTime a_done = -1;
  SimTime b_done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { a_done = scheduler_.Now(); });
  flow_sim_.StartFlow(1, 2, 1, Gbps(5), 0, 0, [&](FlowId) { b_done = scheduler_.Now(); });
  scheduler_.Run();
  EXPECT_NEAR(b_done, 1.0, 1e-6);
  EXPECT_NEAR(a_done, 1.5, 1e-6);
}

TEST_F(FlowSimulatorTest, LateArrivalPreemptsBandwidth) {
  // A alone for 0.5 s (drains 5 Gb), then B arrives; both at 5 Gb/s.
  // A: 5 Gb left at 5 Gb/s -> done at 1.5. B: 5 Gb at 5 Gb/s -> done at 1.5.
  SimTime a_done = -1;
  SimTime b_done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { a_done = scheduler_.Now(); });
  scheduler_.ScheduleAt(0.5, [&] {
    flow_sim_.StartFlow(1, 2, 1, Gbps(5), 0, 0, [&](FlowId) { b_done = scheduler_.Now(); });
  });
  scheduler_.Run();
  EXPECT_NEAR(a_done, 1.5, 1e-6);
  EXPECT_NEAR(b_done, 1.5, 1e-6);
}

TEST_F(FlowSimulatorTest, CompletionCallbackCanStartNewFlow) {
  SimTime second_done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) {
    flow_sim_.StartFlow(0, 1, 2, Gbps(10), 0, 0,
                        [&](FlowId) { second_done = scheduler_.Now(); });
  });
  scheduler_.Run();
  EXPECT_NEAR(second_done, 2.0, 1e-6);
}

TEST_F(FlowSimulatorTest, CancelFlowRemovesItWithoutCallback) {
  bool fired = false;
  const FlowId id = flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { fired = true; });
  scheduler_.ScheduleAt(0.25, [&] { flow_sim_.CancelFlow(id); });
  scheduler_.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(flow_sim_.active_flow_count(), 0u);
}

TEST_F(FlowSimulatorTest, FlowRateAndRemainingAreObservable) {
  const FlowId id = flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, nullptr);
  scheduler_.ScheduleAt(0.5, [&] {
    EXPECT_NEAR(flow_sim_.FlowRate(id), Gbps(10), Gbps(0.001));
    EXPECT_NEAR(flow_sim_.FlowRemainingBits(id), Gbps(5), Gbps(0.01));
    EXPECT_NEAR(flow_sim_.HostEgressRate(0), Gbps(10), Gbps(0.001));
    EXPECT_NEAR(flow_sim_.HostEgressRate(2), 0.0, 1.0);
  });
  scheduler_.Run();
  EXPECT_EQ(flow_sim_.FlowRate(id), 0.0);
}

TEST_F(FlowSimulatorTest, ReallocationsAreCoalescedPerInstant) {
  // Many flows started at the same instant trigger one allocator run.
  for (int i = 0; i < 10; ++i) {
    flow_sim_.StartFlow(i, i % 3, 3, Gbps(1), 0, static_cast<uint64_t>(i), nullptr);
  }
  scheduler_.RunUntil(1e-6);
  EXPECT_EQ(flow_sim_.allocator_runs(), 1u);
  scheduler_.Run();
}

TEST_F(FlowSimulatorTest, SetAppServiceLevelRetagsFlows) {
  network_.MapSlToQueueEverywhere(2, 2);
  flow_sim_.StartFlow(7, 0, 1, Gbps(10), 0, 0, nullptr);
  scheduler_.ScheduleAt(0.1, [&] { flow_sim_.SetAppServiceLevel(7, 2); });
  scheduler_.RunUntil(0.2);
  flow_sim_.ForEachActiveFlow([](const ActiveFlow& flow) { EXPECT_EQ(flow.sl, 2); });
  scheduler_.Run();
}

TEST_F(FlowSimulatorTest, PreAllocateHookRunsBeforeEachAllocation) {
  int hook_runs = 0;
  flow_sim_.SetPreAllocateHook([&] { ++hook_runs; });
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, nullptr);
  scheduler_.Run();
  EXPECT_GE(hook_runs, 1);
}

TEST_F(FlowSimulatorTest, ConservationOfBytes) {
  // Total simulated transfer time x rate integrates to the volume: check via
  // completion time of a batch against the aggregate capacity.
  // 4 hosts all sending 10 Gb to host 3: ingress 10 Gb/s shared by 3 flows
  // -> 30 Gb total at 10 Gb/s = 3 s.
  int completed = 0;
  SimTime last = 0;
  for (NodeId s = 0; s < 3; ++s) {
    flow_sim_.StartFlow(0, s, 3, Gbps(10), 0, 0, [&](FlowId) {
      ++completed;
      last = scheduler_.Now();
    });
  }
  scheduler_.Run();
  EXPECT_EQ(completed, 3);
  EXPECT_NEAR(last, 3.0, 1e-6);
}

TEST_F(FlowSimulatorTest, WorkConservationOverTimeOnSharedBottleneck) {
  // Random-size incast into one host with staggered arrivals: because the
  // ingress link is the single bottleneck and the allocator is work
  // conserving, the makespan must equal total_bits / capacity exactly
  // (provided arrivals never let the link idle).
  Rng rng(99);
  double total_bits = 0;
  SimTime last_done = 0;
  int remaining = 12;
  for (int f = 0; f < 12; ++f) {
    const double bits = rng.Uniform(Gbps(1), Gbps(8));
    total_bits += bits;
    const SimTime start = rng.Uniform(0.0, 0.3);  // All arrive early.
    scheduler_.ScheduleAt(start, [this, bits, f, &last_done, &remaining] {
      flow_sim_.StartFlow(f % 3, static_cast<NodeId>(f % 3), 3, bits, 0,
                          static_cast<uint64_t>(f), [&, this](FlowId) {
                            last_done = scheduler_.Now();
                            --remaining;
                          });
    });
  }
  scheduler_.Run();
  EXPECT_EQ(remaining, 0);
  // Idle time before the first arrival is at most 0.3 s; beyond that the
  // bottleneck is never idle.
  EXPECT_GT(total_bits / Gbps(10), 1.0);  // Sanity: multi-second transfer.
  EXPECT_NEAR(last_done, total_bits / Gbps(10) + 0.0, 0.31);
  EXPECT_GE(last_done, total_bits / Gbps(10) - 1e-6);
}

TEST_F(FlowSimulatorTest, QuantizedCompletionsStayCloseToExact) {
  // The same staggered workload with a coarse completion grid must produce
  // nearly identical completion times (bounded by the quantum per flow).
  auto run = [&](double quantum) {
    EventScheduler scheduler;
    Network network(BuildSingleSwitchStar(4, Gbps64(10)), 8);
    WfqMaxMinAllocator allocator;
    FlowSimulator sim(&scheduler, &network, &allocator);
    sim.SetCompletionQuantum(quantum);
    std::vector<SimTime> done(6, 0);
    for (int f = 0; f < 6; ++f) {
      scheduler.ScheduleAt(0.1 * f, [&sim, &scheduler, &done, f] {
        sim.StartFlow(f, static_cast<NodeId>(f % 3), 3, Gbps(4), 0,
                      static_cast<uint64_t>(f),
                      [&done, &scheduler, f](FlowId) { done[static_cast<size_t>(f)] =
                                                           scheduler.Now(); });
      });
    }
    scheduler.Run();
    return done;
  };
  const auto exact = run(0.0);
  const auto coarse = run(0.25);
  for (size_t f = 0; f < exact.size(); ++f) {
    EXPECT_GE(coarse[f], exact[f] - 1e-9);
    EXPECT_LE(coarse[f], exact[f] + 0.6);  // A couple of grid steps at most.
  }
}

TEST_F(FlowSimulatorTest, ZeroRateFlowsDoNotDeadlockOthers) {
  // Strict priority: the low-priority flow has rate 0 while the high one
  // runs, then completes afterwards.
  StrictPriorityAllocator strict;
  FlowSimulator sim(&scheduler_, &network_, &strict);
  SimTime low_done = -1;
  const FlowId high = sim.StartFlow(0, 0, 1, Gbps(10), 0, 0, nullptr);
  const FlowId low = sim.StartFlow(1, 2, 1, Gbps(10), 0, 0,
                                   [&](FlowId) { low_done = scheduler_.Now(); });
  sim.SetFlowPriority(high, 0);
  sim.SetFlowPriority(low, 1);
  scheduler_.Run();
  EXPECT_NEAR(low_done, 2.0, 1e-6);
}

// --- Failure handling on a fat-tree ------------------------------------------

class FatTreeFailureTest : public ::testing::Test {
 protected:
  static FatTreeParams TenGigFatTree() {
    FatTreeParams params;
    params.k = 4;
    params.host_link_bps = params.edge_agg_bps = params.agg_core_bps = Gbps64(10);
    return params;
  }

  FatTreeFailureTest()
      : network_(BuildFatTree(TenGigFatTree()), 8),
        flow_sim_(&scheduler_, &network_, &allocator_) {}

  EventScheduler scheduler_;
  Network network_;
  WfqMaxMinAllocator allocator_;
  FlowSimulator flow_sim_;
};

TEST_F(FatTreeFailureTest, MidFlowLinkFailureReroutesAndCompletes) {
  // 20 Gb between pods at 10 Gb/s: 2 s on a healthy fabric. Mid-transfer the
  // edge->agg hop of the pinned path fails; the equal-cost detour has the
  // same length and capacity, so the completion time is unchanged.
  constexpr uint64_t kSalt = 3;
  const std::vector<LinkId> path = network_.router().Route(0, 15, kSalt);
  ASSERT_EQ(path.size(), 6u);
  const LinkId broken = path[1];

  SimTime done = -1;
  flow_sim_.StartFlow(0, 0, 15, Gbps(20), 0, kSalt, [&](FlowId) { done = scheduler_.Now(); });
  scheduler_.ScheduleAt(0.5, [&] {
    network_.topology().SetLinkUp(broken, false);
    flow_sim_.HandleTopologyChange();
  });
  scheduler_.Run();
  EXPECT_NEAR(done, 2.0, 1e-6);
  EXPECT_EQ(flow_sim_.rerouted_flow_count(), 1u);
  EXPECT_EQ(flow_sim_.completed_flow_count(), 1u);
}

TEST_F(FatTreeFailureTest, UnrelatedFailureAndRestoreNeverMovePinnedFlows) {
  constexpr uint64_t kSalt = 3;
  const std::vector<LinkId> path = network_.router().Route(0, 15, kSalt);
  // A switch-to-switch link NOT on the flow's path (paths never repeat a
  // link, and host links are excluded so reachability is untouched).
  LinkId unrelated = kInvalidLink;
  const Topology& topo = network_.topology();
  for (size_t l = 0; l < topo.num_links(); ++l) {
    const LinkId id = static_cast<LinkId>(l);
    if (IsSwitch(topo.node(topo.link(id).src).kind) &&
        IsSwitch(topo.node(topo.link(id).dst).kind) &&
        std::find(path.begin(), path.end(), id) == path.end()) {
      unrelated = id;
      break;
    }
  }
  ASSERT_NE(unrelated, kInvalidLink);

  SimTime done = -1;
  flow_sim_.StartFlow(0, 0, 15, Gbps(20), 0, kSalt, [&](FlowId) { done = scheduler_.Now(); });
  scheduler_.ScheduleAt(0.25, [&] {
    network_.topology().SetLinkUp(unrelated, false);
    flow_sim_.HandleTopologyChange();
  });
  scheduler_.ScheduleAt(0.75, [&] {
    // Restore: pinned flows must not move even though the link rejoins ECMP.
    network_.topology().SetLinkUp(unrelated, true);
    flow_sim_.HandleTopologyChange();
  });
  scheduler_.Run();
  EXPECT_NEAR(done, 2.0, 1e-6);
  EXPECT_EQ(flow_sim_.rerouted_flow_count(), 0u);
}

// The simulator's map is the only flow table: ForEachActiveFlow must visit
// exactly the live flows, in ascending id, after every way a flow can leave
// or move — a cancel, a completion and a reroute (which needs the fat-tree's
// equal-cost detours).
TEST_F(FatTreeFailureTest, ForEachActiveFlowVisitsTheFlowTableInIdOrder) {
  constexpr uint64_t kSalt = 3;
  const LinkId broken = network_.router().Route(0, 15, kSalt)[1];
  const FlowId rerouted = flow_sim_.StartFlow(0, 0, 15, Gbps(20), 0, kSalt, nullptr);
  const FlowId cancelled = flow_sim_.StartFlow(1, 1, 14, Gbps(20), 0, 0, nullptr);
  const FlowId completed = flow_sim_.StartFlow(2, 4, 5, Gbps(0.5), 0, 0, nullptr);
  const FlowId survivor = flow_sim_.StartFlow(3, 6, 9, Gbps(20), 0, 1, nullptr);

  std::vector<FlowId> visited;
  auto visit = [&] {
    visited.clear();
    flow_sim_.ForEachActiveFlow([&](const ActiveFlow& flow) {
      EXPECT_EQ(flow.rate, flow_sim_.FlowRate(flow.id));
      visited.push_back(flow.id);
    });
  };
  scheduler_.ScheduleAt(0.1, [&] { flow_sim_.CancelFlow(cancelled); });
  scheduler_.ScheduleAt(0.5, [&] {
    network_.topology().SetLinkUp(broken, false);
    flow_sim_.HandleTopologyChange();
  });
  scheduler_.ScheduleAt(0.6, [&] {
    visit();
    EXPECT_EQ(visited.size(), flow_sim_.active_flow_count());
    EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
    EXPECT_EQ(visited, (std::vector<FlowId>{rerouted, survivor}));
  });
  scheduler_.Run();
  EXPECT_EQ(flow_sim_.cancelled_flow_count(), 1u);
  EXPECT_EQ(flow_sim_.rerouted_flow_count(), 1u);
  EXPECT_EQ(flow_sim_.completed_flow_count(), 3u);
  EXPECT_EQ(flow_sim_.FlowRate(completed), 0.0);
  visit();
  EXPECT_TRUE(visited.empty());
}

TEST_F(FatTreeFailureTest, DegradedLinkSlowsTheFlowWithoutRerouting) {
  // 10 Gb at 10 Gb/s; at t=0.25 a path link degrades to 5 Gb/s. 2.5 Gb have
  // drained, the remaining 7.5 Gb take 1.5 s: completion at 1.75 s.
  constexpr uint64_t kSalt = 7;
  const std::vector<LinkId> path = network_.router().Route(0, 15, kSalt);
  const LinkId degraded = path[2];

  SimTime done = -1;
  flow_sim_.StartFlow(0, 0, 15, Gbps(10), 0, kSalt, [&](FlowId) { done = scheduler_.Now(); });
  scheduler_.ScheduleAt(0.25, [&] {
    network_.topology().SetLinkCapacity(degraded, Gbps64(5));
    flow_sim_.NotifyLinkChanged(degraded);
  });
  scheduler_.Run();
  EXPECT_NEAR(done, 1.75, 1e-6);
  EXPECT_EQ(flow_sim_.rerouted_flow_count(), 0u);
}

}  // namespace
}  // namespace saba
