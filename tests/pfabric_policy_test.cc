#include "src/baselines/pfabric_policy.h"

#include <gtest/gtest.h>

#include "src/net/units.h"
#include "src/sim/event_scheduler.h"

namespace saba {
namespace {

class PFabricTest : public ::testing::Test {
 protected:
  PFabricTest()
      : network_(BuildSingleSwitchStar(4, Gbps64(10)), 8),
        flow_sim_(&scheduler_, &network_, &allocator_) {}

  EventScheduler scheduler_;
  Network network_;
  StrictPriorityAllocator allocator_;
  FlowSimulator flow_sim_;
};

TEST_F(PFabricTest, PriorityMonotoneInRemainingSize) {
  PFabricScheduler pfabric(&flow_sim_);
  double previous = -1;
  for (double bits : {Kilobytes(1), Kilobytes(100), Megabytes(10), Gigabytes(1),
                      Gigabytes(100)}) {
    const int cls = pfabric.PriorityFor(bits);
    EXPECT_GE(cls, previous);
    previous = cls;
  }
}

TEST_F(PFabricTest, DifferentiatesLargeFlowsUnlikeHoma) {
  // The defining contrast with the Homa-like scheduler: 1 MB vs 1 GB land in
  // different classes even though both are far beyond Homa's 10 KB cutoff.
  PFabricScheduler pfabric(&flow_sim_);
  EXPECT_LT(pfabric.PriorityFor(Megabytes(1)), pfabric.PriorityFor(Gigabytes(1)));
}

TEST_F(PFabricTest, SrptShortFlowPreemptsLongFlow) {
  PFabricScheduler pfabric(&flow_sim_);
  SimTime short_done = -1;
  SimTime long_done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(20), 0, 0, [&](FlowId) { long_done = scheduler_.Now(); });
  scheduler_.ScheduleAt(0.1, [&] {
    flow_sim_.StartFlow(1, 2, 1, Gbps(1), 0, 0,
                        [&](FlowId) { short_done = scheduler_.Now(); });
  });
  scheduler_.Run();
  // SRPT: the 1 Gb flow runs to completion first (~0.2 s), the 20 Gb flow
  // finishes at ~2.1 s (it lost 0.1 s of service).
  EXPECT_NEAR(short_done, 0.2, 0.02);
  EXPECT_NEAR(long_done, 2.1, 0.05);
}

TEST_F(PFabricTest, NearCompletionFlowOvertakes) {
  // A long flow that is nearly done outranks a mid-size fresh flow — the
  // "remaining size" part of SRPT.
  PFabricScheduler pfabric(&flow_sim_);
  SimTime big_done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { big_done = scheduler_.Now(); });
  SimTime fresh_done = -1;
  // Arrives when the big flow has only ~0.5 Gb left.
  scheduler_.ScheduleAt(0.95, [&] {
    flow_sim_.StartFlow(1, 2, 1, Gbps(2), 0, 0,
                        [&](FlowId) { fresh_done = scheduler_.Now(); });
  });
  scheduler_.Run();
  EXPECT_LT(big_done, fresh_done);
}

}  // namespace
}  // namespace saba
