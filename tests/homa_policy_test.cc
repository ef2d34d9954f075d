#include "src/baselines/homa_policy.h"

#include <gtest/gtest.h>

#include "src/net/units.h"
#include "src/sim/event_scheduler.h"

namespace saba {
namespace {

class HomaTest : public ::testing::Test {
 protected:
  HomaTest()
      : network_(BuildSingleSwitchStar(4, Gbps64(10)), 8),
        flow_sim_(&scheduler_, &network_, &allocator_) {}

  EventScheduler scheduler_;
  Network network_;
  StrictPriorityAllocator allocator_;
  FlowSimulator flow_sim_;
};

TEST_F(HomaTest, PriorityClassesOrderedBySize) {
  HomaScheduler homa(&flow_sim_, {.num_priorities = 8});
  // Larger remaining size -> numerically larger (worse) class.
  EXPECT_LE(homa.PriorityFor(Bytes(100)), homa.PriorityFor(Kilobytes(1)));
  EXPECT_LE(homa.PriorityFor(Kilobytes(1)), homa.PriorityFor(Kilobytes(8)));
  EXPECT_LT(homa.PriorityFor(Kilobytes(8)), homa.PriorityFor(Kilobytes(20)));
}

TEST_F(HomaTest, AllLargeFlowsShareBottomClass) {
  // The paper's point: every flow beyond the cutoff lands in one queue.
  HomaScheduler homa(&flow_sim_, {.num_priorities = 8});
  EXPECT_EQ(homa.PriorityFor(Kilobytes(11)), 7);
  EXPECT_EQ(homa.PriorityFor(Megabytes(100)), 7);
  EXPECT_EQ(homa.PriorityFor(Gigabytes(5)), 7);
}

TEST_F(HomaTest, TinyFlowsGetTopClass) {
  HomaScheduler homa(&flow_sim_, {.num_priorities = 8});
  EXPECT_EQ(homa.PriorityFor(Bytes(10)), 0);
}

TEST_F(HomaTest, ShortMessageFinishesAheadOfBulkTransfer) {
  HomaScheduler homa(&flow_sim_, {.num_priorities = 8});
  SimTime short_done = -1;
  SimTime bulk_done = -1;
  // Bulk transfer hogging host1 ingress.
  flow_sim_.StartFlow(0, 0, 1, Gigabytes(1), 0, 0,
                      [&](FlowId) { bulk_done = scheduler_.Now(); });
  // Short message on the same bottleneck, arriving slightly later.
  scheduler_.ScheduleAt(0.1, [&] {
    flow_sim_.StartFlow(1, 2, 1, Kilobytes(5), 0, 0,
                        [&](FlowId) { short_done = scheduler_.Now(); });
  });
  scheduler_.Run();
  EXPECT_GT(short_done, 0);
  EXPECT_GT(bulk_done, 0);
  // The short message preempts: it finishes almost immediately, the bulk
  // flow pays (nearly) no extra time.
  EXPECT_LT(short_done, 0.11);
  EXPECT_LT(bulk_done, 0.81);
  EXPECT_GT(bulk_done, 0.79);
}

TEST_F(HomaTest, EqualSizedBulkFlowsShareFairly) {
  HomaScheduler homa(&flow_sim_, {});
  SimTime a_done = -1;
  SimTime b_done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { a_done = scheduler_.Now(); });
  flow_sim_.StartFlow(1, 2, 1, Gbps(10), 0, 0, [&](FlowId) { b_done = scheduler_.Now(); });
  scheduler_.Run();
  // Same class -> max-min within the class -> both ~2 s.
  EXPECT_NEAR(a_done, 2.0, 0.05);
  EXPECT_NEAR(b_done, 2.0, 0.05);
}

TEST_F(HomaTest, PrioritiesRefreshAsFlowsDrain) {
  // A flow that starts above the cutoff ends below it and gains priority.
  HomaScheduler homa(&flow_sim_, {.num_priorities = 8});
  const FlowId id = flow_sim_.StartFlow(0, 0, 1, Kilobytes(12), 0, 0, nullptr);
  scheduler_.RunUntil(1e-7);
  int initial = -1;
  flow_sim_.ForEachActiveFlow([&](const ActiveFlow& flow) {
    if (flow.id == id) {
      initial = flow.priority;
    }
  });
  EXPECT_EQ(initial, 7);
  // Drain most of it, then force a refresh via a new flow elsewhere.
  scheduler_.RunUntil(Kilobytes(11) / Gbps(10));
  flow_sim_.StartFlow(1, 2, 3, Kilobytes(1), 0, 0, nullptr);
  scheduler_.RunUntil(scheduler_.Now() + 1e-7);
  flow_sim_.ForEachActiveFlow([&](const ActiveFlow& flow) {
    if (flow.id == id) {
      EXPECT_LT(flow.priority, 7);
    }
  });
  scheduler_.Run();
}

}  // namespace
}  // namespace saba
