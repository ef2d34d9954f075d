#include "src/sim/event_scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/sim_time.h"

namespace saba {
namespace {

TEST(EventSchedulerTest, StartsAtTimeZero) {
  EventScheduler sched;
  EXPECT_EQ(sched.Now(), 0.0);
}

TEST(EventSchedulerTest, DispatchesInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(3.0, [&] { order.push_back(3); });
  sched.ScheduleAt(1.0, [&] { order.push_back(1); });
  sched.ScheduleAt(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sched.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.Now(), 3.0);
}

TEST(EventSchedulerTest, SameTimeEventsAreFifo) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  sched.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventSchedulerTest, EventsCanScheduleMoreEvents) {
  EventScheduler sched;
  int fired = 0;
  sched.ScheduleAt(1.0, [&] {
    ++fired;
    sched.ScheduleAfter(1.0, [&] { ++fired; });
  });
  sched.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.Now(), 2.0);
}

TEST(EventSchedulerTest, SchedulingAtNowRunsAfterEarlierSameTimeEvents) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(1.0, [&] {
    order.push_back(1);
    sched.ScheduleAt(sched.Now(), [&] { order.push_back(3); });
  });
  sched.ScheduleAt(1.0, [&] { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventSchedulerTest, CancelPreventsDispatch) {
  EventScheduler sched;
  int fired = 0;
  EventHandle handle = sched.ScheduleAt(1.0, [&] { ++fired; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(EventSchedulerTest, CancelIsIdempotentAndSafeOnDefaultHandle) {
  EventScheduler sched;
  EventHandle empty;
  empty.Cancel();  // Must not crash.
  EXPECT_FALSE(empty.pending());
  EventHandle handle = sched.ScheduleAt(1.0, [] {});
  handle.Cancel();
  handle.Cancel();
  sched.Run();
}

TEST(EventSchedulerTest, HandleNotPendingAfterFire) {
  EventScheduler sched;
  EventHandle handle = sched.ScheduleAt(1.0, [] {});
  sched.Run();
  EXPECT_FALSE(handle.pending());
}

TEST(EventSchedulerTest, CancelAfterFireLeavesLaterEventsAlone) {
  EventScheduler sched;
  EventHandle fired_handle = sched.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(sched.Step());
  int later = 0;
  EventHandle later_handle = sched.ScheduleAt(2.0, [&] { ++later; });
  fired_handle.Cancel();  // Stale handle: must not touch the later event.
  EXPECT_FALSE(fired_handle.pending());
  EXPECT_TRUE(later_handle.pending());
  EXPECT_EQ(sched.Run(), 1u);
  EXPECT_EQ(later, 1);
}

TEST(EventSchedulerTest, RunUntilStopsAtDeadline) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(1.0, [&] { order.push_back(1); });
  sched.ScheduleAt(5.0, [&] { order.push_back(5); });
  EXPECT_EQ(sched.RunUntil(3.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.Now(), 3.0);
  EXPECT_EQ(sched.Run(), 1u);
  EXPECT_EQ(sched.Now(), 5.0);
}

TEST(EventSchedulerTest, RunUntilWithCancelledHeadDoesNotStall) {
  EventScheduler sched;
  EventHandle handle = sched.ScheduleAt(1.0, [] {});
  int fired = 0;
  sched.ScheduleAt(2.0, [&] { ++fired; });
  handle.Cancel();
  EXPECT_EQ(sched.RunUntil(10.0), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventSchedulerTest, StepRunsExactlyOneEvent) {
  EventScheduler sched;
  int fired = 0;
  sched.ScheduleAt(1.0, [&] { ++fired; });
  sched.ScheduleAt(2.0, [&] { ++fired; });
  EXPECT_TRUE(sched.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.Step());
  EXPECT_FALSE(sched.Step());
  EXPECT_EQ(fired, 2);
}

TEST(EventSchedulerTest, PendingCountExcludesCancelled) {
  EventScheduler sched;
  EventHandle a = sched.ScheduleAt(1.0, [] {});
  sched.ScheduleAt(2.0, [] {});
  EXPECT_EQ(sched.PendingCount(), 2u);
  a.Cancel();
  EXPECT_EQ(sched.PendingCount(), 1u);
}

TEST(EventSchedulerTest, DispatchedCountAccumulates) {
  EventScheduler sched;
  for (int i = 0; i < 5; ++i) {
    sched.ScheduleAt(static_cast<double>(i), [] {});
  }
  sched.Run();
  EXPECT_EQ(sched.dispatched_count(), 5u);
}

TEST(SimTimeTest, AlmostEqualRespectsEpsilonAndInfinity) {
  EXPECT_TRUE(TimeAlmostEqual(1.0, 1.0 + 1e-10));
  EXPECT_FALSE(TimeAlmostEqual(1.0, 1.0 + 1e-6));
  EXPECT_TRUE(TimeAlmostEqual(kNeverTime, kNeverTime));
  EXPECT_FALSE(TimeAlmostEqual(kNeverTime, 1.0));
}

TEST(SimTimeTest, UnitHelpers) {
  EXPECT_DOUBLE_EQ(Seconds(2.0), 2.0);
  EXPECT_DOUBLE_EQ(Milliseconds(1500.0), 1.5);
  EXPECT_DOUBLE_EQ(Microseconds(1e6), 1.0);
}

}  // namespace
}  // namespace saba
