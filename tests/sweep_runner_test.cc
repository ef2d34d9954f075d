// The sweep engine's determinism contract (DESIGN.md "Determinism &
// threading model"): parallel report rows are byte-for-byte the serial rows
// for every thread count, task panics surface instead of vanishing into a
// worker thread, and adjacent task streams never overlap.

#include "src/exp/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/knobs.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

// A miniature figure task: burns a task-dependent amount of Rng stream (so
// task costs are uneven and threads claim indices out of step) and renders a
// report row, the byte-level artifact the benches emit.
std::string ReportRow(size_t index, Rng* rng) {
  const int draws = 100 + static_cast<int>(index % 7) * 400;
  double acc = 0;
  for (int i = 0; i < draws; ++i) {
    acc += rng->Uniform01();
  }
  std::ostringstream row;
  row << "task " << index << " mean " << acc / draws << " next " << rng->Next();
  return row.str();
}

TEST(SweepRunnerTest, ParallelRowsAreByteIdenticalToSerial) {
  constexpr size_t kTasks = 64;
  constexpr uint64_t kRoot = 42;
  const std::function<std::string(size_t, Rng*)> task = ReportRow;

  SweepRunner serial(1);
  const std::vector<std::string> reference = serial.MapSeeded<std::string>(kTasks, kRoot, task);
  ASSERT_EQ(reference.size(), kTasks);

  for (int jobs : {2, 8}) {
    SweepRunner runner(jobs);
    const std::vector<std::string> parallel = runner.MapSeeded<std::string>(kTasks, kRoot, task);
    ASSERT_EQ(parallel.size(), kTasks);
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(parallel[i], reference[i]) << "row " << i << " diverged at jobs=" << jobs;
    }
  }
}

TEST(SweepRunnerTest, EveryTaskRunsExactlyOnce) {
  constexpr size_t kTasks = 257;  // Not a multiple of the job count.
  for (int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> counts(kTasks);
    SweepRunner runner(jobs);
    runner.Map<int>(kTasks, [&](size_t i) {
      counts[i].fetch_add(1);
      return 0;
    });
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "task " << i << " at jobs=" << jobs;
    }
  }
}

TEST(SweepRunnerTest, TaskPanicsAreSurfacedNotSwallowed) {
  for (int jobs : {1, 2, 8}) {
    SweepRunner runner(jobs);
    try {
      runner.Map<int>(32, [](size_t i) {
        if (i == 11) {
          throw std::runtime_error("task 11 exploded");
        }
        return static_cast<int>(i);
      });
      FAIL() << "sweep swallowed the task exception at jobs=" << jobs;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 11 exploded");
    }
  }
}

TEST(SweepRunnerTest, WithManyFailuresOneRealErrorIsRethrown) {
  // Several tasks throw. Fast-fail skips only tasks above the lowest failed
  // index so far, so the lowest-index thrower always runs and its error is
  // the one surfaced — the serial run's error, at every job count.
  for (int jobs : {1, 8}) {
    SweepRunner runner(jobs);
    try {
      runner.Map<int>(64, [](size_t i) -> int {
        if (i % 9 == 3) {  // Tasks 3, 12, 21, ...
          throw std::runtime_error("task " + std::to_string(i));
        }
        return 0;
      });
      FAIL() << "sweep swallowed the task exceptions at jobs=" << jobs;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 3") << "jobs=" << jobs;
    }
  }
}

TEST(SweepRunnerTest, AdjacentTaskStreamsDoNotOverlap) {
  // The seed-split contract: streams of adjacent task indices (and of
  // neighbouring roots) must be non-overlapping in any realistic prefix.
  constexpr size_t kDraws = 4096;
  for (uint64_t root : {0ull, 1ull, 42ull, 0xdeadbeefdeadbeefull}) {
    for (uint64_t index : {0ull, 1ull, 7ull, 1000ull}) {
      Rng a = Rng::ForStream(root, index);
      Rng b = Rng::ForStream(root, index + 1);
      std::set<uint64_t> seen;
      for (size_t i = 0; i < kDraws; ++i) {
        seen.insert(a.Next());
      }
      for (size_t i = 0; i < kDraws; ++i) {
        EXPECT_EQ(seen.count(b.Next()), 0u)
            << "streams (" << root << ", " << index << ") and +1 collided";
      }
    }
  }
  // Distinct roots must give distinct stream seeds for the same index.
  EXPECT_NE(Rng::StreamSeed(1, 0), Rng::StreamSeed(2, 0));
  EXPECT_NE(Rng::StreamSeed(1, 0), Rng::StreamSeed(1, 1));
}

TEST(SweepRunnerTest, StatsCountTasksAndJobs) {
  SweepRunner runner(4);
  runner.Map<int>(16, [](size_t i) { return static_cast<int>(i); });
  const SweepStats& stats = runner.stats();
  EXPECT_EQ(stats.num_tasks, 16u);
  EXPECT_EQ(stats.jobs, 4);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.task_seconds, 0.0);
  EXPECT_GT(stats.TasksPerSecond(), 0.0);
  EXPECT_FALSE(stats.Summary().empty());
}

TEST(SweepRunnerTest, MoreJobsThanTasksIsCapped) {
  SweepRunner runner(64);
  const std::vector<int> out = runner.Map<int>(3, [](size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(runner.stats().jobs, 3);
}

TEST(SweepRunnerTest, EmptySweepIsANoop) {
  SweepRunner runner(8);
  EXPECT_TRUE(runner.Map<int>(0, [](size_t) { return 1; }).empty());
  EXPECT_EQ(runner.stats().num_tasks, 0u);
}

TEST(KnobsTest, ParseInt64AcceptsWholeIntegersOnly) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("123"), 123);
  EXPECT_EQ(ParseInt64("-7"), -7);
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("12x").has_value());      // std::atoi would give 12.
  EXPECT_FALSE(ParseInt64("x12").has_value());      // std::atoi would give 0.
  EXPECT_FALSE(ParseInt64("4 2").has_value());
  EXPECT_FALSE(ParseInt64(" 42").has_value());
  EXPECT_FALSE(ParseInt64("42 ").has_value());
  EXPECT_FALSE(ParseInt64("1e3").has_value());      // The empty-sweep typo.
  EXPECT_FALSE(ParseInt64("99999999999999999999").has_value());  // Overflow.
}

TEST(KnobsTest, ParseUint64AcceptsTheWholeUnsignedRangeOnly) {
  EXPECT_EQ(ParseUint64("0"), 0u);
  EXPECT_EQ(ParseUint64("18446744073709551615"), std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());  // 2^64 overflows.
  // strtoull takes a sign and reads "-1" as 2^64 - 1.
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("+1").has_value());
  EXPECT_FALSE(ParseUint64("").has_value());
  EXPECT_FALSE(ParseUint64(" 1").has_value());
  EXPECT_FALSE(ParseUint64("1 ").has_value());
  EXPECT_FALSE(ParseUint64("1x").has_value());
}

TEST(KnobsTest, MalformedKnobAbortsInsteadOfZero) {
  // EnvInt on a malformed value must die loudly (exit 2), never return 0.
  // This test *is* the knob machinery's test, so it plants env vars directly.
  ASSERT_EQ(setenv("SABA_TEST_KNOB", "1O0", 1), 0);  // saba-lint: allow(R5): tests knobs itself.
  EXPECT_EXIT(EnvInt("SABA_TEST_KNOB", 5), testing::ExitedWithCode(2), "not an integer");
  ASSERT_EQ(setenv("SABA_TEST_KNOB", "100", 1), 0);  // saba-lint: allow(R5): tests knobs itself.
  EXPECT_EQ(EnvInt("SABA_TEST_KNOB", 5), 100);
  unsetenv("SABA_TEST_KNOB");  // saba-lint: allow(R5): tests knobs itself.
}

}  // namespace
}  // namespace saba
