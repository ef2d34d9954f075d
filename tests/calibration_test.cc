// Calibration guard: the workload models must keep reproducing the paper's
// measured slowdown anchors (Fig 1a, Fig 2, Fig 5). If a catalog change moves
// a workload's sensitivity outside these bands, the evaluation figures drift
// too — fail here first, with a readable message.

#include <gtest/gtest.h>

#include "src/core/profiler.h"
#include "src/workload/workload_catalog.h"

namespace saba {
namespace {

double SlowdownAt(const WorkloadSpec& spec, double fraction) {
  const double base = OfflineProfiler::RunIsolated(spec, 1.0, 8);
  const double throttled = OfflineProfiler::RunIsolated(spec, fraction, 8);
  return throttled / base;
}

struct Anchor {
  const char* workload;
  double fraction;
  double expected;   // Paper's measurement.
  double tolerance;  // Acceptable absolute deviation.
};

class CalibrationTest : public ::testing::TestWithParam<Anchor> {};

TEST_P(CalibrationTest, SlowdownMatchesPaperAnchor) {
  const Anchor& anchor = GetParam();
  const WorkloadSpec* spec = FindWorkload(anchor.workload);
  ASSERT_NE(spec, nullptr);
  const double slowdown = SlowdownAt(*spec, anchor.fraction);
  EXPECT_NEAR(slowdown, anchor.expected, anchor.tolerance)
      << anchor.workload << " at " << anchor.fraction * 100 << "% bandwidth";
}

INSTANTIATE_TEST_SUITE_P(
    Fig1aAnchors, CalibrationTest,
    ::testing::Values(
        // §2.1/Fig 1a: "the slowdown of applications varies from 1.1x (Sort)
        // to 3.4x (LR)" at 25%; "LR suffers a 1.3x penalty at 75%".
        Anchor{"LR", 0.25, 3.4, 0.25}, Anchor{"LR", 0.75, 1.3, 0.12},
        Anchor{"Sort", 0.25, 1.1, 0.08}, Anchor{"PR", 0.25, 1.4, 0.12},
        // §2.3: PR's completion grows 1.37x from 75% to 25% — both anchored.
        Anchor{"PR", 0.75, 1.05, 0.08},
        // Fig 5: SQL is nearly flat at 25%...
        Anchor{"SQL", 0.25, 1.15, 0.12},
        // ...and degrades steeply by 10% (paper: 2.2x; our hockey-stick
        // model lands in the same regime).
        Anchor{"SQL", 0.10, 2.6, 0.45},
        // Fig 8a orders RF and LR as the most sensitive workloads.
        Anchor{"RF", 0.25, 3.45, 0.25}, Anchor{"GBT", 0.25, 2.7, 0.25},
        Anchor{"SVM", 0.25, 2.5, 0.25}, Anchor{"NI", 0.25, 2.15, 0.25},
        Anchor{"NW", 0.25, 1.95, 0.25}, Anchor{"WC", 0.25, 1.45, 0.15}),
    [](const ::testing::TestParamInfo<Anchor>& info) {
      return std::string(info.param.workload) + "_bw" +
             std::to_string(static_cast<int>(info.param.fraction * 100));
    });

TEST(CalibrationSummaryTest, AverageSlowdownAt25PercentNearPaper) {
  // §2.1: "with 25% of bandwidth ... an average of 2.1x".
  double total = 0;
  for (const WorkloadSpec& spec : HiBenchCatalog()) {
    total += SlowdownAt(spec, 0.25);
  }
  EXPECT_NEAR(total / 10.0, 2.1, 0.2);
}

TEST(CalibrationSummaryTest, PrBaseCompletionNearPaperTimeline) {
  // Fig 2b: PR completes in ~310 s at 75% bandwidth, ~427 s at 25%.
  const WorkloadSpec* pr = FindWorkload("PR");
  ASSERT_NE(pr, nullptr);
  EXPECT_NEAR(OfflineProfiler::RunIsolated(*pr, 0.75, 8), 310, 40);
  EXPECT_NEAR(OfflineProfiler::RunIsolated(*pr, 0.25, 8), 427, 60);
}

TEST(CalibrationSummaryTest, LrCompletionRatioNearPaperTimeline) {
  // §2.3: LR goes from 172 s at 75% to 447 s at 25% (2.59x).
  const WorkloadSpec* lr = FindWorkload("LR");
  ASSERT_NE(lr, nullptr);
  const double t75 = OfflineProfiler::RunIsolated(*lr, 0.75, 8);
  const double t25 = OfflineProfiler::RunIsolated(*lr, 0.25, 8);
  EXPECT_NEAR(t25 / t75, 2.59, 0.3);
}

}  // namespace
}  // namespace saba
