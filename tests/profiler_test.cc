#include "src/core/profiler.h"

#include <gtest/gtest.h>

#include <iterator>

#include "src/workload/workload_catalog.h"

namespace saba {
namespace {

TEST(ProfilerTest, SamplesCoverConfiguredFractions) {
  ProfilerOptions options;
  options.noise_sigma = 0;
  OfflineProfiler profiler(options);
  const ProfileResult result = profiler.Profile(*FindWorkload("LR"));
  ASSERT_EQ(result.samples.size(), std::size(kBandwidthFractions));
  for (size_t i = 0; i < result.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.samples[i].b, kBandwidthFractions[i]);
    EXPECT_GE(result.samples[i].d, 0.99);
  }
}

TEST(ProfilerTest, SlowdownsDecreaseWithBandwidth) {
  ProfilerOptions options;
  options.noise_sigma = 0;
  OfflineProfiler profiler(options);
  const ProfileResult result = profiler.Profile(*FindWorkload("RF"));
  for (size_t i = 1; i < result.samples.size(); ++i) {
    EXPECT_LE(result.samples[i].d, result.samples[i - 1].d + 1e-9);
  }
  // Unthrottled run has slowdown exactly 1 (noise disabled).
  EXPECT_NEAR(result.samples.back().d, 1.0, 1e-9);
}

TEST(ProfilerTest, FitQualityHighForDegreeThree) {
  ProfilerOptions options;
  options.noise_sigma = 0;
  OfflineProfiler profiler(options);
  for (const char* name : {"LR", "SQL", "Sort", "PR"}) {
    const ProfileResult result = profiler.Profile(*FindWorkload(name));
    EXPECT_GT(result.r_squared, 0.90) << name;
  }
}

TEST(ProfilerTest, DegreeOneFitsWorseThanDegreeThreeForSql) {
  // Fig 5/6a: SQL's hockey-stick needs k=3; k=1 explains much less.
  ProfilerOptions k1;
  k1.noise_sigma = 0;
  k1.polynomial_degree = 1;
  ProfilerOptions k3 = k1;
  k3.polynomial_degree = 3;
  const double r2_k1 = OfflineProfiler(k1).Profile(*FindWorkload("SQL")).r_squared;
  const double r2_k3 = OfflineProfiler(k3).Profile(*FindWorkload("SQL")).r_squared;
  EXPECT_LT(r2_k1, r2_k3);
  EXPECT_LT(r2_k1, 0.9);
  EXPECT_GT(r2_k3, 0.93);
}

TEST(ProfilerTest, NoiseKeepsR2BelowOneButHigh) {
  ProfilerOptions options;
  options.noise_sigma = 0.02;
  options.seed = 99;
  OfflineProfiler profiler(options);
  const ProfileResult result = profiler.Profile(*FindWorkload("SVM"));
  EXPECT_LT(result.r_squared, 1.0);
  EXPECT_GT(result.r_squared, 0.85);
}

TEST(ProfilerTest, DeterministicGivenSeed) {
  ProfilerOptions options;
  options.seed = 1234;
  const ProfileResult a = OfflineProfiler(options).Profile(*FindWorkload("WC"));
  const ProfileResult b = OfflineProfiler(options).Profile(*FindWorkload("WC"));
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples[i].d, b.samples[i].d);
  }
}

TEST(ProfilerTest, ProfileAllBuildsFullTable) {
  ProfilerOptions options;
  options.noise_sigma = 0;
  OfflineProfiler profiler(options);
  const SensitivityTable table = profiler.ProfileAll(HiBenchCatalog());
  EXPECT_EQ(table.size(), 10u);
  // Sensitive workloads must have strictly steeper models than insensitive
  // ones in the operating range.
  EXPECT_GT(table.ModelOrDefault("LR").SlowdownAt(0.25),
            table.ModelOrDefault("Sort").SlowdownAt(0.25) + 1.0);
}

TEST(ProfilerTest, ThrottleFloorSaturatesLowFractions) {
  const WorkloadSpec& lr = *FindWorkload("LR");
  const double at_5 = OfflineProfiler::RunIsolated(lr, 0.05, 8, 0.12);
  const double at_12 = OfflineProfiler::RunIsolated(lr, 0.12, 8, 0.12);
  EXPECT_NEAR(at_5, at_12, at_12 * 1e-9);
  // Without the floor, 5% is much slower than 12%.
  const double at_5_nofloor = OfflineProfiler::RunIsolated(lr, 0.05, 8, 0.0);
  EXPECT_GT(at_5_nofloor, at_12 * 1.5);
}

TEST(ProfilerTest, MeasureSlowdownCurveTracksScaledSpec) {
  // Scaling the dataset 10x with equal exponents keeps the curve shape; the
  // measured slowdowns at each fraction should be close to the 1x curve for
  // a workload with low drift (Sort).
  ProfilerOptions options;
  options.noise_sigma = 0;
  OfflineProfiler profiler(options);
  const WorkloadSpec& sort = *FindWorkload("Sort");
  const auto base_curve = profiler.MeasureSlowdownCurve(sort);
  const auto scaled_curve = profiler.MeasureSlowdownCurve(ScaleWorkload(sort, 10.0, 8));
  ASSERT_EQ(base_curve.size(), scaled_curve.size());
  for (size_t i = 0; i < base_curve.size(); ++i) {
    EXPECT_NEAR(base_curve[i].d, scaled_curve[i].d, 0.25);
  }
}

}  // namespace
}  // namespace saba
