#include "src/numerics/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace saba {
namespace {

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({4, 1}), 2.0);
  EXPECT_NEAR(GeometricMean({2, 8}), 4.0, 1e-12);
  // Geomean <= arithmetic mean, here (1.2 + 3.4 + 0.5 + 2.0) / 4.
  const std::vector<double> xs = {1.2, 3.4, 0.5, 2.0};
  EXPECT_LE(GeometricMean(xs), 7.1 / 4);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 10), 1.4);
}

TEST(StatsTest, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3, 2, 4}, 50), 3.0);
}

TEST(StatsTest, MinMax) {
  EXPECT_DOUBLE_EQ(Min({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(Max({3, 1, 2}), 3.0);
}

}  // namespace
}  // namespace saba
