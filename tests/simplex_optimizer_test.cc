#include "src/numerics/simplex_optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace saba {
namespace {

double Sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

TEST(ProjectionTest, FeasiblePointUnchanged) {
  SimplexConstraints c{.capacity = 1.0, .lower_bound = 0.0, .upper_bound = 1.0};
  const std::vector<double> w = ProjectToCapacitySimplex({0.3, 0.7}, c);
  EXPECT_NEAR(w[0], 0.3, 1e-9);
  EXPECT_NEAR(w[1], 0.7, 1e-9);
}

TEST(ProjectionTest, SumConstraintHolds) {
  SimplexConstraints c{.capacity = 1.0, .lower_bound = 0.05, .upper_bound = 1.0};
  const std::vector<double> w = ProjectToCapacitySimplex({10.0, -5.0, 0.2, 0.0}, c);
  EXPECT_NEAR(Sum(w), 1.0, 1e-9);
  for (double x : w) {
    EXPECT_GE(x, 0.05 - 1e-12);
    EXPECT_LE(x, 1.0 + 1e-12);
  }
}

TEST(ProjectionTest, PreservesOrdering) {
  // Projection onto the simplex preserves the order of coordinates.
  SimplexConstraints c{.capacity = 1.0, .lower_bound = 0.0, .upper_bound = 1.0};
  const std::vector<double> w = ProjectToCapacitySimplex({0.9, 0.6, 0.3, 0.1}, c);
  for (size_t i = 1; i < w.size(); ++i) {
    EXPECT_LE(w[i], w[i - 1] + 1e-9);
  }
}

TEST(ProjectionTest, TightBoundsForceEqualSplit) {
  SimplexConstraints c{.capacity = 1.0, .lower_bound = 0.25, .upper_bound = 0.25};
  const std::vector<double> w = ProjectToCapacitySimplex({0.9, 0.0, 0.5, 0.2}, c);
  for (double x : w) {
    EXPECT_NEAR(x, 0.25, 1e-9);
  }
}

// Quadratic bowls with distinct minima: the constrained optimum is known in
// closed form via KKT.
ScalarObjective Quadratic(double center, double curvature) {
  return {[center, curvature](double w) { return curvature * (w - center) * (w - center); },
          [center, curvature](double w) { return 2 * curvature * (w - center); }};
}

TEST(ProjectedGradientTest, MatchesConvexSolverOnConvexProblem) {
  // The KKT optimum of three bowls k_i (w_i - c_i)^2 on the simplex is
  // interior: 2 k_i (w_i - c_i) = lambda with
  // lambda = (1 - sum c_i) / sum 1/(2 k_i) = -12/7, so
  // w = (11/14, 1/7, 1/14) and the objective is 9/7.
  std::vector<ScalarObjective> objectives = {Quadratic(1.0, 4.0), Quadratic(1.0, 1.0),
                                             Quadratic(0.5, 2.0)};
  SimplexConstraints c{.capacity = 1.0, .lower_bound = 0.01, .upper_bound = 1.0};
  Rng rng(3);
  const auto pg = MinimizeSeparableProjectedGradient(objectives, c, &rng);
  EXPECT_NEAR(pg.objective, 9.0 / 7.0, 1e-3);
  EXPECT_NEAR(Sum(pg.weights), 1.0, 1e-6);
  const double optimum[] = {11.0 / 14.0, 1.0 / 7.0, 1.0 / 14.0};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(pg.weights[i], optimum[i], 1e-3);
  }
}

TEST(ProjectedGradientTest, HandlesNonConvexObjective) {
  // One objective has a local bump; multi-start should still find a solution
  // no worse than the equal split.
  ScalarObjective bumpy = {
      [](double w) { return std::cos(6.0 * w) + 2.0 * (1.0 - w); },
      [](double w) { return -6.0 * std::sin(6.0 * w) - 2.0; }};
  std::vector<ScalarObjective> objectives = {bumpy, Quadratic(0.2, 1.0)};
  SimplexConstraints c{.capacity = 1.0, .lower_bound = 0.05, .upper_bound = 1.0};
  Rng rng(7);
  const auto result = MinimizeSeparableProjectedGradient(objectives, c, &rng);
  const double equal_split =
      objectives[0].value(0.5) + objectives[1].value(0.5);
  EXPECT_LE(result.objective, equal_split + 1e-9);
  EXPECT_NEAR(Sum(result.weights), 1.0, 1e-6);
}

TEST(ProjectedGradientTest, DeterministicGivenSeed) {
  std::vector<ScalarObjective> objectives = {Quadratic(0.8, 3.0), Quadratic(0.3, 1.0)};
  SimplexConstraints c{.capacity = 1.0, .lower_bound = 0.0, .upper_bound = 1.0};
  Rng a(11);
  Rng b(11);
  const auto ra = MinimizeSeparableProjectedGradient(objectives, c, &a);
  const auto rb = MinimizeSeparableProjectedGradient(objectives, c, &b);
  EXPECT_EQ(ra.weights, rb.weights);
}

}  // namespace
}  // namespace saba
