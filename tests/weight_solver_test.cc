#include "src/core/weight_solver.h"

#include <gtest/gtest.h>

#include <numeric>

namespace saba {
namespace {

double Sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

// Convex decreasing quadratic: D(b) = a - 2ab + ab^2 + 1 (min 1 at b=1).
SensitivityModel QuadraticModel(double steepness) {
  return SensitivityModel{Polynomial({steepness + 1.0, -2.0 * steepness, steepness})};
}

TEST(WeightSolverTest, SingleAppGetsEverything) {
  WeightSolver solver;
  Rng rng(1);
  const auto result = solver.Solve({QuadraticModel(3.0)}, &rng);
  ASSERT_EQ(result.weights.size(), 1u);
  EXPECT_DOUBLE_EQ(result.weights[0], 1.0);
}

TEST(WeightSolverTest, WeightsSumToCapacity) {
  WeightSolver solver;
  Rng rng(2);
  const auto result =
      solver.Solve({QuadraticModel(5.0), QuadraticModel(1.0), QuadraticModel(0.2)}, &rng);
  EXPECT_NEAR(Sum(result.weights), 1.0, 1e-9);
  EXPECT_TRUE(result.used_convex_path);
}

TEST(WeightSolverTest, SteeperModelGetsMoreBandwidth) {
  WeightSolver solver;
  Rng rng(3);
  const auto result = solver.Solve({QuadraticModel(8.0), QuadraticModel(0.5)}, &rng);
  EXPECT_GT(result.weights[0], result.weights[1]);
  EXPECT_GT(result.weights[0], 0.55);
}

TEST(WeightSolverTest, EqualModelsSplitEqually) {
  WeightSolver solver;
  Rng rng(4);
  const auto result =
      solver.Solve({QuadraticModel(2.0), QuadraticModel(2.0), QuadraticModel(2.0),
                    QuadraticModel(2.0)},
                   &rng);
  for (double w : result.weights) {
    EXPECT_NEAR(w, 0.25, 1e-6);
  }
}

TEST(WeightSolverTest, RelativeFloorGuaranteesMinimumShare) {
  WeightSolverOptions options;
  options.relative_min_weight = 0.75;
  WeightSolver solver(options);
  Rng rng(5);
  // One extremely steep model against three flat ones: the flat ones keep
  // 75% of their equal share.
  const auto result = solver.Solve(
      {QuadraticModel(50.0), SensitivityModel(), SensitivityModel(), SensitivityModel()}, &rng);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GE(result.weights[i], 0.75 * 0.25 - 1e-9);
  }
  EXPECT_NEAR(Sum(result.weights), 1.0, 1e-9);
  EXPECT_GT(result.weights[0], 0.25);
}

TEST(WeightSolverTest, ManyAppsFloorStaysFeasible) {
  WeightSolverOptions options;
  options.relative_min_weight = 0.75;
  WeightSolver solver(options);
  Rng rng(6);
  std::vector<SensitivityModel> models(200, QuadraticModel(1.0));
  const auto result = solver.Solve(models, &rng);
  EXPECT_NEAR(Sum(result.weights), 1.0, 1e-6);
  for (double w : result.weights) {
    EXPECT_GT(w, 0);
  }
}

TEST(WeightSolverTest, CubicModelsUseConvexFastPath) {
  // Cubic, convex on [0,1]: D(b) = 8 - 18b + 15b^2 - 4b^3 (D'' = 30 - 24b > 0).
  SensitivityModel cubic{Polynomial({8.0, -18.0, 15.0, -4.0})};
  WeightSolverOptions options;
  options.relative_min_weight = 0.02;  // Leave the optimum interior.
  WeightSolver solver(options);
  Rng rng(7);
  const auto result = solver.Solve({cubic, QuadraticModel(1.0)}, &rng);
  EXPECT_TRUE(result.used_convex_path);
  EXPECT_NEAR(Sum(result.weights), 1.0, 1e-9);
  // KKT sanity: marginal slowdowns are equal at an interior optimum.
  const double m0 = cubic.polynomial().Derivative().Evaluate(result.weights[0]);
  const double m1 =
      QuadraticModel(1.0).polynomial().Derivative().Evaluate(result.weights[1]);
  if (result.weights[0] > 0.2 && result.weights[1] > 0.2) {
    EXPECT_NEAR(m0, m1, 1e-4);
  }
}

TEST(WeightSolverTest, NonConvexModelFallsBackToProjectedGradient) {
  // Concave-then-convex quartic is non-convex near zero; a small weight
  // floor keeps the non-convex region inside the feasible box.
  SensitivityModel wavy{Polynomial({3.0, -2.0, -6.0, 8.0, -2.0})};
  WeightSolverOptions options;
  options.relative_min_weight = 0.02;
  WeightSolver solver(options);
  Rng rng(8);
  const auto result = solver.Solve({wavy, QuadraticModel(1.0)}, &rng);
  EXPECT_FALSE(result.used_convex_path);
  EXPECT_NEAR(Sum(result.weights), 1.0, 1e-6);
}

TEST(WeightSolverTest, ObjectiveNoWorseThanEqualSplit) {
  WeightSolver solver;
  Rng rng(9);
  const std::vector<SensitivityModel> models = {QuadraticModel(6.0), QuadraticModel(2.0),
                                                QuadraticModel(0.3), QuadraticModel(1.0)};
  const auto result = solver.Solve(models, &rng);
  double equal_obj = 0;
  for (const auto& m : models) {
    equal_obj += m.polynomial().Evaluate(0.25);
  }
  EXPECT_LE(result.objective, equal_obj + 1e-9);
}

TEST(WeightSolverTest, CapacityBelowOneRespected) {
  WeightSolverOptions options;
  options.capacity = 0.6;  // Operator reserves 40% for non-Saba traffic.
  WeightSolver solver(options);
  Rng rng(10);
  const auto result = solver.Solve({QuadraticModel(4.0), QuadraticModel(1.0)}, &rng);
  EXPECT_NEAR(Sum(result.weights), 0.6, 1e-9);
}

// Random convex cubic 1 + s(1-b) + q(1-b)^2 + c(1-b)^3 with non-negative
// coefficients (convex and non-increasing in b), as fig12 draws them.
SensitivityModel RandomConvexCubic(Rng* rng) {
  const double s = rng->Uniform(0.1, 4.0);
  const double q = rng->Uniform(0.0, 3.0);
  const double c = rng->Uniform(0.0, 2.0);
  return SensitivityModel{Polynomial({1 + s + q + c, -(s + 2 * q + 3 * c), q + 3 * c, -c})};
}

// Property sweep: on random convex cubics the closed form's output satisfies
// the KKT conditions of Eq 2 (feasible, and equal marginals away from the
// bounds).
class KktPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KktPropertyTest, MarginalsEqualAtInteriorOptimum) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t n = static_cast<size_t>(rng.UniformInt(2, 8));
  std::vector<SensitivityModel> models;
  for (size_t i = 0; i < n; ++i) {
    models.push_back(RandomConvexCubic(&rng));
  }
  WeightSolverOptions options;
  options.relative_min_weight = 0.02;  // At n <= 8 the floor is kMinWeight.
  const auto result = WeightSolver(options).Solve(models, &rng);
  EXPECT_TRUE(result.used_convex_path);
  EXPECT_NEAR(Sum(result.weights), 1.0, 1e-9);
  // Collect marginals of coordinates strictly inside the box.
  std::vector<double> marginals;
  for (size_t i = 0; i < n; ++i) {
    const double w = result.weights[i];
    EXPECT_GE(w, kMinWeight);
    if (w > kMinWeight + 1e-3 && w < 1.0 - 1e-3) {
      marginals.push_back(models[i].polynomial().Derivative().Evaluate(w));
    }
  }
  for (size_t i = 1; i < marginals.size(); ++i) {
    EXPECT_NEAR(marginals[i], marginals[0], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KktPropertyTest, ::testing::Range(1, 16));

}  // namespace
}  // namespace saba
