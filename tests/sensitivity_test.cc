#include "src/core/sensitivity.h"

#include <gtest/gtest.h>

namespace saba {
namespace {

TEST(SensitivityModelTest, DefaultIsInsensitive) {
  SensitivityModel model;
  EXPECT_DOUBLE_EQ(model.SlowdownAt(0.1), 1.0);
  EXPECT_DOUBLE_EQ(model.SlowdownAt(1.0), 1.0);
}

TEST(SensitivityModelTest, EvaluationClampsInputs) {
  // D(b) = 5 - 4b: D(1) = 1, D(0.5) = 3.
  SensitivityModel model{Polynomial({5.0, -4.0})};
  EXPECT_DOUBLE_EQ(model.SlowdownAt(0.5), 3.0);
  // Below kMinBandwidthFraction, evaluation clamps to the floor.
  EXPECT_DOUBLE_EQ(model.SlowdownAt(0.0), model.SlowdownAt(kMinBandwidthFraction));
  // Above 1 clamps to 1.
  EXPECT_DOUBLE_EQ(model.SlowdownAt(2.0), 1.0);
}

TEST(SensitivityModelTest, OutputsNeverBelowOne) {
  // A fit can dip below 1 at the right edge; evaluation clamps it.
  SensitivityModel model{Polynomial({0.5})};
  EXPECT_DOUBLE_EQ(model.SlowdownAt(0.5), 1.0);
}

TEST(SensitivityModelTest, CoefficientVectorPadsWithZeros) {
  SensitivityModel model{Polynomial({2.0, -1.0})};
  const std::vector<double> v = model.CoefficientVector(4);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  EXPECT_DOUBLE_EQ(v[1], -1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

TEST(SensitivityTableTest, PutFindAndDefault) {
  SensitivityTable table;
  EXPECT_EQ(table.Find("LR"), nullptr);
  SensitivityEntry entry;
  entry.model = SensitivityModel{Polynomial({4.0, -3.0})};
  entry.r_squared = 0.97;
  entry.base_completion_seconds = 140;
  table.Put("LR", entry);
  ASSERT_NE(table.Find("LR"), nullptr);
  EXPECT_DOUBLE_EQ(table.Find("LR")->r_squared, 0.97);
  EXPECT_DOUBLE_EQ(table.ModelOrDefault("LR").SlowdownAt(0.5), 2.5);
  // Unknown workloads fall back to the insensitive default.
  EXPECT_DOUBLE_EQ(table.ModelOrDefault("unknown").SlowdownAt(0.1), 1.0);
}

TEST(SensitivityTableTest, ToCsvExactOutput) {
  // The text examples/profiler_tool prints: one row per workload in ascending
  // name order (Sort is put first), every field at precision 17, and the
  // coefficients in ascending degree.
  SensitivityTable table;
  SensitivityEntry sort;
  sort.model = SensitivityModel{Polynomial({1.5, -0.5})};
  sort.r_squared = 0.91;
  sort.base_completion_seconds = 156;
  table.Put("Sort", sort);
  SensitivityEntry lr;
  lr.model = SensitivityModel{Polynomial({8.1, -17.3, 14.2, -4.0})};
  lr.r_squared = 0.98;
  lr.base_completion_seconds = 140.25;
  table.Put("LR", lr);

  EXPECT_EQ(table.ToCsv(),
            "LR,0.97999999999999998,140.25,8.0999999999999996,-17.300000000000001,"
            "14.199999999999999,-4\n"
            "Sort,0.91000000000000003,156,1.5,-0.5\n");
}

}  // namespace
}  // namespace saba
