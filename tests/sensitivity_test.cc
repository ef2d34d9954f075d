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

TEST(SensitivityTableTest, CsvRoundTrip) {
  SensitivityTable table;
  SensitivityEntry lr;
  lr.model = SensitivityModel{Polynomial({8.1, -17.3, 14.2, -4.0})};
  lr.r_squared = 0.98;
  lr.base_completion_seconds = 140.25;
  table.Put("LR", lr);
  SensitivityEntry sort;
  sort.model = SensitivityModel{Polynomial({1.5, -0.5})};
  sort.r_squared = 0.91;
  sort.base_completion_seconds = 156;
  table.Put("Sort", sort);

  const std::string csv = table.ToCsv();
  const auto parsed = SensitivityTable::FromCsv(csv);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
  for (const char* name : {"LR", "Sort"}) {
    const SensitivityEntry* a = table.Find(name);
    const SensitivityEntry* b = parsed->Find(name);
    ASSERT_NE(b, nullptr);
    EXPECT_DOUBLE_EQ(a->r_squared, b->r_squared);
    EXPECT_DOUBLE_EQ(a->base_completion_seconds, b->base_completion_seconds);
    for (double x : {0.1, 0.33, 0.7, 1.0}) {
      EXPECT_DOUBLE_EQ(a->model.SlowdownAt(x), b->model.SlowdownAt(x));
    }
  }
}

TEST(SensitivityTableTest, FromCsvRejectsMalformedRows) {
  EXPECT_FALSE(SensitivityTable::FromCsv("just-a-name").has_value());
  EXPECT_FALSE(SensitivityTable::FromCsv("name,0.9").has_value());
  EXPECT_FALSE(SensitivityTable::FromCsv("name,0.9,100").has_value());  // No coefficients.
  EXPECT_TRUE(SensitivityTable::FromCsv("name,0.9,100,1.0").has_value());
  EXPECT_TRUE(SensitivityTable::FromCsv("").has_value());  // Empty table is fine.
  // Corrupt fields come back as nullopt: no exception, no truncated value.
  EXPECT_FALSE(SensitivityTable::FromCsv("LR,abc,100,1.0").has_value());
  EXPECT_FALSE(SensitivityTable::FromCsv("LR,0.9,100,1e999").has_value());
  EXPECT_FALSE(SensitivityTable::FromCsv("LR,0.9,100,1.0x").has_value());
  // Non-finite fields parse under strtod but would poison the solver.
  EXPECT_FALSE(SensitivityTable::FromCsv("LR,0.9,100,inf,-1").has_value());
  EXPECT_FALSE(SensitivityTable::FromCsv("LR,0.9,100,1.0,-inf").has_value());
  EXPECT_FALSE(SensitivityTable::FromCsv("LR,nan,100,1.0").has_value());
  EXPECT_FALSE(SensitivityTable::FromCsv("LR,0.9,inf,1.0").has_value());
}

}  // namespace
}  // namespace saba
