#include "src/numerics/polynomial.h"

#include <gtest/gtest.h>

namespace saba {
namespace {

TEST(PolynomialTest, ZeroPolynomial) {
  Polynomial p;
  EXPECT_EQ(p.degree(), 0u);
  EXPECT_DOUBLE_EQ(p.Evaluate(3.0), 0.0);
  EXPECT_EQ(p.ToString(), "0");
}

TEST(PolynomialTest, EvaluateMatchesHorner) {
  // 2 - 3x + x^2 at x = 4: 2 - 12 + 16 = 6.
  Polynomial p({2.0, -3.0, 1.0});
  EXPECT_DOUBLE_EQ(p.Evaluate(4.0), 6.0);
  EXPECT_DOUBLE_EQ(p.Evaluate(0.0), 2.0);
}

TEST(PolynomialTest, TrailingZerosTrimmed) {
  Polynomial p({1.0, 2.0, 0.0, 0.0});
  EXPECT_EQ(p.degree(), 1u);
  EXPECT_EQ(p.coefficients().size(), 2u);
}

TEST(PolynomialTest, CoefficientBeyondDegreeIsZero) {
  Polynomial p({1.0, 2.0});
  EXPECT_DOUBLE_EQ(p.coefficient(0), 1.0);
  EXPECT_DOUBLE_EQ(p.coefficient(5), 0.0);
}

TEST(PolynomialTest, Derivative) {
  // d/dx (1 + 2x + 3x^2 + 4x^3) = 2 + 6x + 12x^2.
  Polynomial p({1.0, 2.0, 3.0, 4.0});
  Polynomial d = p.Derivative();
  EXPECT_EQ(d.degree(), 2u);
  EXPECT_DOUBLE_EQ(d.Evaluate(0.0), 2.0);
  EXPECT_DOUBLE_EQ(d.Evaluate(1.0), 20.0);
}

TEST(PolynomialTest, DerivativeOfConstantIsZero) {
  Polynomial p({5.0});
  EXPECT_DOUBLE_EQ(p.Derivative().Evaluate(2.0), 0.0);
}

TEST(PolynomialTest, ConvexityDetection) {
  EXPECT_TRUE(Polynomial({1.0, -2.0, 1.0}).IsConvexOn(0, 1));   // x^2 - 2x + 1.
  EXPECT_FALSE(Polynomial({0.0, 0.0, -1.0}).IsConvexOn(0, 1));  // -x^2.
  // x^3 is convex on [0,1] but not on [-1,0].
  Polynomial cubic({0.0, 0.0, 0.0, 1.0});
  EXPECT_TRUE(cubic.IsConvexOn(0, 1));
  EXPECT_FALSE(cubic.IsConvexOn(-1, 0));
}

TEST(PolynomialTest, ToStringReadable) {
  EXPECT_EQ(Polynomial({2.0, -3.0}).ToString(), "2 - 3*x");
  EXPECT_EQ(Polynomial({0.0, 0.0, 1.5}).ToString(), "1.5*x^2");
}

}  // namespace
}  // namespace saba
