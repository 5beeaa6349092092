#include "core/vec_math.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace fedfc {
namespace {

TEST(VecMathTest, DotAndNorms) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32);
}

TEST(VecMathTest, MomentsOfKnownData) {
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
}

TEST(VecMathTest, EmptyAndDegenerateInputs) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({1.0}), 0.0);
  EXPECT_DOUBLE_EQ(Skewness({1.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(ExcessKurtosis({1.0, 2.0, 3.0}), 0.0);
}

TEST(VecMathTest, SkewnessSignMatchesDistributionShape) {
  // Right-skewed data has positive skewness.
  std::vector<double> right = {1, 1, 1, 2, 2, 3, 10};
  EXPECT_GT(Skewness(right), 0.5);
  std::vector<double> left = {-10, -3, -2, -2, -1, -1, -1};
  EXPECT_LT(Skewness(left), -0.5);
  std::vector<double> symmetric = {-2, -1, 0, 1, 2};
  EXPECT_NEAR(Skewness(symmetric), 0.0, 1e-12);
}

TEST(VecMathTest, KurtosisOfNormalSampleIsNearZero) {
  Rng rng(3);
  std::vector<double> v(20000);
  for (double& x : v) x = rng.Normal();
  EXPECT_NEAR(ExcessKurtosis(v), 0.0, 0.15);
}

TEST(VecMathTest, QuantileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
}

TEST(VecMathTest, PearsonCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> ny = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, ny), -1.0, 1e-12);
  std::vector<double> constant = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, constant), 0.0);
}

TEST(VecMathTest, SoftmaxSumsToOneAndIsStable) {
  std::vector<double> p = Softmax({1000.0, 1000.0, 1000.0});
  EXPECT_NEAR(p[0], 1.0 / 3.0, 1e-12);
  double total = 0.0;
  for (double v : Softmax({-3, 0, 5})) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(VecMathTest, LogSumExpMatchesDirectComputation) {
  std::vector<double> v = {0.1, 0.5, -0.3};
  double direct = std::log(std::exp(0.1) + std::exp(0.5) + std::exp(-0.3));
  EXPECT_NEAR(LogSumExp(v), direct, 1e-12);
}

TEST(VecMathTest, Argsort) {
  std::vector<double> v = {3.0, 1.0, 2.0};
  std::vector<size_t> desc = ArgsortDescending(v);
  EXPECT_EQ(desc[0], 0u);
  EXPECT_EQ(desc[1], 2u);
  EXPECT_EQ(desc[2], 1u);
  std::vector<size_t> asc = ArgsortAscending(v);
  EXPECT_EQ(asc[0], 1u);
  EXPECT_EQ(asc[2], 0u);
}

TEST(VecMathTest, ArgsortIsStableForTies) {
  std::vector<double> v = {1.0, 1.0, 1.0};
  std::vector<size_t> asc = ArgsortAscending(v);
  EXPECT_EQ(asc[0], 0u);
  EXPECT_EQ(asc[1], 1u);
  EXPECT_EQ(asc[2], 2u);
}

TEST(VecMathTest, VectorArithmetic) {
  std::vector<double> a = {1, 2};
  std::vector<double> b = {3, 4};
  Axpy(2.0, b, &a);
  EXPECT_DOUBLE_EQ(a[0], 7);
  EXPECT_DOUBLE_EQ(a[1], 10);
}

TEST(VecMathTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5, 0, 1), 1);
  EXPECT_DOUBLE_EQ(Clamp(-5, 0, 1), 0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0, 1), 0.5);
}

}  // namespace
}  // namespace fedfc
