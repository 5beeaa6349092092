#include "ts/kl_divergence.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/vec_math.h"

namespace fedfc::ts {
namespace {

TEST(HistogramTest, NormalizedAndPositive) {
  std::vector<double> h = SmoothedHistogram({1, 2, 3, 4, 5}, 0, 10, 8);
  EXPECT_NEAR(Sum(h), 1.0, 1e-12);
  for (double b : h) EXPECT_GT(b, 0.0);
}

TEST(HistogramTest, MassLandsInCorrectBins) {
  std::vector<double> h = SmoothedHistogram({0.5, 0.5, 9.5}, 0, 10, 10);
  EXPECT_GT(h[0], h[5]);
  EXPECT_GT(h[9], h[5]);
}

TEST(HistogramTest, OutOfRangeAndNanClamped) {
  std::vector<double> h =
      SmoothedHistogram({-100, 100, std::nan("")}, 0, 10, 4);
  EXPECT_NEAR(Sum(h), 1.0, 1e-12);  // NaN dropped, others clamped to edges.
  EXPECT_GT(h[0], 0.2);
  EXPECT_GT(h[3], 0.2);
}

TEST(KlDivergenceTest, IdenticalDistributionsGiveZero) {
  std::vector<double> p = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-12);
}

TEST(KlDivergenceTest, KnownValue) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {0.9, 0.1};
  double expected = 0.5 * std::log(0.5 / 0.9) + 0.5 * std::log(0.5 / 0.1);
  EXPECT_NEAR(KlDivergence(p, q), expected, 1e-12);
}

TEST(KlDivergenceTest, AsymmetricInGeneral) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {0.9, 0.1};
  EXPECT_NE(KlDivergence(p, q), KlDivergence(q, p));
}

TEST(KlDivergenceTest, NonNegative) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> p(8), q(8);
    for (size_t i = 0; i < 8; ++i) {
      p[i] = rng.Uniform(0.01, 1.0);
      q[i] = rng.Uniform(0.01, 1.0);
    }
    double sp = Sum(p), sq = Sum(q);
    for (size_t i = 0; i < 8; ++i) {
      p[i] /= sp;
      q[i] /= sq;
    }
    EXPECT_GE(KlDivergence(p, q), 0.0);
  }
}

}  // namespace
}  // namespace fedfc::ts
