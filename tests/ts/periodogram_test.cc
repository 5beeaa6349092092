#include "ts/periodogram.h"

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace fedfc::ts {
namespace {

std::vector<double> Sine(size_t n, double period, double amplitude,
                         double noise_std, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t t = 0; t < n; ++t) {
    v[t] = amplitude *
               std::sin(2.0 * std::numbers::pi * static_cast<double>(t) / period) +
           rng.Normal(0.0, noise_std);
  }
  return v;
}

TEST(PeriodogramTest, TooShortReturnsEmpty) {
  EXPECT_TRUE(DetectSeasonalities({1, 2, 3}).empty());
}

TEST(DetectSeasonalitiesTest, FindsSinglePeriod) {
  auto comps = DetectSeasonalities(Sine(512, 32, 1.0, 0.1, 3));
  ASSERT_FALSE(comps.empty());
  EXPECT_NEAR(comps.front().period, 32.0, 2.0);
  EXPECT_GT(comps.front().strength, 0.2);
}

TEST(DetectSeasonalitiesTest, FindsTwoPeriods) {
  std::vector<double> a = Sine(1024, 12, 1.0, 0.0, 4);
  std::vector<double> b = Sine(1024, 100, 0.8, 0.05, 5);
  std::vector<double> combined(1024);
  for (size_t t = 0; t < 1024; ++t) combined[t] = a[t] + b[t];
  auto comps = DetectSeasonalities(combined, 5);
  ASSERT_GE(comps.size(), 2u);
  bool found12 = false, found100 = false;
  for (const auto& c : comps) {
    if (std::fabs(c.period - 12) < 2) found12 = true;
    if (std::fabs(c.period - 100) < 12) found100 = true;
  }
  EXPECT_TRUE(found12);
  EXPECT_TRUE(found100);
}

TEST(DetectSeasonalitiesTest, WhiteNoiseFindsNothingStrong) {
  Rng rng(6);
  std::vector<double> v(1024);
  for (double& x : v) x = rng.Normal();
  auto comps = DetectSeasonalities(v, 5, /*min_strength=*/0.05);
  EXPECT_TRUE(comps.empty());
}

TEST(DetectSeasonalitiesTest, SuppressesNearDuplicates) {
  auto comps = DetectSeasonalities(Sine(2048, 64, 1.0, 0.02, 7), 5);
  // No two reported periods should be within 15% of each other.
  for (size_t i = 0; i < comps.size(); ++i) {
    for (size_t j = i + 1; j < comps.size(); ++j) {
      EXPECT_GT(std::fabs(comps[i].period - comps[j].period),
                0.15 * comps[i].period);
    }
  }
}

}  // namespace
}  // namespace fedfc::ts
