#include "ts/adf.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "ts/series.h"

namespace fedfc::ts {
namespace {

std::vector<double> StationaryAr1(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 0.0;
  for (size_t t = 0; t < n; ++t) {
    x = 0.5 * x + rng.Normal();
    v[t] = x;
  }
  return v;
}

std::vector<double> RandomWalk(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 0.0;
  for (size_t t = 0; t < n; ++t) {
    x += rng.Normal();
    v[t] = x;
  }
  return v;
}

TEST(AdfTest, StationarySeriesRejectsUnitRoot) {
  Result<AdfResult> r = AdfTest(StationaryAr1(1000, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stationary());
  EXPECT_LT(r->statistic, r->critical_5pct);
}

TEST(AdfTest, RandomWalkFailsToReject) {
  Result<AdfResult> r = AdfTest(RandomWalk(1000, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->stationary());
}

TEST(AdfTest, CriticalValuesOrdered) {
  Result<AdfResult> r = AdfTest(StationaryAr1(500, 3));
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->critical_1pct, r->critical_5pct);
  EXPECT_LT(r->critical_5pct, r->critical_10pct);
  // Near the asymptotic MacKinnon values.
  EXPECT_NEAR(r->critical_5pct, -2.86, 0.05);
}

TEST(AdfTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(AdfTest({1, 2, 3}).ok());               // Too short.
  EXPECT_FALSE(AdfTest(std::vector<double>(100, 5.0)).ok());  // Constant.
}

TEST(AdfTest, ExplicitLagOrder) {
  Result<AdfResult> r = AdfTest(StationaryAr1(500, 4), /*max_lag=*/3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->lags_used, 3u);
}

TEST(IsStationaryTest, FallbackUsedOnFailure) {
  EXPECT_TRUE(IsStationary({1, 2, 3}, /*fallback=*/true));
  EXPECT_FALSE(IsStationary({1, 2, 3}, /*fallback=*/false));
}

// Property sweep: the verdict should be robust across seeds.
class AdfSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdfSweepTest, StationaryVsWalkSeparated) {
  uint64_t seed = GetParam();
  Result<AdfResult> stat = AdfTest(StationaryAr1(1500, seed));
  Result<AdfResult> walk = AdfTest(RandomWalk(1500, seed + 1000));
  ASSERT_TRUE(stat.ok());
  ASSERT_TRUE(walk.ok());
  EXPECT_LT(stat->statistic, walk->statistic);
  EXPECT_TRUE(stat->stationary());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdfSweepTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace fedfc::ts
