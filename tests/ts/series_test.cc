#include "ts/series.h"

#include <gtest/gtest.h>

namespace fedfc::ts {
namespace {

Series MakeSeries(std::vector<double> values) {
  return Series(std::move(values), /*start_epoch=*/1262304000,
                /*interval_seconds=*/3600);
}

TEST(SeriesTest, BasicAccessors) {
  Series s = MakeSeries({1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  EXPECT_EQ(s.TimestampAt(0), 1262304000);
  EXPECT_EQ(s.TimestampAt(2), 1262304000 + 2 * 3600);
  EXPECT_DOUBLE_EQ(s.SamplesPerDay(), 24.0);
}

TEST(SeriesTest, MissingValueAccounting) {
  Series s = MakeSeries({1, MissingValue(), 3, MissingValue()});
  EXPECT_EQ(s.CountMissing(), 2u);
  EXPECT_DOUBLE_EQ(s.MissingFraction(), 0.5);
}

TEST(SeriesTest, SlicePreservesTimeAxis) {
  Series s = MakeSeries({0, 1, 2, 3, 4});
  Series sub = s.Slice(2, 4);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub[0], 2.0);
  EXPECT_EQ(sub.start_epoch(), s.TimestampAt(2));
  EXPECT_EQ(sub.interval_seconds(), s.interval_seconds());
}

TEST(DifferenceTest, FirstAndSecondOrder) {
  std::vector<double> v = {1, 4, 9, 16};
  std::vector<double> d1 = Difference(v, 1);
  ASSERT_EQ(d1.size(), 3u);
  EXPECT_DOUBLE_EQ(d1[0], 3);
  EXPECT_DOUBLE_EQ(d1[2], 7);
  std::vector<double> d2 = Difference(v, 2);
  ASSERT_EQ(d2.size(), 2u);
  EXPECT_DOUBLE_EQ(d2[0], 2);
  EXPECT_DOUBLE_EQ(d2[1], 2);
}

TEST(DifferenceTest, ZeroOrderIsIdentity) {
  std::vector<double> v = {1, 2, 3};
  EXPECT_EQ(Difference(v, 0), v);
}

TEST(DifferenceTest, ShortInputGivesEmpty) {
  EXPECT_TRUE(Difference({1.0}, 1).empty());
  EXPECT_TRUE(Difference({}, 1).empty());
}

TEST(SplitIntoClientsTest, BalancedContiguousSplits) {
  Series s = MakeSeries({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto splits = SplitIntoClients(s, 3);
  ASSERT_TRUE(splits.ok());
  ASSERT_EQ(splits->size(), 3u);
  EXPECT_EQ((*splits)[0].size(), 4u);
  EXPECT_EQ((*splits)[1].size(), 3u);
  EXPECT_EQ((*splits)[2].size(), 3u);
  // Contiguity: client 1 starts where client 0 ends.
  EXPECT_DOUBLE_EQ((*splits)[1][0], 4.0);
  EXPECT_EQ((*splits)[1].start_epoch(), s.TimestampAt(4));
}

TEST(SplitIntoClientsTest, EnforcesMinInstances) {
  Series s = MakeSeries(std::vector<double>(100, 1.0));
  EXPECT_TRUE(SplitIntoClients(s, 5, 20).ok());
  EXPECT_FALSE(SplitIntoClients(s, 5, 21).ok());
  EXPECT_FALSE(SplitIntoClients(s, 0).ok());
}

}  // namespace
}  // namespace fedfc::ts
