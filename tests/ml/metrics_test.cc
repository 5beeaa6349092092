#include "ml/metrics.h"
#include <cmath>

#include <gtest/gtest.h>

namespace fedfc::ml {
namespace {

TEST(RegressionMetricsTest, KnownValues) {
  std::vector<double> y = {1, 2, 3};
  std::vector<double> p = {1, 2, 6};
  EXPECT_DOUBLE_EQ(MeanSquaredError(y, p), 3.0);
}

TEST(RegressionMetricsTest, PerfectPrediction) {
  std::vector<double> y = {1, 2, 3};
  EXPECT_DOUBLE_EQ(MeanSquaredError(y, y), 0.0);
}

TEST(ClassificationMetricsTest, Accuracy) {
  EXPECT_DOUBLE_EQ(Accuracy({0, 1, 2, 1}, {0, 1, 1, 1}), 0.75);
}

TEST(ClassificationMetricsTest, MacroF1PerfectAndWorst) {
  std::vector<int> y = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(MacroF1(y, y, 3), 1.0);
  std::vector<int> wrong = {1, 1, 2, 2, 0, 0};
  EXPECT_DOUBLE_EQ(MacroF1(y, wrong, 3), 0.0);
}

TEST(ClassificationMetricsTest, MacroF1KnownValue) {
  // Class 0: tp=1, fn=1, fp=0 -> F1 = 2/3. Class 1: tp=1, fn=0, fp=1 -> 2/3.
  std::vector<int> y = {0, 0, 1};
  std::vector<int> p = {0, 1, 1};
  EXPECT_NEAR(MacroF1(y, p, 2), 2.0 / 3.0, 1e-12);
}

TEST(ClassificationMetricsTest, MacroF1SkipsUnobservedClasses) {
  // Classes 2..5 never appear; they must not dilute the average.
  std::vector<int> y = {0, 1, 0, 1};
  std::vector<int> p = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(MacroF1(y, p, 6), 1.0);
}

TEST(MrrTest, TopRankGivesOne) {
  Matrix proba({{0.7, 0.2, 0.1}});
  EXPECT_DOUBLE_EQ(MeanReciprocalRankAtK({0}, proba, 3), 1.0);
}

TEST(MrrTest, SecondRankGivesHalf) {
  Matrix proba({{0.7, 0.2, 0.1}});
  EXPECT_DOUBLE_EQ(MeanReciprocalRankAtK({1}, proba, 3), 0.5);
}

TEST(MrrTest, OutsideTopKGivesZero) {
  Matrix proba({{0.7, 0.2, 0.1}});
  EXPECT_DOUBLE_EQ(MeanReciprocalRankAtK({2}, proba, 2), 0.0);
}

TEST(MrrTest, AveragesOverSamples) {
  Matrix proba({{0.7, 0.3}, {0.3, 0.7}});
  // First sample true=0 (rank 1), second true=0 (rank 2).
  EXPECT_DOUBLE_EQ(MeanReciprocalRankAtK({0, 0}, proba, 2), 0.75);
}

TEST(WilcoxonTest, IdenticalSamplesNotSignificant) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  WilcoxonResult r = WilcoxonSignedRank(a, a);
  EXPECT_EQ(r.n_effective, 0u);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(WilcoxonTest, ConsistentDominanceIsSignificant) {
  // a always smaller by a varying margin across 12 datasets (paper scale).
  std::vector<double> a, b;
  for (int i = 1; i <= 12; ++i) {
    a.push_back(i);
    b.push_back(i + 0.5 + 0.1 * i);
  }
  WilcoxonResult r = WilcoxonSignedRank(a, b);
  EXPECT_EQ(r.n_effective, 12u);
  EXPECT_LT(r.p_value, 0.05);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);  // All differences negative.
}

TEST(WilcoxonTest, MixedDifferencesNotSignificant) {
  std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> b = {2, 1, 4, 3, 6, 5, 8, 7};
  WilcoxonResult r = WilcoxonSignedRank(a, b);
  EXPECT_GT(r.p_value, 0.5);
}

TEST(AverageRanksTest, CleanOrdering) {
  // Method 0 best on both datasets, method 2 worst.
  std::vector<std::vector<double>> scores = {
      {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  std::vector<double> ranks = AverageRanks(scores);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.0);
  EXPECT_DOUBLE_EQ(ranks[2], 3.0);
}

TEST(AverageRanksTest, TiesShareAverageRank) {
  std::vector<std::vector<double>> scores = {{1.0}, {1.0}, {3.0}};
  std::vector<double> ranks = AverageRanks(scores);
  EXPECT_DOUBLE_EQ(ranks[0], 1.5);
  EXPECT_DOUBLE_EQ(ranks[1], 1.5);
  EXPECT_DOUBLE_EQ(ranks[2], 3.0);
}

TEST(AverageRanksTest, MixedWinners) {
  std::vector<std::vector<double>> scores = {{1.0, 3.0}, {3.0, 1.0}};
  std::vector<double> ranks = AverageRanks(scores);
  EXPECT_DOUBLE_EQ(ranks[0], 1.5);
  EXPECT_DOUBLE_EQ(ranks[1], 1.5);
}

}  // namespace
}  // namespace fedfc::ml
