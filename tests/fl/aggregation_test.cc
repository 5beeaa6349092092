#include "fl/aggregation.h"

#include <gtest/gtest.h>

#include <vector>

namespace fedfc::fl {
namespace {

TEST(ScalarAccumulatorTest, RawWeightMeanIsEquationOne) {
  // Raw example counts |D_j|, never normalized by the caller.
  ScalarAccumulator acc;
  acc.Add(30.0, 1.0);
  acc.Add(10.0, 5.0);
  acc.Add(60.0, -2.0);
  Result<double> mean = acc.Mean();
  ASSERT_TRUE(mean.ok()) << mean.status();
  EXPECT_NEAR(*mean, (30.0 * 1.0 + 10.0 * 5.0 + 60.0 * -2.0) / 100.0, 1e-12);
}

TEST(ScalarAccumulatorTest, WeightScaleDoesNotMatter) {
  // alpha_j = |D_j| / |D|: scaling every weight leaves the mean unchanged.
  ScalarAccumulator raw;
  ScalarAccumulator scaled;
  raw.Add(3.0, 2.0);
  raw.Add(1.0, 6.0);
  scaled.Add(3000.0, 2.0);
  scaled.Add(1000.0, 6.0);
  ASSERT_TRUE(raw.Mean().ok());
  ASSERT_TRUE(scaled.Mean().ok());
  EXPECT_NEAR(*raw.Mean(), 3.0, 1e-12);
  EXPECT_NEAR(*scaled.Mean(), *raw.Mean(), 1e-12);
}

TEST(ScalarAccumulatorTest, MeanOfNothingIsInvalidArgument) {
  ScalarAccumulator acc;
  EXPECT_EQ(acc.Mean().status().code(), StatusCode::kInvalidArgument);
}

TEST(TensorAccumulatorTest, RawWeightElementwiseMean) {
  TensorAccumulator acc;
  ASSERT_TRUE(acc.Add(30.0, {1.0, 2.0, 0.0}).ok());
  ASSERT_TRUE(acc.Add(10.0, {5.0, -2.0, 4.0}).ok());
  Result<std::vector<double>> mean = acc.Mean();
  ASSERT_TRUE(mean.ok()) << mean.status();
  ASSERT_EQ(mean->size(), 3u);
  EXPECT_NEAR((*mean)[0], (30.0 * 1.0 + 10.0 * 5.0) / 40.0, 1e-12);
  EXPECT_NEAR((*mean)[1], (30.0 * 2.0 + 10.0 * -2.0) / 40.0, 1e-12);
  EXPECT_NEAR((*mean)[2], (10.0 * 4.0) / 40.0, 1e-12);
}

TEST(TensorAccumulatorTest, MeanOfNothingIsInvalidArgument) {
  TensorAccumulator acc;
  EXPECT_EQ(acc.Mean().status().code(), StatusCode::kInvalidArgument);
}

TEST(TensorAccumulatorTest, SizeMismatchIsRejectedAndLeavesTheFoldIntact) {
  TensorAccumulator acc;
  ASSERT_TRUE(acc.Add(1.0, {2.0, 4.0}).ok());
  Status bad = acc.Add(1.0, {1.0, 2.0, 3.0});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  Result<std::vector<double>> mean = acc.Mean();
  ASSERT_TRUE(mean.ok()) << mean.status();
  EXPECT_EQ(*mean, (std::vector<double>{2.0, 4.0}));
}

TEST(TensorAccumulatorTest, EmptyFirstTensorPinsTheShape) {
  // A zero-length first tensor fixes the shape at zero: a later non-empty
  // tensor is a mismatch, not a silent re-initialization.
  TensorAccumulator acc;
  ASSERT_TRUE(acc.Add(1.0, {}).ok());
  EXPECT_EQ(acc.Add(1.0, {1.0}).code(), StatusCode::kInvalidArgument);
  Result<std::vector<double>> mean = acc.Mean();
  ASSERT_TRUE(mean.ok()) << mean.status();
  EXPECT_TRUE(mean->empty());
}

}  // namespace
}  // namespace fedfc::fl
