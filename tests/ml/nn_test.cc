#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "ml/metrics.h"
#include "ml/nn/adam.h"
#include "ml/nn/dense.h"
#include "ml/nn/mlp.h"
#include "ml/nn/nbeats.h"

namespace fedfc::ml {
namespace {

TEST(DenseLayerTest, ForwardComputesAffineMap) {
  nn::DenseLayer layer(2, 1, nn::Activation::kIdentity);
  std::vector<double> params = {2.0, 3.0, 0.5};  // w = [2, 3], b = 0.5.
  layer.LoadParameters(params, 0);
  Matrix x({{1.0, 1.0}});
  Matrix out = layer.Forward(x);
  EXPECT_DOUBLE_EQ(out(0, 0), 5.5);
  Matrix out2 = layer.ForwardInference(x);
  EXPECT_DOUBLE_EQ(out2(0, 0), 5.5);
}

TEST(DenseLayerTest, ReluClampsNegativePreActivations) {
  nn::DenseLayer layer(1, 1, nn::Activation::kRelu);
  layer.LoadParameters({1.0, 0.0}, 0);
  Matrix neg({{-2.0}});
  EXPECT_DOUBLE_EQ(layer.Forward(neg)(0, 0), 0.0);
  Matrix pos({{2.0}});
  EXPECT_DOUBLE_EQ(layer.Forward(pos)(0, 0), 2.0);
}

TEST(DenseLayerTest, BackwardMatchesNumericalGradient) {
  Rng rng(1);
  nn::DenseLayer layer(3, 2, nn::Activation::kRelu);
  layer.Init(&rng);
  Matrix x({{0.5, -0.3, 0.8}});

  // Analytic gradient of L = sum(out) wrt input.
  layer.ZeroGrads();
  Matrix out = layer.Forward(x);
  Matrix ones(1, 2, 1.0);
  Matrix grad_in = layer.Backward(ones);

  // Numerical check.
  const double eps = 1e-6;
  for (size_t j = 0; j < 3; ++j) {
    Matrix xp = x, xm = x;
    xp(0, j) += eps;
    xm(0, j) -= eps;
    double lp = 0.0, lm = 0.0;
    Matrix op = layer.ForwardInference(xp);
    Matrix om = layer.ForwardInference(xm);
    for (size_t c = 0; c < 2; ++c) {
      lp += op(0, c);
      lm += om(0, c);
    }
    EXPECT_NEAR(grad_in(0, j), (lp - lm) / (2 * eps), 1e-5);
  }
}

TEST(DenseLayerTest, ParameterRoundTrip) {
  Rng rng(2);
  nn::DenseLayer layer(4, 3, nn::Activation::kIdentity);
  layer.Init(&rng);
  std::vector<double> params;
  layer.AppendParameters(&params);
  EXPECT_EQ(params.size(), 4u * 3u + 3u);
  nn::DenseLayer clone(4, 3, nn::Activation::kIdentity);
  EXPECT_EQ(clone.LoadParameters(params, 0), params.size());
  Matrix x({{1, 2, 3, 4}});
  Matrix a = layer.ForwardInference(x);
  Matrix b = clone.ForwardInference(x);
  for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(a(0, c), b(0, c));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 with Adam.
  double w = 0.0, g = 0.0;
  nn::AdamOptimizer::Config cfg;
  cfg.learning_rate = 0.1;
  nn::AdamOptimizer adam(cfg);
  std::vector<nn::ParamSpan> spans = {{&w, &g, 1}};
  for (int iter = 0; iter < 500; ++iter) {
    g = 2.0 * (w - 3.0);
    adam.Step(spans);
  }
  EXPECT_NEAR(w, 3.0, 0.01);
  EXPECT_EQ(adam.step_count(), 500u);
}

TEST(AdamTest, ResetClearsState) {
  double w = 0.0, g = 1.0;
  nn::AdamOptimizer adam;
  std::vector<nn::ParamSpan> spans = {{&w, &g, 1}};
  adam.Step(spans);
  adam.Reset();
  EXPECT_EQ(adam.step_count(), 0u);
}

TEST(MlpClassifierTest, LearnsXor) {
  // XOR: not linearly separable, requires the hidden layer.
  Matrix x({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  std::vector<int> y = {0, 1, 1, 0};
  // Replicate to give SGD enough batches.
  Matrix xr(400, 2);
  std::vector<int> yr(400);
  for (size_t i = 0; i < 400; ++i) {
    xr(i, 0) = x(i % 4, 0);
    xr(i, 1) = x(i % 4, 1);
    yr[i] = y[i % 4];
  }
  MlpClassifier::Config cfg;
  cfg.hidden = {16};
  cfg.epochs = 60;
  cfg.learning_rate = 5e-3;
  MlpClassifier model(cfg);
  Rng rng(3);
  ASSERT_TRUE(model.Fit(xr, yr, 2, &rng).ok());
  EXPECT_GT(Accuracy(yr, model.Predict(xr)), 0.95);
}

TEST(MlpClassifierTest, ProbabilitiesNormalized) {
  Rng rng(4);
  Matrix x(100, 3);
  std::vector<int> y(100);
  for (size_t i = 0; i < 100; ++i) {
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.Normal();
    y[i] = static_cast<int>(i % 3);
  }
  MlpClassifier::Config cfg;
  cfg.epochs = 5;
  MlpClassifier model(cfg);
  ASSERT_TRUE(model.Fit(x, y, 3, &rng).ok());
  Matrix proba = model.PredictProba(x);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(proba(i, 0) + proba(i, 1) + proba(i, 2), 1.0, 1e-9);
  }
}

TEST(MakeLagWindowsTest, ShapesAndContent) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  Matrix x;
  std::vector<double> y;
  ASSERT_TRUE(MakeLagWindows(v, 2, &x, &y));
  EXPECT_EQ(x.rows(), 3u);
  EXPECT_EQ(x.cols(), 2u);
  EXPECT_DOUBLE_EQ(x(0, 0), 1);
  EXPECT_DOUBLE_EQ(x(0, 1), 2);
  EXPECT_DOUBLE_EQ(y[0], 3);
  EXPECT_DOUBLE_EQ(y[2], 5);
}

TEST(MakeLagWindowsTest, RejectsTooShort) {
  Matrix x;
  std::vector<double> y;
  EXPECT_FALSE(MakeLagWindows({1, 2}, 2, &x, &y));
  EXPECT_FALSE(MakeLagWindows({1, 2, 3}, 0, &x, &y));
}

ml::NBeatsConfig TinyNBeats() {
  ml::NBeatsConfig cfg;
  cfg.n_generic_blocks = 1;
  cfg.n_trend_blocks = 1;
  cfg.n_seasonal_blocks = 1;
  cfg.generic_width = 16;
  cfg.trend_width = 16;
  cfg.seasonal_width = 16;
  cfg.n_trunk_layers = 2;
  cfg.epochs = 40;
  cfg.batch_size = 64;
  cfg.learning_rate = 5e-3;
  return cfg;
}

TEST(NBeatsTest, LearnsSineOneStepAhead) {
  std::vector<double> v(400);
  for (size_t t = 0; t < v.size(); ++t) {
    v[t] = std::sin(2.0 * std::numbers::pi * static_cast<double>(t) / 16.0);
  }
  Matrix x;
  std::vector<double> y;
  ASSERT_TRUE(MakeLagWindows(v, 16, &x, &y));
  NBeatsRegressor model(TinyNBeats());
  Rng rng(5);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  double mse = MeanSquaredError(y, model.Predict(x));
  // Naive "repeat last value" on a period-16 sine has MSE ~ 0.076.
  EXPECT_LT(mse, 0.05);
}

TEST(NBeatsTest, ParameterRoundTripPreservesPredictions) {
  std::vector<double> v(200);
  Rng data_rng(6);
  for (double& x : v) x = data_rng.Normal();
  Matrix x;
  std::vector<double> y;
  ASSERT_TRUE(MakeLagWindows(v, 8, &x, &y));
  ml::NBeatsConfig cfg = TinyNBeats();
  cfg.epochs = 3;
  NBeatsRegressor model(cfg);
  Rng rng(7);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  std::vector<double> params = model.GetParameters();
  EXPECT_EQ(params.size(), model.n_params() + 2);  // + scaler state.

  NBeatsRegressor clone(cfg);
  Rng rng2(8);
  ASSERT_TRUE(clone.Build(8, &rng2).ok());
  ASSERT_TRUE(clone.SetParameters(params).ok());
  std::vector<double> a = model.Predict(x);
  std::vector<double> b = clone.Predict(x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-10);
}

TEST(NBeatsTest, SetParametersRejectsWrongSize) {
  NBeatsRegressor model(TinyNBeats());
  Rng rng(9);
  ASSERT_TRUE(model.Build(8, &rng).ok());
  EXPECT_FALSE(model.SetParameters({1.0, 2.0}).ok());
  NBeatsRegressor unbuilt(TinyNBeats());
  EXPECT_FALSE(unbuilt.SetParameters({1.0}).ok());
}

TEST(NBeatsTest, SupportsParameterAveraging) {
  // FedAvg needs same-length flat parameters that load back: the elementwise
  // mean of two same-config models is itself a loadable model.
  ml::NBeatsConfig cfg = TinyNBeats();
  NBeatsRegressor a(cfg);
  NBeatsRegressor b(cfg);
  Rng rng_a(10);
  Rng rng_b(11);
  ASSERT_TRUE(a.Build(8, &rng_a).ok());
  ASSERT_TRUE(b.Build(8, &rng_b).ok());
  std::vector<double> pa = a.GetParameters();
  std::vector<double> pb = b.GetParameters();
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_NE(pa, pb);  // Differently seeded initializations.
  std::vector<double> avg(pa.size());
  for (size_t i = 0; i < avg.size(); ++i) avg[i] = 0.5 * (pa[i] + pb[i]);
  NBeatsRegressor global(cfg);
  Rng rng_g(12);
  ASSERT_TRUE(global.Build(8, &rng_g).ok());
  ASSERT_TRUE(global.SetParameters(avg).ok());
  EXPECT_EQ(global.GetParameters(), avg);
}

TEST(NBeatsTest, RejectsMultiStepHorizonThroughRegressorApi) {
  ml::NBeatsConfig cfg = TinyNBeats();
  cfg.horizon = 3;
  NBeatsRegressor model(cfg);
  Matrix x(20, 8, 0.5);
  std::vector<double> y(20, 0.5);
  Rng rng(10);
  EXPECT_FALSE(model.Fit(x, y, &rng).ok());
}

}  // namespace
}  // namespace fedfc::ml
