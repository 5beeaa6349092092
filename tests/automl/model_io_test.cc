#include "automl/model_io.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/rng.h"
#include "ml/linear/huber.h"
#include "ml/tree/gbdt.h"

namespace fedfc::automl {
namespace {

struct Problem {
  Matrix x;
  std::vector<double> y;
};

Problem MakeProblem(double slope, uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.x = Matrix(120, 2);
  p.y.resize(120);
  for (size_t i = 0; i < 120; ++i) {
    p.x(i, 0) = rng.Uniform(-2, 2);
    p.x(i, 1) = rng.Uniform(-2, 2);
    p.y[i] = slope * p.x(i, 0) + 0.5 * p.x(i, 1);
  }
  return p;
}

Configuration HuberConfig() {
  Configuration c;
  c.algorithm = AlgorithmId::kHuber;
  c.categorical["epsilon"] = "1.35";
  c.numeric["alpha"] = 1e-4;
  return c;
}

Configuration XgbConfig() {
  Configuration c;
  c.algorithm = AlgorithmId::kXgb;
  c.numeric = {{"n_estimators", 10},
               {"max_depth", 3},
               {"learning_rate", 0.2},
               {"reg_lambda", 1.0},
               {"subsample", 1.0}};
  return c;
}

TEST(ModelIoTest, LinearRoundTrip) {
  Problem p = MakeProblem(2.0, 1);
  Configuration config = HuberConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  ASSERT_TRUE(model.ok());
  Rng rng(2);
  ASSERT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
  Result<std::vector<double>> blob = SerializeModel(config, **model);
  ASSERT_TRUE(blob.ok());
  Result<std::unique_ptr<ml::Regressor>> restored =
      DeserializeModel(config, *blob);
  ASSERT_TRUE(restored.ok());
  std::vector<double> a = (*model)->Predict(p.x);
  std::vector<double> b = (*restored)->Predict(p.x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ModelIoTest, XgbRoundTrip) {
  Problem p = MakeProblem(3.0, 3);
  Configuration config = XgbConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  ASSERT_TRUE(model.ok());
  Rng rng(4);
  ASSERT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
  Result<std::vector<double>> blob = SerializeModel(config, **model);
  ASSERT_TRUE(blob.ok());
  Result<std::unique_ptr<ml::Regressor>> restored =
      DeserializeModel(config, *blob);
  ASSERT_TRUE(restored.ok());
  std::vector<double> a = (*model)->Predict(p.x);
  std::vector<double> b = (*restored)->Predict(p.x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ModelIoTest, SerializeRejectsUnfittedLinear) {
  Configuration config = HuberConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(SerializeModel(config, **model).ok());
}

TEST(AggregateBlobsTest, LinearBlobsAverage) {
  ModelBlobAccumulator acc(HuberConfig());
  ASSERT_TRUE(acc.Add(0.5, {2.0, 4.0, 1.0}).ok());
  ASSERT_TRUE(acc.Add(0.5, {4.0, 8.0, 3.0}).ok());
  Result<std::vector<double>> merged = acc.Finish();
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ((*merged)[0], 3.0);
  EXPECT_DOUBLE_EQ((*merged)[1], 6.0);
  EXPECT_DOUBLE_EQ((*merged)[2], 2.0);
}

TEST(AggregateBlobsTest, UnnormalizedWeightsRenormalized) {
  ModelBlobAccumulator acc(HuberConfig());
  ASSERT_TRUE(acc.Add(10.0, {2.0}).ok());
  ASSERT_TRUE(acc.Add(30.0, {4.0}).ok());
  Result<std::vector<double>> merged = acc.Finish();
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ((*merged)[0], 3.5);
}

TEST(AggregateBlobsTest, XgbMergePredictionEquivalentToEnsemble) {
  // Two fitted XGB models on different slopes: the merged blob must predict
  // the weighted average of the two models' predictions.
  Configuration config = XgbConfig();
  Problem p1 = MakeProblem(2.0, 5);
  Problem p2 = MakeProblem(5.0, 6);
  ModelBlobAccumulator acc(config);
  std::vector<std::unique_ptr<ml::Regressor>> models;
  const std::vector<double> weights = {0.3, 0.7};
  for (const Problem* p : {&p1, &p2}) {
    Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
    ASSERT_TRUE(model.ok());
    Rng rng(7);
    ASSERT_TRUE((*model)->Fit(p->x, p->y, &rng).ok());
    Result<std::vector<double>> blob = SerializeModel(config, **model);
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(acc.Add(weights[models.size()], *blob).ok());
    models.push_back(std::move(*model));
  }
  Result<std::vector<double>> merged = acc.Finish();
  ASSERT_TRUE(merged.ok());
  Result<std::unique_ptr<ml::Regressor>> global =
      DeserializeModel(config, *merged);
  ASSERT_TRUE(global.ok());

  std::vector<double> pa = models[0]->Predict(p1.x);
  std::vector<double> pb = models[1]->Predict(p1.x);
  std::vector<double> pg = (*global)->Predict(p1.x);
  for (size_t i = 0; i < pg.size(); ++i) {
    EXPECT_NEAR(pg[i], 0.3 * pa[i] + 0.7 * pb[i], 1e-9);
  }
}

TEST(AggregateBlobsTest, RejectsBadInputs) {
  {
    ModelBlobAccumulator acc(HuberConfig());
    EXPECT_FALSE(acc.Finish().ok());  // Nothing added.
  }
  {
    ModelBlobAccumulator acc(HuberConfig());
    ASSERT_TRUE(acc.Add(0.5, {1.0}).ok());
    EXPECT_FALSE(acc.Add(0.5, {1.0, 2.0}).ok());  // Size mismatch.
  }
  {
    ModelBlobAccumulator acc(HuberConfig());
    ASSERT_TRUE(acc.Add(0.0, {1.0}).ok());
    EXPECT_FALSE(acc.Finish().ok());  // Zero total weight.
  }
  ModelBlobAccumulator xgb(XgbConfig());
  EXPECT_FALSE(xgb.Add(1.0, {1.0}).ok());  // Short blob.
}

// ---------------------------------------------------------------------------
// Algorithm 1, lines 26-27, end to end: fitted client models are serialized,
// folded by |D_j| and decoded into the one global model.
// ---------------------------------------------------------------------------

/// Fits one model per problem, folds the blobs with `weights`, and decodes
/// the global model; the fitted client models land in `clients`.
Result<std::unique_ptr<ml::Regressor>> FitAndAggregate(
    const Configuration& config, const std::vector<const Problem*>& problems,
    const std::vector<double>& weights,
    std::vector<std::unique_ptr<ml::Regressor>>* clients) {
  ModelBlobAccumulator acc(config);
  for (size_t k = 0; k < problems.size(); ++k) {
    FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                           CreateRegressor(config));
    Rng rng(11 + k);
    FEDFC_RETURN_IF_ERROR(model->Fit(problems[k]->x, problems[k]->y, &rng));
    FEDFC_ASSIGN_OR_RETURN(std::vector<double> blob,
                           SerializeModel(config, *model));
    FEDFC_RETURN_IF_ERROR(acc.Add(weights[k], blob));
    clients->push_back(std::move(model));
  }
  FEDFC_ASSIGN_OR_RETURN(std::vector<double> global, acc.Finish());
  return DeserializeModel(config, global);
}

TEST(AggregateModelsTest, LinearModelsFedAvg) {
  // Two clients with different slopes and equal |D_j|: FedAvg of linear
  // parameters predicts exactly the mean of the two client predictions.
  Problem p1 = MakeProblem(2.0, 8);
  Problem p2 = MakeProblem(4.0, 9);
  std::vector<std::unique_ptr<ml::Regressor>> clients;
  Result<std::unique_ptr<ml::Regressor>> global =
      FitAndAggregate(HuberConfig(), {&p1, &p2}, {120.0, 120.0}, &clients);
  ASSERT_TRUE(global.ok()) << global.status();
  Matrix probe({{1.0, 0.0}});
  const double pg = (*global)->Predict(probe)[0];
  EXPECT_NEAR(pg, 3.0, 0.1);
  EXPECT_NEAR(pg,
              0.5 * (clients[0]->Predict(probe)[0] +
                     clients[1]->Predict(probe)[0]),
              1e-9);
}

TEST(AggregateModelsTest, WeightsBiasTheAverage) {
  Problem p1 = MakeProblem(2.0, 10);
  Problem p2 = MakeProblem(4.0, 11);
  std::vector<std::unique_ptr<ml::Regressor>> clients;
  Result<std::unique_ptr<ml::Regressor>> global =
      FitAndAggregate(HuberConfig(), {&p1, &p2}, {120.0, 0.0}, &clients);
  ASSERT_TRUE(global.ok()) << global.status();
  Matrix probe({{1.0, 0.0}});
  EXPECT_NEAR((*global)->Predict(probe)[0], 2.0, 0.1);
}

TEST(AggregateModelsTest, TreeModelsBecomeEnsemble) {
  // Tree ensembles are not parameter-averaged: the global model carries
  // every client's trees and predicts their weighted mean.
  Configuration config = XgbConfig();
  config.numeric["n_estimators"] = 40;
  config.numeric["learning_rate"] = 0.3;
  Problem p1 = MakeProblem(2.0, 12);
  Problem p2 = MakeProblem(4.0, 13);
  std::vector<std::unique_ptr<ml::Regressor>> clients;
  Result<std::unique_ptr<ml::Regressor>> global =
      FitAndAggregate(config, {&p1, &p2}, {60.0, 60.0}, &clients);
  ASSERT_TRUE(global.ok()) << global.status();
  auto* merged = dynamic_cast<ml::GbdtRegressor*>(global->get());
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->n_trees(),
            dynamic_cast<ml::GbdtRegressor&>(*clients[0]).n_trees() +
                dynamic_cast<ml::GbdtRegressor&>(*clients[1]).n_trees());
  Matrix probe({{1.0, 0.0}});
  const double pg = (*global)->Predict(probe)[0];
  EXPECT_NEAR(pg, 3.0, 0.5);
  EXPECT_NEAR(pg,
              0.5 * (clients[0]->Predict(probe)[0] +
                     clients[1]->Predict(probe)[0]),
              1e-9);
}

TEST(AggregateModelsTest, RejectsBadInputs) {
  // Nothing to aggregate, and clients whose models disagree on the feature
  // count, are typed errors rather than a malformed global model.
  ModelBlobAccumulator empty(HuberConfig());
  EXPECT_EQ(empty.Finish().status().code(), StatusCode::kInvalidArgument);

  Problem wide = MakeProblem(2.0, 14);
  Problem narrow;
  narrow.x = Matrix(wide.x.rows(), 1);
  for (size_t i = 0; i < wide.x.rows(); ++i) narrow.x(i, 0) = wide.x(i, 0);
  narrow.y = wide.y;
  std::vector<std::unique_ptr<ml::Regressor>> clients;
  Result<std::unique_ptr<ml::Regressor>> global =
      FitAndAggregate(HuberConfig(), {&wide, &narrow}, {1.0, 1.0}, &clients);
  ASSERT_FALSE(global.ok());
  EXPECT_EQ(global.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Decode hardening: truncated, bit-flipped, and implausibly-sized blobs are
// rejected with typed errors before any decoder state (or allocation sized
// from an untrusted count) is built.
// ---------------------------------------------------------------------------

TEST(ModelIoHardeningTest, NonFiniteBlobValuesRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double poison : {nan, inf, -inf}) {
    Result<std::unique_ptr<ml::Regressor>> linear =
        DeserializeModel(HuberConfig(), {1.0, poison, 2.0});
    EXPECT_EQ(linear.status().code(), StatusCode::kInvalidArgument);
    Result<std::unique_ptr<ml::Regressor>> xgb =
        DeserializeModel(XgbConfig(), {0.0, 0.1, poison});
    EXPECT_EQ(xgb.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ModelIoHardeningTest, ImplausibleXgbCountFieldsRejected) {
  // The tree/node counts are untrusted doubles. Negative, fractional, and
  // blob-exceeding claims must all fail the checked cast — the huge claim
  // in particular must be rejected *before* any node storage is sized.
  for (double n_trees : {-1.0, 1.5, 1e18, 4.0}) {  // 4 trees can't fit here.
    std::vector<double> blob = {0.0, 0.1, n_trees};
    EXPECT_FALSE(DeserializeModel(XgbConfig(), blob).ok()) << n_trees;
  }
  // Same for a tree's node count: one tree claiming more nodes than the
  // remaining span could hold.
  std::vector<double> blob = {0.0, 0.1, 1.0, 1e12};
  EXPECT_FALSE(DeserializeModel(XgbConfig(), blob).ok());
}

TEST(ModelIoHardeningTest, TruncatedXgbBlobRejected) {
  Problem p = MakeProblem(2.0, 31);
  Configuration config = XgbConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  ASSERT_TRUE(model.ok());
  Rng rng(32);
  ASSERT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
  Result<std::vector<double>> blob = SerializeModel(config, **model);
  ASSERT_TRUE(blob.ok());
  ASSERT_GT(blob->size(), 4u);
  std::vector<double> truncated(blob->begin(),
                                blob->begin() + static_cast<long>(blob->size() / 2));
  EXPECT_FALSE(DeserializeModel(config, truncated).ok());
}

// ---------------------------------------------------------------------------
// Serving artifact codec and the Forecaster entry point.
// ---------------------------------------------------------------------------

ModelArtifact MakeArtifact(uint64_t seed) {
  Problem p = MakeProblem(2.0, seed);
  Configuration config = HuberConfig();
  Result<std::unique_ptr<ml::Regressor>> model = CreateRegressor(config);
  EXPECT_TRUE(model.ok());
  Rng rng(seed + 1);
  EXPECT_TRUE((*model)->Fit(p.x, p.y, &rng).ok());
  Result<std::vector<double>> blob = SerializeModel(config, **model);
  EXPECT_TRUE(blob.ok());
  ModelArtifact artifact;
  artifact.config = std::move(config);
  artifact.spec.n_lags = 2;  // Two lag columns, nothing else: width 2.
  artifact.spec.include_time_features = false;
  artifact.spec.include_trend_feature = false;
  artifact.blob = std::move(*blob);
  return artifact;
}

TEST(ModelArtifactTest, CodecRoundTrip) {
  ModelArtifact artifact = MakeArtifact(41);
  Result<ModelArtifact> decoded =
      DecodeModelArtifact(EncodeModelArtifact(artifact));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->config.algorithm, artifact.config.algorithm);
  EXPECT_EQ(decoded->spec.n_lags, artifact.spec.n_lags);
  EXPECT_EQ(decoded->spec.include_time_features,
            artifact.spec.include_time_features);
  EXPECT_EQ(decoded->spec.include_trend_feature,
            artifact.spec.include_trend_feature);
  ASSERT_EQ(decoded->blob.size(), artifact.blob.size());
  for (size_t i = 0; i < artifact.blob.size(); ++i) {
    EXPECT_EQ(decoded->blob[i], artifact.blob[i]);
  }
}

TEST(ModelArtifactTest, TruncatedBytesRejected) {
  std::vector<uint8_t> bytes = EncodeModelArtifact(MakeArtifact(43));
  for (size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{3}, size_t{0}}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(DecodeModelArtifact(cut).ok()) << keep << " bytes kept";
  }
}

TEST(ForecasterTest, PredictsLikeTheDeserializedModel) {
  ModelArtifact artifact = MakeArtifact(45);
  Result<Forecaster> forecaster = Forecaster::FromArtifact(artifact);
  ASSERT_TRUE(forecaster.ok()) << forecaster.status();
  EXPECT_EQ(forecaster->n_features(), 2u);

  Result<std::unique_ptr<ml::Regressor>> model =
      DeserializeModel(artifact.config, artifact.blob);
  ASSERT_TRUE(model.ok());
  Problem p = MakeProblem(1.0, 46);
  Result<std::vector<double>> served = forecaster->Forecast(p.x);
  ASSERT_TRUE(served.ok()) << served.status();
  std::vector<double> direct = (*model)->Predict(p.x);
  ASSERT_EQ(served->size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) EXPECT_EQ((*served)[i], direct[i]);
}

TEST(ForecasterTest, RejectsOutOfRangeFeatureSelection) {
  ModelArtifact artifact = MakeArtifact(47);
  artifact.spec.selected_features = {0, 99};  // 99 outside the 2-col schema.
  Status status = Forecaster::FromArtifact(artifact).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("selected feature"), std::string::npos)
      << status;
}

TEST(ForecasterTest, ForecastValidatesRequestShape) {
  Result<Forecaster> forecaster = Forecaster::FromArtifact(MakeArtifact(49));
  ASSERT_TRUE(forecaster.ok());
  EXPECT_FALSE(forecaster->Forecast(Matrix(0, 2)).ok());  // Empty.
  EXPECT_FALSE(forecaster->Forecast(Matrix(4, 3)).ok());  // Wrong width.
}

TEST(ForecasterTest, RejectsBlobNarrowerThanSchema) {
  // Fuzzer-surfaced (tests/fuzz/regressions/model_artifact/crash-linear-
  // width): a linear blob whose weight count disagrees with the spec's
  // schema used to pass FromArtifact and abort inside Predict's width
  // CHECK. ValidateFeatureWidth now rejects it at the decode boundary.
  ModelArtifact artifact = MakeArtifact(51);
  artifact.blob = {0.1, 0.2, 0.3, 1.5};  // 3 weights for a 2-column schema.
  Status status = Forecaster::FromArtifact(artifact).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fedfc::automl
