#ifndef FEDFC_ML_TREE_GBDT_H_
#define FEDFC_ML_TREE_GBDT_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"
#include "ml/tree/gbdt_tree.h"

namespace fedfc::ml {

/// Gradient-boosted tree ensemble configuration, matching the Table 2
/// XGBRegressor hyperparameters.
struct GbdtConfig {
  size_t n_estimators = 20;
  int max_depth = 4;
  double learning_rate = 0.1;
  double reg_lambda = 1.0;
  double subsample = 1.0;       ///< Row subsampling fraction per tree.
  size_t min_samples_leaf = 1;
  /// true: XGBoost-style second-order boosting; false: classic first-order
  /// gradient boosting (unit hessian) — the Table 4 "Gradient Boosting"
  /// candidate.
  bool use_hessian = true;
};

/// XGBoost-style regressor on the squared loss (g = pred - y, h = 1).
class GbdtRegressor : public Regressor {
 public:
  GbdtRegressor() = default;
  explicit GbdtRegressor(GbdtConfig config) : config_(config) {}

  Status Fit(const Matrix& x, const std::vector<double>& y, Rng* rng) override;
  std::vector<double> Predict(const Matrix& x) const override;

  std::string Name() const override { return "XGBRegressor"; }
  [[nodiscard]] const GbdtConfig& config() const { return config_; }
  [[nodiscard]] size_t n_trees() const { return trees_.size(); }

  /// Full fitted-model encoding (base score + every tree) for FL transfer.
  /// It is not averageable like a parameter vector; the server merges the
  /// client trees into one weighted ensemble (automl::ModelBlobAccumulator).
  [[nodiscard]] std::vector<double> SerializeModel() const;
  Status DeserializeModel(const std::vector<double>& data);

  /// A deserialized tree's split features index prediction rows directly;
  /// an index at or past the row width is an out-of-bounds read. Typed
  /// check for the untrusted-model boundaries (see Regressor).
  Status ValidateFeatureWidth(size_t n_cols) const override;

 private:
  GbdtConfig config_;
  double base_score_ = 0.0;
  std::vector<gbdt_internal::GbdtTree> trees_;
};

/// Multiclass boosted classifier: one tree per class per round on softmax
/// gradients. `use_hessian` toggles between the XGBClassifier and classic
/// GradientBoosting candidates of Table 4.
class GbdtClassifier : public Classifier {
 public:
  GbdtClassifier() = default;
  explicit GbdtClassifier(GbdtConfig config) : config_(config) {}

  Status Fit(const Matrix& x, const std::vector<int>& y, int n_classes,
             Rng* rng) override;
  Matrix PredictProba(const Matrix& x) const override;

  std::string Name() const override {
    return config_.use_hessian ? "XGBClassifier" : "GradientBoostingClassifier";
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<GbdtClassifier>(*this);
  }

  [[nodiscard]] const GbdtConfig& config() const { return config_; }

 private:
  GbdtConfig config_;
  // trees_[round * n_classes + k].
  std::vector<gbdt_internal::GbdtTree> trees_;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_TREE_GBDT_H_
