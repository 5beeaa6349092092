#ifndef FEDFC_ML_LINEAR_LINEAR_BASE_H_
#define FEDFC_ML_LINEAR_LINEAR_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"
#include "ml/scaler.h"

namespace fedfc::ml {

/// Common machinery for linear regressors: prediction, flat parameter
/// get/set (weights followed by intercept — the layout FL averaging relies
/// on), and internal standardization.
///
/// Subclasses implement FitStandardized() on zero-mean/unit-variance features
/// and target; the base converts the learned coefficients back to the
/// original data space so federated parameter averaging operates on
/// comparable quantities across clients.
class LinearRegressorBase : public Regressor {
 public:
  Status Fit(const Matrix& x, const std::vector<double>& y, Rng* rng) final;

  std::vector<double> Predict(const Matrix& x) const override;

  std::vector<double> GetParameters() const override;
  Status SetParameters(const std::vector<double>& params) override;
  Status ValidateFeatureWidth(size_t n_cols) const override;

  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }
  [[nodiscard]] double intercept() const { return intercept_; }

 protected:
  /// Fits `weights_std`/`intercept_std` on standardized data. `x` rows are
  /// standardized features; `y` is the standardized target.
  virtual Status FitStandardized(const Matrix& x, const std::vector<double>& y,
                                 Rng* rng, std::vector<double>* weights_std,
                                 double* intercept_std) = 0;

  std::vector<double> weights_;
  double intercept_ = 0.0;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_LINEAR_LINEAR_BASE_H_
