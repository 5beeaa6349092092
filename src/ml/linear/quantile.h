#ifndef FEDFC_ML_LINEAR_QUANTILE_H_
#define FEDFC_ML_LINEAR_QUANTILE_H_

#include <string>
#include <vector>

#include "ml/linear/linear_base.h"

namespace fedfc::ml {

/// Linear quantile regression minimizing the pinball loss
///   (1/n) sum_i rho_q(y_i - w.x_i - b) + alpha ||w||_1
/// by averaged stochastic subgradient descent.
/// Search-space hyperparameters (Table 2): `alpha`, `quantile`.
class QuantileRegressor : public LinearRegressorBase {
 public:
  struct Config {
    double quantile = 0.5;
    double alpha = 1e-4;     ///< L1 regularization strength.
    size_t epochs = 80;
    double learning_rate = 0.05;
  };

  QuantileRegressor() = default;
  explicit QuantileRegressor(Config config) : config_(config) {}

  std::string Name() const override { return "QuantileRegressor"; }
  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  Status FitStandardized(const Matrix& x, const std::vector<double>& y, Rng* rng,
                         std::vector<double>* weights_std,
                         double* intercept_std) override;

 private:
  Config config_;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_LINEAR_QUANTILE_H_
