#ifndef FEDFC_ML_LINEAR_LINEAR_SVR_H_
#define FEDFC_ML_LINEAR_LINEAR_SVR_H_

#include <string>
#include <vector>

#include "ml/linear/linear_base.h"

namespace fedfc::ml {

/// Linear support-vector regression with the epsilon-insensitive loss,
///   min 1/(2 C n) ||w||^2 + (1/n) sum_i max(0, |y_i - w.x_i - b| - epsilon),
/// fitted by averaged stochastic subgradient descent (primal).
/// Search-space hyperparameters (Table 2): `C`, `epsilon`.
class LinearSvrRegressor : public LinearRegressorBase {
 public:
  struct Config {
    double c = 1.0;
    double epsilon = 0.05;
    size_t epochs = 60;
    double learning_rate = 0.05;
  };

  LinearSvrRegressor() = default;
  explicit LinearSvrRegressor(Config config) : config_(config) {}

  std::string Name() const override { return "LinearSVR"; }
  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  Status FitStandardized(const Matrix& x, const std::vector<double>& y, Rng* rng,
                         std::vector<double>* weights_std,
                         double* intercept_std) override;

 private:
  Config config_;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_LINEAR_LINEAR_SVR_H_
