#ifndef FEDFC_ML_LINEAR_HUBER_H_
#define FEDFC_ML_LINEAR_HUBER_H_

#include <string>
#include <vector>

#include "ml/linear/linear_base.h"

namespace fedfc::ml {

/// Huber-loss robust regression fitted by iteratively reweighted least
/// squares (IRLS) with a MAD-based scale estimate per outer iteration.
/// Search-space hyperparameters (Table 2): `epsilon`, `alpha` (L2).
class HuberRegressor : public LinearRegressorBase {
 public:
  struct Config {
    double epsilon = 1.35;   ///< Transition point between L2 and L1 regimes.
    double alpha = 1e-4;     ///< L2 regularization strength.
    size_t max_outer_iter = 15;
    double tol = 1e-6;
  };

  HuberRegressor() = default;
  explicit HuberRegressor(Config config) : config_(config) {}

  std::string Name() const override { return "HuberRegressor"; }
  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  Status FitStandardized(const Matrix& x, const std::vector<double>& y, Rng* rng,
                         std::vector<double>* weights_std,
                         double* intercept_std) override;

 private:
  Config config_;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_LINEAR_HUBER_H_
