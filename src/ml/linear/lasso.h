#ifndef FEDFC_ML_LINEAR_LASSO_H_
#define FEDFC_ML_LINEAR_LASSO_H_

#include <string>
#include <vector>

#include "ml/linear/coordinate_descent.h"
#include "ml/linear/linear_base.h"

namespace fedfc::ml {

/// L1-regularized least squares fitted by coordinate descent.
/// Search-space hyperparameters (Table 2): `alpha`, `selection`.
class LassoRegressor : public LinearRegressorBase {
 public:
  struct Config {
    double alpha = 0.1;
    CdSelection selection = CdSelection::kCyclic;
    size_t max_iter = 200;
    double tol = 1e-5;
  };

  LassoRegressor() = default;
  explicit LassoRegressor(Config config) : config_(config) {}

  std::string Name() const override { return "Lasso"; }
  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  Status FitStandardized(const Matrix& x, const std::vector<double>& y, Rng* rng,
                         std::vector<double>* weights_std,
                         double* intercept_std) override;

 private:
  Config config_;
};

}  // namespace fedfc::ml

#endif  // FEDFC_ML_LINEAR_LASSO_H_
