#ifndef FEDFC_ML_LINEAR_COORDINATE_DESCENT_H_
#define FEDFC_ML_LINEAR_COORDINATE_DESCENT_H_

#include <vector>

#include "core/matrix.h"
#include "core/rng.h"

namespace fedfc::ml {

/// Coordinate selection order for coordinate descent (Table 2's `selection`
/// hyperparameter for Lasso/ElasticNet).
enum class CdSelection { kCyclic, kRandom };

struct CdOptions {
  double alpha = 1.0;       ///< Overall regularization strength.
  double l1_ratio = 1.0;    ///< 1 = Lasso, 0 = Ridge, in between = ElasticNet.
  CdSelection selection = CdSelection::kCyclic;
  size_t max_iter = 200;    ///< Full passes over coordinates.
  double tol = 1e-5;        ///< Max coordinate update below which we stop.
};

/// Minimizes the scikit-learn elastic-net objective
///   1/(2n) ||y - X w||^2 + alpha * l1_ratio * ||w||_1
///     + 0.5 * alpha * (1 - l1_ratio) * ||w||^2
/// by cyclic or random coordinate descent with soft-thresholding.
/// `x` should be (approximately) standardized for good conditioning; callers
/// inside this library always pass standardized data. Returns the weight
/// vector; the intercept is handled by the caller (zero for centered data).
std::vector<double> CoordinateDescent(const Matrix& x, const std::vector<double>& y,
                                      const CdOptions& options, Rng* rng);

/// Soft-thresholding operator S(z, g) = sign(z) * max(|z| - g, 0).
double SoftThreshold(double z, double gamma);

}  // namespace fedfc::ml

#endif  // FEDFC_ML_LINEAR_COORDINATE_DESCENT_H_
