#include "ml/linear/coordinate_descent.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/logging.h"

namespace fedfc::ml {

double SoftThreshold(double z, double gamma) {
  if (z > gamma) return z - gamma;
  if (z < -gamma) return z + gamma;
  return 0.0;
}

std::vector<double> CoordinateDescent(const Matrix& x, const std::vector<double>& y,
                                      const CdOptions& options, Rng* rng) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  FEDFC_CHECK(n == y.size() && n > 0 && d > 0);

  std::vector<double> w(d, 0.0);
  // Residual r = y - X w; starts at y since w = 0.
  std::vector<double> residual = y;

  // Column squared norms (divided by n to match the 1/(2n) loss scaling).
  std::vector<double> col_sq(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.Row(r);
    for (size_t j = 0; j < d; ++j) col_sq[j] += row[j] * row[j];
  }
  for (double& v : col_sq) v /= static_cast<double>(n);

  const double l1 = options.alpha * options.l1_ratio;
  const double l2 = options.alpha * (1.0 - options.l1_ratio);

  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), 0);

  for (size_t iter = 0; iter < options.max_iter; ++iter) {
    if (options.selection == CdSelection::kRandom && rng != nullptr) {
      rng->Shuffle(&order);
    }
    double max_update = 0.0;
    for (size_t j : order) {
      if (col_sq[j] <= 1e-12) continue;  // Constant/empty column.
      double w_old = w[j];
      // rho = (1/n) x_j . (residual + w_j x_j)
      double rho = 0.0;
      for (size_t r = 0; r < n; ++r) {
        rho += x(r, j) * residual[r];
      }
      rho /= static_cast<double>(n);
      rho += col_sq[j] * w_old;
      double w_new = SoftThreshold(rho, l1) / (col_sq[j] + l2);
      if (w_new != w_old) {
        double delta = w_new - w_old;
        for (size_t r = 0; r < n; ++r) residual[r] -= delta * x(r, j);
        w[j] = w_new;
        max_update = std::max(max_update, std::fabs(delta));
      }
    }
    if (max_update < options.tol) break;
  }
  return w;
}

}  // namespace fedfc::ml
