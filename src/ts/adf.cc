#include "ts/adf.h"

#include <algorithm>
#include <cmath>

#include "core/matrix.h"
#include "core/vec_math.h"
#include "ts/series.h"

namespace fedfc::ts {

namespace {

/// MacKinnon (1994/2010) response-surface coefficients for the
/// constant-no-trend case: crit = b0 + b1/n + b2/n^2.
struct MacKinnonRow {
  double b0, b1, b2;
};
constexpr MacKinnonRow kCrit1 = {-3.43035, -6.5393, -16.786};
constexpr MacKinnonRow kCrit5 = {-2.86154, -2.8903, -4.234};
constexpr MacKinnonRow kCrit10 = {-2.56677, -1.5384, -2.809};

double CriticalValue(const MacKinnonRow& row, double n) {
  return row.b0 + row.b1 / n + row.b2 / (n * n);
}

}  // namespace

Result<AdfResult> AdfTest(const std::vector<double>& values, size_t max_lag) {
  const size_t n = values.size();
  if (n < 12) {
    return Status::InvalidArgument("AdfTest: series too short");
  }
  if (StdDev(values) < 1e-12) {
    return Status::InvalidArgument("AdfTest: constant series");
  }
  size_t p = max_lag;
  if (p == static_cast<size_t>(-1)) {
    p = static_cast<size_t>(
        std::floor(12.0 * std::pow(static_cast<double>(n) / 100.0, 0.25)));
  }
  // Keep enough effective observations for the regression.
  p = std::min(p, n / 4);

  std::vector<double> dy = Difference(values, 1);  // dy[t] = y[t+1]-y[t].
  // Regression sample: t runs over indices where all lags exist.
  // Model: dy[t] = alpha + beta*y[t] + sum_i gamma_i dy[t-i] + e.
  const size_t start = p;                // First usable index into dy.
  const size_t m = dy.size() - start;    // Effective sample size.
  if (m < p + 4) {
    return Status::InvalidArgument("AdfTest: not enough observations after lags");
  }
  const size_t k = 2 + p;  // intercept + level + p lagged diffs.
  Matrix x(m, k);
  std::vector<double> y(m);
  for (size_t i = 0; i < m; ++i) {
    size_t t = start + i;
    y[i] = dy[t];
    x(i, 0) = 1.0;
    x(i, 1) = values[t];  // Lagged level y_{t} (since dy[t] = y[t+1]-y[t]).
    for (size_t j = 1; j <= p; ++j) x(i, 1 + j) = dy[t - j];
  }

  Matrix xt = x.Transpose();
  Matrix xtx = xt.Multiply(x);
  for (size_t i = 0; i < k; ++i) xtx(i, i) += 1e-10;
  std::vector<double> xty = xt.MultiplyVector(y);
  FEDFC_ASSIGN_OR_RETURN(std::vector<double> beta, SolveSpd(xtx, xty));

  // Residual variance.
  std::vector<double> fitted = x.MultiplyVector(beta);
  double rss = 0.0;
  for (size_t i = 0; i < m; ++i) {
    double r = y[i] - fitted[i];
    rss += r * r;
  }
  double dof = static_cast<double>(m) - static_cast<double>(k);
  if (dof <= 0) return Status::InvalidArgument("AdfTest: zero degrees of freedom");
  double sigma2 = rss / dof;

  // Var(beta_1) = sigma2 * (X'X)^{-1}_{11}: solve X'X v = e_1.
  std::vector<double> e1(k, 0.0);
  e1[1] = 1.0;
  FEDFC_ASSIGN_OR_RETURN(std::vector<double> col, SolveSpd(xtx, e1));
  double var_b1 = sigma2 * col[1];
  if (var_b1 <= 0.0) return Status::Internal("AdfTest: non-positive variance");

  AdfResult out;
  out.statistic = beta[1] / std::sqrt(var_b1);
  double nn = static_cast<double>(m);
  out.critical_1pct = CriticalValue(kCrit1, nn);
  out.critical_5pct = CriticalValue(kCrit5, nn);
  out.critical_10pct = CriticalValue(kCrit10, nn);
  out.lags_used = p;
  out.n_obs = m;
  return out;
}

bool IsStationary(const std::vector<double>& values, bool fallback) {
  Result<AdfResult> r = AdfTest(values);
  if (!r.ok()) return fallback;
  return r->stationary();
}

}  // namespace fedfc::ts
