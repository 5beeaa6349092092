#ifndef FEDFC_TS_ADF_H_
#define FEDFC_TS_ADF_H_

#include <cstddef>
#include <vector>

#include "core/result.h"

namespace fedfc::ts {

/// Result of an Augmented Dickey-Fuller unit-root test (constant, no trend).
struct AdfResult {
  double statistic = 0.0;       ///< t-statistic on the lagged-level coefficient.
  double critical_1pct = 0.0;   ///< MacKinnon finite-sample critical values.
  double critical_5pct = 0.0;
  double critical_10pct = 0.0;
  size_t lags_used = 0;         ///< Augmentation lag order p.
  size_t n_obs = 0;             ///< Effective regression sample size.

  /// Rejects the unit-root null at 5% => series treated as stationary.
  [[nodiscard]] bool stationary() const { return statistic < critical_5pct; }
};

/// Augmented Dickey-Fuller test with intercept. The augmentation lag order
/// defaults (when `max_lag == SIZE_MAX`) to the Schwert rule
/// floor(12 * (n/100)^(1/4)). Returns InvalidArgument for series that are
/// too short or (numerically) constant.
Result<AdfResult> AdfTest(const std::vector<double>& values,
                          size_t max_lag = static_cast<size_t>(-1));

/// Convenience: true when the 5% ADF test deems the series stationary;
/// returns `fallback` when the test cannot be run.
bool IsStationary(const std::vector<double>& values, bool fallback = false);

}  // namespace fedfc::ts

#endif  // FEDFC_TS_ADF_H_
