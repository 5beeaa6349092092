#include "ts/kl_divergence.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "core/vec_math.h"

namespace fedfc::ts {

std::vector<double> SmoothedHistogram(const std::vector<double>& values, double lo,
                                      double hi, size_t bins, double smoothing) {
  FEDFC_CHECK(bins > 0);
  std::vector<double> counts(bins, smoothing);
  if (hi <= lo) hi = lo + 1.0;
  double width = (hi - lo) / static_cast<double>(bins);
  for (double v : values) {
    if (std::isnan(v)) continue;
    auto idx = static_cast<ptrdiff_t>((v - lo) / width);
    idx = std::max<ptrdiff_t>(
        0, std::min<ptrdiff_t>(idx, static_cast<ptrdiff_t>(bins) - 1));
    counts[static_cast<size_t>(idx)] += 1.0;
  }
  double total = Sum(counts);
  for (double& c : counts) c /= total;
  return counts;
}

double KlDivergence(const std::vector<double>& p, const std::vector<double>& q) {
  FEDFC_CHECK(p.size() == q.size());
  double kl = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) continue;
    kl += p[i] * std::log(p[i] / q[i]);
  }
  return std::max(kl, 0.0);
}

}  // namespace fedfc::ts
