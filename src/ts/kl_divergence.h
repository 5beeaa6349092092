#ifndef FEDFC_TS_KL_DIVERGENCE_H_
#define FEDFC_TS_KL_DIVERGENCE_H_

#include <cstddef>
#include <vector>

namespace fedfc::ts {

/// Histogram over fixed [lo, hi] range with `bins` equal-width bins and
/// additive (Laplace) smoothing so KL divergence stays finite.
std::vector<double> SmoothedHistogram(const std::vector<double>& values, double lo,
                                      double hi, size_t bins,
                                      double smoothing = 1e-3);

/// KL(p || q) for two discrete distributions of equal length (both must be
/// normalized and strictly positive; SmoothedHistogram guarantees this).
double KlDivergence(const std::vector<double>& p, const std::vector<double>& q);

}  // namespace fedfc::ts

#endif  // FEDFC_TS_KL_DIVERGENCE_H_
