#ifndef FEDFC_TS_PERIODOGRAM_H_
#define FEDFC_TS_PERIODOGRAM_H_

#include <cstddef>
#include <vector>

namespace fedfc::ts {

/// A detected seasonal component: its period (in samples) and a relative
/// strength in [0, 1] (power normalized by the total spectral power).
struct SeasonalComponent {
  double period = 0.0;
  double strength = 0.0;
};

/// Detects up to `top_n` seasonal components as local peaks of the
/// periodogram with strength above `min_strength`, suppressing near-duplicate
/// periods (within 15% of an already-selected one). Periods shorter than 2 or
/// longer than n/2 samples are ignored.
std::vector<SeasonalComponent> DetectSeasonalities(const std::vector<double>& values,
                                                   size_t top_n = 5,
                                                   double min_strength = 0.01);

}  // namespace fedfc::ts

#endif  // FEDFC_TS_PERIODOGRAM_H_
