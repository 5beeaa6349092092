#include "ts/periodogram.h"

#include <cmath>

#include "core/vec_math.h"
#include "ts/fft.h"

namespace fedfc::ts {

namespace {

/// Power of the mean-removed, zero-padded signal on frequencies k/n_fft,
/// k = 1..n_fft/2 (DC excluded).
std::vector<double> PowerSpectrum(const std::vector<double>& values, size_t* n_fft) {
  std::vector<double> x = values;
  double mean = Mean(x);
  for (double& v : x) v -= mean;
  std::vector<std::complex<double>> spec = RealFft(x);
  size_t n = spec.size();
  *n_fft = n;
  size_t half = n / 2;
  std::vector<double> power(half > 0 ? half : 0);
  for (size_t k = 1; k <= half; ++k) {
    power[k - 1] = std::norm(spec[k]) / static_cast<double>(n);
  }
  return power;
}

}  // namespace

std::vector<SeasonalComponent> DetectSeasonalities(const std::vector<double>& values,
                                                   size_t top_n,
                                                   double min_strength) {
  if (values.size() < 8) return {};
  size_t n_fft = 0;
  std::vector<double> power = PowerSpectrum(values, &n_fft);
  std::vector<SeasonalComponent> out;
  double total = Sum(power);
  if (total <= 0.0) return out;

  std::vector<size_t> order = ArgsortDescending(power);
  for (size_t idx : order) {
    if (out.size() >= top_n) break;
    size_t k = idx + 1;  // Frequency bin (DC excluded).
    // Local peak test against neighbours.
    double p = power[idx];
    if (idx > 0 && power[idx - 1] > p) continue;
    if (idx + 1 < power.size() && power[idx + 1] > p) continue;
    double strength = p / total;
    if (strength < min_strength) break;  // Sorted order: all later are weaker.
    double period = static_cast<double>(n_fft) / static_cast<double>(k);
    if (period < 2.0 || period > static_cast<double>(values.size()) / 2.0) continue;
    // Suppress near-duplicates (harmonics resolved onto close bins).
    bool dup = false;
    for (const auto& c : out) {
      if (std::fabs(c.period - period) < 0.15 * c.period) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    out.push_back({period, strength});
  }
  return out;
}

}  // namespace fedfc::ts
