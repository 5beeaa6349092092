#ifndef FEDFC_TS_SERIES_H_
#define FEDFC_TS_SERIES_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "core/status.h"

namespace fedfc::ts {

/// Sentinel for missing observations inside a series.
inline double MissingValue() { return std::numeric_limits<double>::quiet_NaN(); }
inline bool IsMissing(double x) { return std::isnan(x); }

/// A univariate time series: equally spaced observations with an epoch-second
/// start time and a sampling interval. Missing observations are NaN.
///
/// Timestamps are implicit (start + i * interval) which matches the paper's
/// regularly-sampled setting and keeps client splits cheap to represent.
class Series {
 public:
  Series() : start_epoch_(0), interval_seconds_(3600) {}
  Series(std::vector<double> values, int64_t start_epoch, int64_t interval_seconds)
      : values_(std::move(values)),
        start_epoch_(start_epoch),
        interval_seconds_(interval_seconds) {}

  [[nodiscard]] size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }

  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  [[nodiscard]] int64_t start_epoch() const { return start_epoch_; }
  [[nodiscard]] int64_t interval_seconds() const { return interval_seconds_; }
  [[nodiscard]] int64_t TimestampAt(size_t i) const {
    return start_epoch_ + static_cast<int64_t>(i) * interval_seconds_;
  }

  /// Sampling rate in observations per day (the paper's "Sampling Rate"
  /// meta-feature). 24 for hourly data, 1 for daily, etc.
  [[nodiscard]] double SamplesPerDay() const {
    return 86400.0 / static_cast<double>(interval_seconds_);
  }

  [[nodiscard]] size_t CountMissing() const;
  [[nodiscard]] double MissingFraction() const;

  /// Sub-series [begin, end) preserving the time axis.
  [[nodiscard]] Series Slice(size_t begin, size_t end) const;

  [[nodiscard]] std::string ToString(int max_values = 8) const;

 private:
  std::vector<double> values_;
  int64_t start_epoch_;
  int64_t interval_seconds_;
};

/// d-th order differencing (drops missing-adjacent results to NaN).
std::vector<double> Difference(const std::vector<double>& values, int order = 1);

/// Splits a consolidated series into `n_clients` contiguous time-series
/// chunks, mirroring the paper's federated dataset construction. Sizes differ
/// by at most one. Returns InvalidArgument if any chunk would be smaller than
/// `min_instances`.
Result<std::vector<Series>> SplitIntoClients(const Series& series, int n_clients,
                                             size_t min_instances = 1);

}  // namespace fedfc::ts

#endif  // FEDFC_TS_SERIES_H_
