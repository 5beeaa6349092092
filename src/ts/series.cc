#include "ts/series.h"

#include <sstream>

#include "core/logging.h"

namespace fedfc::ts {

size_t Series::CountMissing() const {
  size_t n = 0;
  for (double v : values_) {
    if (IsMissing(v)) ++n;
  }
  return n;
}

double Series::MissingFraction() const {
  if (values_.empty()) return 0.0;
  return static_cast<double>(CountMissing()) / static_cast<double>(values_.size());
}

Series Series::Slice(size_t begin, size_t end) const {
  FEDFC_CHECK(begin <= end && end <= values_.size());
  std::vector<double> vals(values_.begin() + static_cast<std::ptrdiff_t>(begin),
                           values_.begin() + static_cast<std::ptrdiff_t>(end));
  return Series(std::move(vals), TimestampAt(begin), interval_seconds_);
}

std::string Series::ToString(int max_values) const {
  std::ostringstream os;
  os << "Series(n=" << size() << ", start=" << start_epoch_
     << ", interval=" << interval_seconds_ << "s, [";
  for (size_t i = 0; i < values_.size() && i < static_cast<size_t>(max_values); ++i) {
    if (i) os << ", ";
    os << values_[i];
  }
  if (values_.size() > static_cast<size_t>(max_values)) os << ", ...";
  os << "])";
  return os.str();
}

std::vector<double> Difference(const std::vector<double>& values, int order) {
  FEDFC_CHECK(order >= 0);
  std::vector<double> cur = values;
  for (int d = 0; d < order; ++d) {
    if (cur.size() <= 1) return {};
    std::vector<double> next(cur.size() - 1);
    for (size_t i = 0; i + 1 < cur.size(); ++i) next[i] = cur[i + 1] - cur[i];
    cur = std::move(next);
  }
  return cur;
}

Result<std::vector<Series>> SplitIntoClients(const Series& series, int n_clients,
                                             size_t min_instances) {
  if (n_clients <= 0) {
    return Status::InvalidArgument("SplitIntoClients: n_clients must be positive");
  }
  size_t n = series.size();
  size_t base = n / static_cast<size_t>(n_clients);
  if (base < min_instances) {
    return Status::InvalidArgument(
        "SplitIntoClients: split smaller than min_instances");
  }
  size_t rem = n % static_cast<size_t>(n_clients);
  std::vector<Series> out;
  out.reserve(static_cast<size_t>(n_clients));
  size_t pos = 0;
  for (int c = 0; c < n_clients; ++c) {
    size_t len = base + (static_cast<size_t>(c) < rem ? 1 : 0);
    out.push_back(series.Slice(pos, pos + len));
    pos += len;
  }
  return out;
}

}  // namespace fedfc::ts
