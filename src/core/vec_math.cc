#include "core/vec_math.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/logging.h"

namespace fedfc {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  FEDFC_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return Sum(v) / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 1) return 0.0;
  double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Min(const std::vector<double>& v) {
  FEDFC_CHECK(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  FEDFC_CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

double Skewness(const std::vector<double>& v) {
  if (v.size() < 3) return 0.0;
  double m = Mean(v);
  double s2 = 0.0, s3 = 0.0;
  for (double x : v) {
    double d = x - m;
    s2 += d * d;
    s3 += d * d * d;
  }
  double n = static_cast<double>(v.size());
  s2 /= n;
  s3 /= n;
  if (s2 <= 0.0) return 0.0;
  return s3 / std::pow(s2, 1.5);
}

double ExcessKurtosis(const std::vector<double>& v) {
  if (v.size() < 4) return 0.0;
  double m = Mean(v);
  double s2 = 0.0, s4 = 0.0;
  for (double x : v) {
    double d = x - m;
    s2 += d * d;
    s4 += d * d * d * d;
  }
  double n = static_cast<double>(v.size());
  s2 /= n;
  s4 /= n;
  if (s2 <= 0.0) return 0.0;
  return s4 / (s2 * s2) - 3.0;
}

double Quantile(std::vector<double> v, double q) {
  FEDFC_CHECK(!v.empty());
  q = Clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PearsonCorrelation(const std::vector<double>& a, const std::vector<double>& b) {
  FEDFC_CHECK(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  double ma = Mean(a), mb = Mean(b);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double da = a[i] - ma, db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

void Axpy(double s, const std::vector<double>& b, std::vector<double>* a) {
  FEDFC_CHECK(a != nullptr && a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += s * b[i];
}

double LogSumExp(const std::vector<double>& logits) {
  FEDFC_CHECK(!logits.empty());
  double mx = Max(logits);
  double acc = 0.0;
  for (double x : logits) acc += std::exp(x - mx);
  return mx + std::log(acc);
}

std::vector<double> Softmax(const std::vector<double>& logits) {
  double lse = LogSumExp(logits);
  std::vector<double> out(logits.size());
  for (size_t i = 0; i < logits.size(); ++i) out[i] = std::exp(logits[i] - lse);
  return out;
}

std::vector<size_t> ArgsortDescending(const std::vector<double>& v) {
  std::vector<size_t> idx(v.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return v[a] > v[b]; });
  return idx;
}

std::vector<size_t> ArgsortAscending(const std::vector<double>& v) {
  std::vector<size_t> idx(v.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return v[a] < v[b]; });
  return idx;
}

double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

}  // namespace fedfc
