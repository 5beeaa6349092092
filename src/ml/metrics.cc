#include "ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/logging.h"
#include "core/vec_math.h"

namespace fedfc::ml {

double MeanSquaredError(const std::vector<double>& y_true,
                        const std::vector<double>& y_pred) {
  FEDFC_CHECK(y_true.size() == y_pred.size() && !y_true.empty());
  double acc = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    double d = y_true[i] - y_pred[i];
    acc += d * d;
  }
  return acc / static_cast<double>(y_true.size());
}

double Accuracy(const std::vector<int>& y_true, const std::vector<int>& y_pred) {
  FEDFC_CHECK(y_true.size() == y_pred.size() && !y_true.empty());
  size_t correct = 0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] == y_pred[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(y_true.size());
}

double MacroF1(const std::vector<int>& y_true, const std::vector<int>& y_pred,
               int n_classes) {
  FEDFC_CHECK(y_true.size() == y_pred.size() && !y_true.empty());
  FEDFC_CHECK(n_classes > 0);
  const size_t num_classes = static_cast<size_t>(n_classes);
  std::vector<size_t> tp(num_classes, 0), fp(num_classes, 0), fn(num_classes, 0);
  std::vector<bool> observed(num_classes, false);
  for (size_t i = 0; i < y_true.size(); ++i) {
    FEDFC_DCHECK(y_true[i] >= 0 && y_true[i] < n_classes && y_pred[i] >= 0 &&
                 y_pred[i] < n_classes);
    size_t t = static_cast<size_t>(y_true[i]);
    size_t p = static_cast<size_t>(y_pred[i]);
    observed[t] = true;
    observed[p] = true;
    if (t == p) {
      ++tp[t];
    } else {
      ++fp[p];
      ++fn[t];
    }
  }
  double sum_f1 = 0.0;
  int seen = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    if (!observed[c]) continue;
    ++seen;
    double denom = 2.0 * static_cast<double>(tp[c]) + static_cast<double>(fp[c]) +
                   static_cast<double>(fn[c]);
    if (denom > 0.0) sum_f1 += 2.0 * static_cast<double>(tp[c]) / denom;
  }
  if (seen == 0) return 0.0;
  return sum_f1 / static_cast<double>(seen);
}

double MeanReciprocalRankAtK(const std::vector<int>& y_true, const Matrix& proba,
                             int k) {
  FEDFC_CHECK(y_true.size() == proba.rows() && !y_true.empty());
  FEDFC_CHECK(k > 0);
  double acc = 0.0;
  for (size_t r = 0; r < proba.rows(); ++r) {
    std::vector<double> row(proba.Row(r), proba.Row(r) + proba.cols());
    std::vector<size_t> order = ArgsortDescending(row);
    size_t top = std::min<size_t>(static_cast<size_t>(k), order.size());
    for (size_t rank = 0; rank < top; ++rank) {
      if (static_cast<int>(order[rank]) == y_true[r]) {
        acc += 1.0 / static_cast<double>(rank + 1);
        break;
      }
    }
  }
  return acc / static_cast<double>(y_true.size());
}

WilcoxonResult WilcoxonSignedRank(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  FEDFC_CHECK(a.size() == b.size());
  WilcoxonResult out;
  std::vector<double> diffs;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    if (d != 0.0) diffs.push_back(d);
  }
  out.n_effective = diffs.size();
  if (diffs.size() < 2) return out;

  // Rank |d| with average ranks for ties.
  std::vector<double> abs_d(diffs.size());
  for (size_t i = 0; i < diffs.size(); ++i) abs_d[i] = std::fabs(diffs[i]);
  std::vector<size_t> order = ArgsortAscending(abs_d);
  std::vector<double> ranks(diffs.size(), 0.0);
  double tie_correction = 0.0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() &&
           std::fabs(abs_d[order[j + 1]] - abs_d[order[i]]) < 1e-300) {
      ++j;
    }
    double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    size_t tie_len = j - i + 1;
    if (tie_len > 1) {
      double t = static_cast<double>(tie_len);
      tie_correction += t * t * t - t;
    }
    for (size_t kk = i; kk <= j; ++kk) ranks[order[kk]] = avg_rank;
    i = j + 1;
  }

  double w_plus = 0.0, w_minus = 0.0;
  for (size_t idx = 0; idx < diffs.size(); ++idx) {
    if (diffs[idx] > 0) {
      w_plus += ranks[idx];
    } else {
      w_minus += ranks[idx];
    }
  }
  out.statistic = std::min(w_plus, w_minus);

  double n = static_cast<double>(diffs.size());
  double mean_w = n * (n + 1.0) / 4.0;
  double var_w = n * (n + 1.0) * (2.0 * n + 1.0) / 24.0 - tie_correction / 48.0;
  if (var_w <= 0.0) return out;
  // Continuity-corrected normal approximation, two-sided.
  double z = (out.statistic - mean_w + 0.5) / std::sqrt(var_w);
  double p = std::erfc(std::fabs(z) / std::sqrt(2.0));  // Two-sided.
  out.p_value = Clamp(p, 0.0, 1.0);
  return out;
}

std::vector<double> AverageRanks(const std::vector<std::vector<double>>& scores) {
  FEDFC_CHECK(!scores.empty());
  const size_t n_methods = scores.size();
  const size_t n_datasets = scores[0].size();
  for (const auto& s : scores) FEDFC_CHECK(s.size() == n_datasets);
  std::vector<double> avg(n_methods, 0.0);
  for (size_t d = 0; d < n_datasets; ++d) {
    // Rank methods on dataset d (1 = lowest loss), average ranks for ties.
    std::vector<double> col(n_methods);
    for (size_t m = 0; m < n_methods; ++m) col[m] = scores[m][d];
    std::vector<size_t> order = ArgsortAscending(col);
    size_t i = 0;
    while (i < n_methods) {
      size_t j = i;
      while (j + 1 < n_methods && col[order[j + 1]] == col[order[i]]) ++j;
      double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
      for (size_t kk = i; kk <= j; ++kk) avg[order[kk]] += rank;
      i = j + 1;
    }
  }
  for (double& a : avg) a /= static_cast<double>(n_datasets);
  return avg;
}

}  // namespace fedfc::ml
