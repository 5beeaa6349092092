#ifndef FEDFC_ML_METRICS_H_
#define FEDFC_ML_METRICS_H_

#include <cstddef>
#include <vector>

#include "core/matrix.h"

namespace fedfc::ml {

/// Mean squared error; requires equal, non-zero lengths.
double MeanSquaredError(const std::vector<double>& y_true,
                        const std::vector<double>& y_pred);

/// Classification metrics over integer labels in [0, n_classes).
double Accuracy(const std::vector<int>& y_true, const std::vector<int>& y_pred);

/// Macro-averaged F1 across classes (classes absent from both true and
/// predicted labels are skipped, matching scikit-learn's behaviour for
/// `average="macro"` over observed labels).
double MacroF1(const std::vector<int>& y_true, const std::vector<int>& y_pred,
               int n_classes);

/// Mean Reciprocal Rank at K: for each sample, the reciprocal rank of the
/// true label among the top-K classes by predicted probability (0 when the
/// true label is not in the top K). `proba` has one row per sample.
double MeanReciprocalRankAtK(const std::vector<int>& y_true, const Matrix& proba,
                             int k);

/// Wilcoxon signed-rank test (two-sided) on paired samples. Returns the
/// normal-approximation p-value with tie/zero handling (Pratt's method drops
/// zero differences). Suitable for the paper's n=12 comparison.
struct WilcoxonResult {
  double statistic = 0.0;  ///< W = min(W+, W-).
  double p_value = 1.0;
  size_t n_effective = 0;  ///< Pairs with non-zero difference.
};
WilcoxonResult WilcoxonSignedRank(const std::vector<double>& a,
                                  const std::vector<double>& b);

/// Average rank of each method across datasets (1 = best). `scores[m][d]` is
/// method m's loss on dataset d (lower is better). Ties share the average
/// rank, matching the paper's ranking protocol.
std::vector<double> AverageRanks(const std::vector<std::vector<double>>& scores);

}  // namespace fedfc::ml

#endif  // FEDFC_ML_METRICS_H_
