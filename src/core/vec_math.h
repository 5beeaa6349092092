#ifndef FEDFC_CORE_VEC_MATH_H_
#define FEDFC_CORE_VEC_MATH_H_

#include <cstddef>
#include <vector>

namespace fedfc {

/// Elementwise/statistical helpers on std::vector<double>. All functions
/// ignore nothing: callers must strip NaNs first unless a
/// function is documented otherwise.

double Dot(const std::vector<double>& a, const std::vector<double>& b);

double Sum(const std::vector<double>& v);
double Mean(const std::vector<double>& v);
/// Population variance (divide by n); 0 for n < 1.
double Variance(const std::vector<double>& v);
double StdDev(const std::vector<double>& v);
double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);

/// Adjusted Fisher-Pearson skewness (g1, population form).
double Skewness(const std::vector<double>& v);
/// Excess kurtosis (population form; normal -> 0).
double ExcessKurtosis(const std::vector<double>& v);

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Pearson correlation; 0 when either side is constant.
double PearsonCorrelation(const std::vector<double>& a, const std::vector<double>& b);

/// In-place a += s * b.
void Axpy(double s, const std::vector<double>& b, std::vector<double>* a);

/// Numerically stable softmax.
std::vector<double> Softmax(const std::vector<double>& logits);
double LogSumExp(const std::vector<double>& logits);

/// argsort descending by value.
std::vector<size_t> ArgsortDescending(const std::vector<double>& v);
/// argsort ascending by value.
std::vector<size_t> ArgsortAscending(const std::vector<double>& v);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

}  // namespace fedfc

#endif  // FEDFC_CORE_VEC_MATH_H_
