#ifndef FEDFC_CORE_MATRIX_H_
#define FEDFC_CORE_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/logging.h"
#include "core/result.h"
#include "core/status.h"

namespace fedfc {

/// Dense row-major matrix of doubles.
///
/// This is the numeric workhorse for the GP surrogate, linear models, and
/// the least-squares fits inside the time-series substrate. It deliberately
/// implements only the operations the library needs (BLAS-free).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Builds from nested initializer lists: Matrix({{1, 2}, {3, 4}}).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);

  [[nodiscard]] size_t rows() const { return rows_; }
  [[nodiscard]] size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    FEDFC_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    FEDFC_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw row pointer (row-major layout).
  double* Row(size_t r) { return &data_[r * cols_]; }
  [[nodiscard]] const double* Row(size_t r) const { return &data_[r * cols_]; }

  std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  [[nodiscard]] Matrix Transpose() const;
  [[nodiscard]] Matrix Multiply(const Matrix& other) const;
  [[nodiscard]] std::vector<double> MultiplyVector(const std::vector<double>& v) const;
  [[nodiscard]] Matrix Add(const Matrix& other) const;
  [[nodiscard]] Matrix Subtract(const Matrix& other) const;
  [[nodiscard]] Matrix Scale(double s) const;

  /// Appends a column of ones on the left (design matrices with intercept).
  [[nodiscard]] Matrix WithInterceptColumn() const;

  /// Extracts column c as a vector.
  [[nodiscard]] std::vector<double> Column(size_t c) const;

  /// Selects a subset of rows (by index, in order; duplicates allowed).
  [[nodiscard]] Matrix SelectRows(const std::vector<size_t>& indices) const;
  /// Selects a subset of columns (by index, in order).
  [[nodiscard]] Matrix SelectColumns(const std::vector<size_t>& indices) const;

  [[nodiscard]] std::string ToString(int max_rows = 8) const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Cholesky factorization of a symmetric positive-definite matrix: A = L L^T.
/// Returns the lower-triangular L, or InvalidArgument when A is not SPD
/// (within a small jitter tolerance the caller controls by pre-conditioning).
Result<Matrix> CholeskyFactor(const Matrix& a);

/// Solves L y = b for lower-triangular L (forward substitution).
std::vector<double> ForwardSubstitute(const Matrix& l, const std::vector<double>& b);

/// Solves L^T x = y for lower-triangular L (backward substitution on L^T).
std::vector<double> BackwardSubstituteTranspose(const Matrix& l,
                                                const std::vector<double>& y);

/// Solves the SPD system A x = b via Cholesky; adds `jitter * I` retries
/// (up to a few escalations) when the factorization fails numerically.
Result<std::vector<double>> SolveSpd(const Matrix& a, const std::vector<double>& b,
                                     double jitter = 1e-10);

/// Least-squares solve of min ||X beta - y||^2 via normal equations with
/// ridge jitter; robust enough for the well-conditioned design matrices the
/// library produces (standardized features, trend bases).
Result<std::vector<double>> LeastSquares(const Matrix& x, const std::vector<double>& y,
                                         double ridge = 1e-8);

}  // namespace fedfc

#endif  // FEDFC_CORE_MATRIX_H_
