#include "core/matrix.h"

#include <cmath>
#include <sstream>

namespace fedfc {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  for (const auto& row : rows) {
    if (cols_ == 0) cols_ = row.size();
    FEDFC_CHECK(row.size() == cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  FEDFC_CHECK(cols_ == other.rows_)
      << "Multiply: " << rows_ << "x" << cols_ << " by " << other.rows_ << "x"
      << other.cols_;
  Matrix out(rows_, other.cols_, 0.0);
  // i-k-j loop order for row-major cache friendliness.
  for (size_t i = 0; i < rows_; ++i) {
    const double* a_row = Row(i);
    double* o_row = out.Row(i);
    for (size_t k = 0; k < cols_; ++k) {
      double a = a_row[k];
      if (a == 0.0) continue;
      const double* b_row = other.Row(k);
      for (size_t j = 0; j < other.cols_; ++j) o_row[j] += a * b_row[j];
    }
  }
  return out;
}

std::vector<double> Matrix::MultiplyVector(const std::vector<double>& v) const {
  FEDFC_CHECK(cols_ == v.size());
  std::vector<double> out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = Row(i);
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += row[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  FEDFC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::Subtract(const Matrix& other) const {
  FEDFC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double s) const {
  Matrix out = *this;
  for (double& x : out.data_) x *= s;
  return out;
}

Matrix Matrix::WithInterceptColumn() const {
  Matrix out(rows_, cols_ + 1, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    out(r, 0) = 1.0;
    for (size_t c = 0; c < cols_; ++c) out(r, c + 1) = (*this)(r, c);
  }
  return out;
}

std::vector<double> Matrix::Column(size_t c) const {
  FEDFC_CHECK(c < cols_);
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    FEDFC_DCHECK(indices[i] < rows_);
    const double* src = Row(indices[i]);
    double* dst = out.Row(i);
    for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  return out;
}

Matrix Matrix::SelectColumns(const std::vector<size_t>& indices) const {
  Matrix out(rows_, indices.size());
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t i = 0; i < indices.size(); ++i) {
      FEDFC_DCHECK(indices[i] < cols_);
      out(r, i) = (*this)(r, indices[i]);
    }
  }
  return out;
}

std::string Matrix::ToString(int max_rows) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  for (size_t r = 0; r < rows_ && r < static_cast<size_t>(max_rows); ++r) {
    os << (r == 0 ? "[" : ", [");
    for (size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    os << "]";
  }
  if (rows_ > static_cast<size_t>(max_rows)) os << ", ...";
  os << "]";
  return os.str();
}

Result<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("CholeskyFactor: matrix not square");
  }
  const size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::InvalidArgument("CholeskyFactor: matrix not positive definite");
    }
    l(j, j) = std::sqrt(diag);
    for (size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / l(j, j);
    }
  }
  return l;
}

std::vector<double> ForwardSubstitute(const Matrix& l, const std::vector<double>& b) {
  const size_t n = l.rows();
  FEDFC_CHECK(b.size() == n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  return y;
}

std::vector<double> BackwardSubstituteTranspose(const Matrix& l,
                                                const std::vector<double>& y) {
  const size_t n = l.rows();
  FEDFC_CHECK(y.size() == n);
  std::vector<double> x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

Result<std::vector<double>> SolveSpd(const Matrix& a, const std::vector<double>& b,
                                     double jitter) {
  Matrix work = a;
  // Escalate jitter geometrically; GP kernel matrices are occasionally
  // borderline-singular when two inputs nearly coincide.
  for (int attempt = 0; attempt < 8; ++attempt) {
    Result<Matrix> l = CholeskyFactor(work);
    if (l.ok()) {
      std::vector<double> y = ForwardSubstitute(*l, b);
      return BackwardSubstituteTranspose(*l, y);
    }
    for (size_t i = 0; i < work.rows(); ++i) work(i, i) += jitter;
    jitter *= 10.0;
  }
  return Status::InvalidArgument("SolveSpd: matrix not SPD even with jitter");
}

Result<std::vector<double>> LeastSquares(const Matrix& x, const std::vector<double>& y,
                                         double ridge) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("LeastSquares: rows(X) != len(y)");
  }
  if (x.rows() < x.cols()) {
    return Status::InvalidArgument("LeastSquares: underdetermined system");
  }
  Matrix xt = x.Transpose();
  Matrix xtx = xt.Multiply(x);
  for (size_t i = 0; i < xtx.rows(); ++i) xtx(i, i) += ridge;
  std::vector<double> xty = xt.MultiplyVector(y);
  return SolveSpd(xtx, xty);
}

}  // namespace fedfc
