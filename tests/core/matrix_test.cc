#include "core/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace fedfc {
namespace {

TEST(MatrixTest, InitializerListConstruction) {
  Matrix m({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 2), 6);
}

TEST(MatrixTest, IdentityAndMultiply) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix prod = a.Multiply(Matrix::Identity(2));
  EXPECT_EQ(prod, a);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix b({{5, 6}, {7, 8}});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a({{1, 2, 3}, {4, 5, 6}});
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.Transpose(), a);
}

TEST(MatrixTest, MultiplyVector) {
  Matrix a({{1, 2}, {3, 4}});
  std::vector<double> v = {1, 1};
  std::vector<double> out = a.MultiplyVector(v);
  EXPECT_DOUBLE_EQ(out[0], 3);
  EXPECT_DOUBLE_EQ(out[1], 7);
}

TEST(MatrixTest, AddSubtractScale) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix b({{1, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(a.Add(b)(1, 1), 5);
  EXPECT_DOUBLE_EQ(a.Subtract(b)(0, 0), 0);
  EXPECT_DOUBLE_EQ(a.Scale(2.0)(1, 0), 6);
}

TEST(MatrixTest, SelectRowsAndColumns) {
  Matrix a({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  Matrix rows = a.SelectRows({2, 0});
  EXPECT_DOUBLE_EQ(rows(0, 0), 7);
  EXPECT_DOUBLE_EQ(rows(1, 2), 3);
  Matrix cols = a.SelectColumns({1});
  EXPECT_EQ(cols.cols(), 1u);
  EXPECT_DOUBLE_EQ(cols(2, 0), 8);
}

TEST(MatrixTest, WithInterceptColumn) {
  Matrix a({{2, 3}});
  Matrix x = a.WithInterceptColumn();
  EXPECT_EQ(x.cols(), 3u);
  EXPECT_DOUBLE_EQ(x(0, 0), 1);
  EXPECT_DOUBLE_EQ(x(0, 1), 2);
}

TEST(MatrixTest, ColumnAccessors) {
  Matrix a({{1, 2}, {3, 4}});
  std::vector<double> col = a.Column(1);
  EXPECT_DOUBLE_EQ(col[0], 2);
  EXPECT_DOUBLE_EQ(col[1], 4);
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  Matrix a({{4, 2}, {2, 3}});
  Result<Matrix> l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  // Check L L^T == A.
  Matrix recon = l->Multiply(l->Transpose());
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-12);
    }
  }
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a({{1, 2}, {2, 1}});  // Indefinite.
  EXPECT_FALSE(CholeskyFactor(a).ok());
  Matrix rect(2, 3);
  EXPECT_FALSE(CholeskyFactor(rect).ok());
}

TEST(SolveSpdTest, SolvesKnownSystem) {
  Matrix a({{4, 2}, {2, 3}});
  std::vector<double> b = {10, 9};
  Result<std::vector<double>> x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(4.0 * (*x)[0] + 2.0 * (*x)[1], 10.0, 1e-10);
  EXPECT_NEAR(2.0 * (*x)[0] + 3.0 * (*x)[1], 9.0, 1e-10);
}

TEST(LeastSquaresTest, RecoversExactCoefficients) {
  // y = 2 + 3x sampled without noise.
  Rng rng(1);
  Matrix x(50, 2);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) {
    double xv = rng.Uniform(-5, 5);
    x(i, 0) = 1.0;
    x(i, 1) = xv;
    y[i] = 2.0 + 3.0 * xv;
  }
  Result<std::vector<double>> beta = LeastSquares(x, y);
  ASSERT_TRUE(beta.ok());
  EXPECT_NEAR((*beta)[0], 2.0, 1e-6);
  EXPECT_NEAR((*beta)[1], 3.0, 1e-6);
}

TEST(LeastSquaresTest, RejectsUnderdetermined) {
  Matrix x(2, 5);
  EXPECT_FALSE(LeastSquares(x, {1, 2}).ok());
}

}  // namespace
}  // namespace fedfc
