// Tests for the tensor substrate: Matrix, fills, allclose (the paper's
// verification comparator), blocked GEMM, and softmax primitives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/softmax.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa {
namespace {

TEST(MatrixTest, ShapeAndZeroInit) {
  Matrix<float> m(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_EQ(m.size_bytes(), 3u * 5u * sizeof(float));
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 5; ++j) EXPECT_EQ(m(i, j), 0.0f);
  }
}

TEST(MatrixTest, RowPointersAreContiguous) {
  Matrix<float> m(4, 7);
  EXPECT_EQ(m.row(1), m.data() + 7);
  EXPECT_EQ(m.row(3), m.data() + 21);
}

TEST(MatrixTest, AtChecksBounds) {
  Matrix<float> m(2, 2);
  EXPECT_NO_THROW(m.at(1, 1));
  EXPECT_THROW(m.at(2, 0), InvalidArgument);
  EXPECT_THROW(m.at(0, -1), InvalidArgument);
}

TEST(MatrixTest, NegativeExtentsRejected) {
  EXPECT_THROW(Matrix<float>(-1, 3), InvalidArgument);
}

TEST(TensorOpsTest, FillUniformIsDeterministicPerSeed) {
  Matrix<float> a(8, 8), b(8, 8);
  Rng r1(33), r2(33);
  fill_uniform(a, r1);
  fill_uniform(b, r2);
  EXPECT_TRUE(allclose(a, b, 0, 0).all_close);
}

TEST(TensorOpsTest, F16RoundTripStaysClose) {
  Matrix<float> a(16, 16);
  Rng rng(5);
  fill_uniform(a, rng);
  const Matrix<float> back = to_f32(to_f16(a));
  const auto rep = allclose(back, a, 1e-2, 1e-3);
  EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
}

TEST(TensorOpsTest, AllcloseFlagsDeviation) {
  Matrix<float> a(2, 2), b(2, 2);
  b(1, 1) = 1e-3f;
  const auto rep = allclose(a, b);
  EXPECT_FALSE(rep.all_close);
  EXPECT_EQ(rep.worst_row, 1);
  EXPECT_EQ(rep.worst_col, 1);
  EXPECT_FLOAT_EQ(static_cast<float>(rep.max_abs_diff), 1e-3f);
}

TEST(TensorOpsTest, AllcloseTreatsNanAsEqual) {
  // The paper's verification sets equal_nan=True.
  Matrix<float> a(1, 2), b(1, 2);
  a(0, 0) = std::nanf("");
  b(0, 0) = std::nanf("");
  a(0, 1) = 1.0f;
  b(0, 1) = 1.0f;
  EXPECT_TRUE(allclose(a, b).all_close);
}

TEST(TensorOpsTest, AllcloseUsesRelativeTolerance) {
  Matrix<float> a(1, 1), b(1, 1);
  a(0, 0) = 1000.0f;
  b(0, 0) = 1000.0f * (1.0f + 5e-6f);  // inside rtol=1e-5
  EXPECT_TRUE(allclose(a, b).all_close);
  b(0, 0) = 1000.0f * (1.0f + 5e-5f);  // outside
  EXPECT_FALSE(allclose(a, b).all_close);
}

// --- GEMM --------------------------------------------------------------

Matrix<float> naive_nt(const Matrix<float>& a, const Matrix<float>& b) {
  Matrix<float> c(a.rows(), b.rows());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < b.rows(); ++j) {
      double acc = 0;
      for (Index p = 0; p < a.cols(); ++p) acc += double(a(i, p)) * double(b(j, p));
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<Index, Index, Index>> {};

TEST_P(GemmShapes, NtMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Matrix<float> a(m, k), b(n, k);
  Rng rng(17);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  Matrix<float> c(m, n);
  gemm_nt(a, b, c, ExecPolicy{2, 8, Schedule::Static});
  const auto rep = allclose(c, naive_nt(a, b), 1e-4, 1e-5);
  EXPECT_TRUE(rep.all_close) << rep.max_abs_diff;
}

TEST_P(GemmShapes, NnMatchesTransposedNt) {
  const auto [m, k, n] = GetParam();
  Matrix<float> a(m, k), b(k, n);
  Rng rng(19);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  // Build bT and compare a·b against naive_nt(a, bT).
  Matrix<float> bt(n, k);
  for (Index i = 0; i < k; ++i) {
    for (Index j = 0; j < n; ++j) bt(j, i) = b(i, j);
  }
  Matrix<float> c(m, n);
  gemm_nn(a, b, c, ExecPolicy{2, 8, Schedule::Dynamic});
  const auto rep = allclose(c, naive_nt(a, bt), 1e-4, 1e-5);
  EXPECT_TRUE(rep.all_close) << rep.max_abs_diff;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(7, 3, 5),
                                           std::make_tuple(64, 64, 64),
                                           std::make_tuple(65, 33, 129),
                                           std::make_tuple(128, 16, 96)));

TEST(GemmTest, ShapeMismatchThrows) {
  Matrix<float> a(4, 3), b(5, 4), c(4, 5);
  EXPECT_THROW(gemm_nt(a, b, c), InvalidArgument);
}

// --- Softmax -----------------------------------------------------------

TEST(SoftmaxTest, RowsSumToOne) {
  Matrix<float> s(4, 6);
  Rng rng(23);
  fill_uniform(s, rng);
  softmax_rows(s);
  for (Index i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (Index j = 0; j < 6; ++j) {
      EXPECT_GE(s(i, j), 0.0f);
      sum += s(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, StableUnderLargeScores) {
  Matrix<float> s(1, 3);
  s(0, 0) = 10000.0f;
  s(0, 1) = 10001.0f;
  s(0, 2) = 9999.0f;
  softmax_rows(s);
  EXPECT_FALSE(std::isnan(s(0, 0)));
  EXPECT_GT(s(0, 1), s(0, 0));
  EXPECT_GT(s(0, 0), s(0, 2));
}

TEST(SoftmaxTest, FullyMaskedRowBecomesZeros) {
  Matrix<float> s(1, 4);
  for (Index j = 0; j < 4; ++j) s(0, j) = -std::numeric_limits<float>::infinity();
  softmax_rows(s);
  for (Index j = 0; j < 4; ++j) EXPECT_EQ(s(0, j), 0.0f);
}

TEST(OnlineSoftmaxTest, MatchesTwoPassSoftmax) {
  const float scores[] = {0.3f, -1.2f, 2.5f, 0.0f, 1.1f};
  OnlineSoftmaxRow osr;
  float acc = 0.0f;  // accumulate a scalar "value" of 1 per entry -> acc == l
  for (const float w : scores) {
    float alpha = 0.0f, beta = 0.0f;
    osr.push_each(&w, 1, &alpha, &beta, simd::ops(SimdLevel::Auto));
    acc = acc * alpha + beta * 1.0f;
  }
  // Two-pass.
  float m = -std::numeric_limits<float>::infinity();
  for (const float w : scores) m = std::max(m, w);
  float l = 0.0f;
  for (const float w : scores) l += std::exp(w - m);
  EXPECT_NEAR(osr.l, l, 1e-5f);
  EXPECT_NEAR(acc, l, 1e-5f);
  EXPECT_FLOAT_EQ(osr.m, 2.5f);
}

TEST(OnlineSoftmaxTest, EmptyRowYieldsZeroNormaliser) {
  OnlineSoftmaxRow osr;
  EXPECT_EQ(osr.inv_l(), 0.0f);
}

TEST(OnlineSoftmaxTest, NegInfScoreOnEmptyRowIsIgnored) {
  OnlineSoftmaxRow osr;
  const float w = -std::numeric_limits<float>::infinity();
  float alpha = 0.0f, beta = 1.0f;
  osr.push_each(&w, 1, &alpha, &beta, simd::ops(SimdLevel::Auto));
  EXPECT_EQ(alpha, 1.0f);
  EXPECT_EQ(beta, 0.0f);
  EXPECT_EQ(osr.l, 0.0f);
  EXPECT_EQ(osr.m, w);
}

}  // namespace
}  // namespace gpa
