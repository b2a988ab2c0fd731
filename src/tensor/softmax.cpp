#include "tensor/softmax.hpp"

namespace gpa {

void softmax_rows(Matrix<float>& scores, SimdLevel level) {
  const Index rows = scores.rows();
  const Index cols = scores.cols();
  const simd::VecOps& vo = simd::ops(level);
  for (Index i = 0; i < rows; ++i) {
    float* row = scores.row(i);
    const float m = vo.reduce_max(row, cols);
    if (m == -std::numeric_limits<float>::infinity()) {
      // Fully masked row: define the distribution as all-zero.
      for (Index j = 0; j < cols; ++j) row[j] = 0.0f;
      continue;
    }
    for (Index j = 0; j < cols; ++j) row[j] -= m;
    vo.exp(row, row, cols);
    const float l = vo.reduce_sum(row, cols);
    vo.scale(row, 1.0f / l, cols);
  }
}

float online_softmax_fold_tile(OnlineSoftmaxRow& osr, float* scores, Index n,
                               const simd::VecOps& vo) noexcept {
  if (n <= 0) return 1.0f;
  const float tile_max = vo.reduce_max(scores, n);
  const float m_new = osr.m > tile_max ? osr.m : tile_max;
  if (m_new == -std::numeric_limits<float>::infinity()) {
    // Row still empty after this tile (every score -inf): keep the state
    // untouched instead of computing exp(-inf − -inf) = NaN.
    for (Index j = 0; j < n; ++j) scores[j] = 0.0f;
    return 1.0f;
  }
  float alpha = osr.m - m_new;
  vo.exp(&alpha, &alpha, 1);
  for (Index j = 0; j < n; ++j) scores[j] -= m_new;
  vo.exp(scores, scores, n);
  osr.l = osr.l * alpha + vo.reduce_sum(scores, n);
  osr.m = m_new;
  return alpha;
}

}  // namespace gpa
