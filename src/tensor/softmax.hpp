#pragma once
// Softmax primitives.
//
// Two flavours live here:
//  * the classic two-pass numerically stable row softmax used by the
//    masked-SDP baseline, and
//  * the online (single-pass) normaliser of Milakov & Gimelshein that
//    Algorithm 1 and FlashAttention build on: a running maximum `m` and
//    running denominator `l` folded edge by edge.

#include <limits>

#include "simd/simd.hpp"
#include "tensor/matrix.hpp"

namespace gpa {

/// In-place numerically stable softmax over each row. Rows whose maximum
/// is -inf (fully masked) become all-zero rows rather than NaN, the same
/// convention reference_attention and the kernels' inv_l() use; it holds
/// on every SIMD arm (the vector max-reduction seeds dead tail lanes
/// with -inf, so an all-masked row cannot pick up a spurious 0 maximum).
/// The max / sum / rescale passes and the exp go through the dispatched
/// vector ops; the exp has the same bits on every arm.
void softmax_rows(Matrix<float>& scores, SimdLevel level = SimdLevel::Auto);

/// Online softmax accumulator for a single output row: the (m, l, acc)
/// triple of Algorithm 1, with the accumulator kept unnormalised until
/// `finish` (algebraically identical to the paper's per-step division).
struct OnlineSoftmaxRow {
  float m = -std::numeric_limits<float>::infinity();
  float l = 0.0f;

  /// Folds scores[0..n) (n <= simd::kTileRows) in order, writing each
  /// score's rescale alpha (for the existing accumulator) and weight
  /// beta (for the incoming value row): acc = alpha * acc + beta * V[j].
  /// This is simd::softmax_push on (m, l) with vo's exp; see there for
  /// the per-score update and the empty-row case.
  void push_each(const float* scores, Index n, float* alpha, float* beta,
                 const simd::VecOps& vo) noexcept {
    simd::softmax_push(vo.exp, scores, n, m, l, alpha, beta);
  }

  /// Normaliser to apply to the accumulator at the end (0 for an empty
  /// row, which zeroes the output).
  float inv_l() const noexcept { return l > 0.0f ? 1.0f / l : 0.0f; }
};

/// Batched fold of one tile of `n` scores into an online-softmax row
/// state — the vectorized form of n successive push_each steps with one
/// max update. On return `scores[0..n)` holds the unnormalised tile
/// probabilities exp(s_j - m_new) and the returned alpha is the rescale
/// coefficient for the caller's accumulator (1 when the running max did
/// not move). A tile that leaves the row's maximum at -inf (fully
/// masked so far) zeroes the probabilities and leaves (m, l) untouched,
/// mirroring push_each's empty-row case.
float online_softmax_fold_tile(OnlineSoftmaxRow& osr, float* scores, Index n,
                               const simd::VecOps& vo) noexcept;

}  // namespace gpa
