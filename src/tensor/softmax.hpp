#pragma once
// Softmax primitives.
//
// Two flavours live here:
//  * the classic two-pass numerically stable row softmax used by the
//    masked-SDP baseline, and
//  * the online (single-pass) normaliser of Milakov & Gimelshein that
//    Algorithm 1 and FlashAttention build on: a running maximum `m` and
//    running denominator `l` folded edge by edge.

#include <cmath>
#include <limits>

#include "simd/simd.hpp"
#include "tensor/matrix.hpp"

namespace gpa {

/// In-place numerically stable softmax over each row. Rows whose maximum
/// is -inf (fully masked) become all-zero rows rather than NaN — see
/// DESIGN.md §4 for why this convention is used on both sides of every
/// comparison; the convention is enforced on both SIMD dispatch arms
/// (the vector max-reduction seeds dead tail lanes with -inf, so an
/// all-masked row cannot pick up a spurious 0 maximum).
/// The max / sum / rescale passes go through the dispatched vector ops;
/// exp stays element-wise scalar (identical libm call on both arms).
void softmax_rows(Matrix<float>& scores, SimdLevel level = SimdLevel::Auto);

/// Online softmax accumulator for a single output row: the (m, l, acc)
/// triple of Algorithm 1, with the accumulator kept unnormalised until
/// `finish` (algebraically identical to the paper's per-step division).
struct OnlineSoftmaxRow {
  float m = -std::numeric_limits<float>::infinity();
  float l = 0.0f;

  /// Folds one score in and returns the pair of rescaling coefficients
  /// (alpha for the existing accumulator, beta for the incoming value
  /// row): acc = alpha * acc + beta * V[j].
  struct Coeffs {
    float alpha;
    float beta;
  };
  Coeffs push(float score) noexcept {
    Coeffs c;
    push_each(&score, 1, &c.alpha, &c.beta);
    return c;
  }

  /// Folds scores[0..n) in order, writing each score's (alpha, beta):
  /// bit for bit n successive push calls. Per score, with m the running
  /// max before it:
  ///   m_new = max(m, score), alpha = exp(m - m_new), beta = exp(score -
  ///   m_new), l = l·alpha + beta, m = m_new
  /// except that a -inf score on a still-empty row (m == -inf) changes
  /// nothing and gets (1, 0) — exp(-inf - -inf) would be NaN. exp(±0) is
  /// exactly 1, so an unmoved max skips that call; a NaN or infinite
  /// difference still goes through exp (exp(-inf - m_new) == 0 handles
  /// the first edge). The exps come first, with the max re-derived score
  /// by score, so they do not wait on one another; l then follows in
  /// score order.
  void push_each(const float* scores, Index n, float* alpha, float* beta) noexcept {
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    float run_m = m;
    for (Index b = 0; b < n; ++b) {
      const float s = scores[b];
      const float m_new = s > run_m ? s : run_m;
      if (s == kNegInf && run_m == kNegInf) {
        alpha[b] = 1.0f;
        beta[b] = 0.0f;
      } else {
        const float dm = run_m - m_new;
        alpha[b] = dm == 0.0f ? 1.0f : std::exp(dm);
        beta[b] = std::exp(s - m_new);
      }
      run_m = m_new;
    }
    for (Index b = 0; b < n; ++b) {
      const float s = scores[b];
      if (!(s == kNegInf && m == kNegInf)) l = l * alpha[b] + beta[b];
      m = s > m ? s : m;
    }
  }

  /// Normaliser to apply to the accumulator at the end (0 for an empty
  /// row, which zeroes the output).
  float inv_l() const noexcept { return l > 0.0f ? 1.0f / l : 0.0f; }
};

/// Batched fold of one tile of `n` scores into an online-softmax row
/// state — the vectorized form of n successive `push` calls with one max
/// update. On return `scores[0..n)` holds the unnormalised tile
/// probabilities exp(s_j - m_new) and the returned alpha is the rescale
/// coefficient for the caller's accumulator (1 when the running max did
/// not move). A tile that leaves the row's maximum at -inf (fully
/// masked so far) zeroes the probabilities and leaves (m, l) untouched,
/// mirroring OnlineSoftmaxRow::push's empty-row guard.
float online_softmax_fold_tile(OnlineSoftmaxRow& osr, float* scores, Index n,
                               const simd::VecOps& vo) noexcept;

/// Merge of two online-softmax states over disjoint edge sets:
/// returns coefficients to combine the two unnormalised accumulators.
struct MergedState {
  float m;
  float l;
  float coeff_a;  // multiply accumulator A by this
  float coeff_b;  // multiply accumulator B by this
};
MergedState merge_online_states(float m_a, float l_a, float m_b, float l_b) noexcept;

}  // namespace gpa
