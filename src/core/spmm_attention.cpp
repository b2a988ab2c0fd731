#include "core/spmm_attention.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"
#include "parallel/parallel_for.hpp"

namespace gpa {

template <typename T>
Csr<float> sddmm(const Matrix<T>& q, const Matrix<T>& k, const Csr<float>& mask, float scale,
                 const ExecPolicy& policy) {
  GPA_CHECK(mask.rows == q.rows() && mask.cols == k.rows(), "SDDMM mask shape mismatch");
  GPA_CHECK(q.cols() == k.cols(), "SDDMM head dimension mismatch");
  Csr<float> s;
  s.rows = mask.rows;
  s.cols = mask.cols;
  s.row_offsets = mask.row_offsets;
  s.col_idx = mask.col_idx;
  s.values.resize(mask.nnz());
  const Index d = q.cols();
  // The Q·K dots go through the dispatched vector ops on the float
  // path (same lane contract as the fused kernels, so both arms stay
  // bit-identical); half storage keeps the scalar convert loop (F16C
  // open, as in kernel_common's fold).
  const simd::VecOps& vo = simd::ops(policy.simd);

  parallel_for(0, mask.rows, policy, [&](Index i) {
    const T* qi = q.row(i);
    const Index e = mask.row_end(i);
    for (Index kk = mask.row_begin(i); kk < e; ++kk) {
      const T* kj = k.row(mask.col_idx[static_cast<std::size_t>(kk)]);
      float w;
      if constexpr (std::is_same_v<T, float>) {
        w = vo.dot(qi, kj, d);
      } else {
        w = 0.0f;
        for (Index p = 0; p < d; ++p) {
          w += static_cast<float>(qi[p]) * static_cast<float>(kj[p]);
        }
      }
      s.values[static_cast<std::size_t>(kk)] = w * scale;
    }
  });
  return s;
}

void csr_row_softmax(Csr<float>& scores, const ExecPolicy& policy) {
  // A CSR row's values are contiguous, so the max / sum / rescale passes
  // go straight through the dispatched reductions (lane contract: both
  // bitwise arms bit-identical), and the exp pass through the dispatched
  // exp (the same bits on every arm).
  const simd::VecOps& vo = simd::ops(policy.simd);
  parallel_for(0, scores.rows, policy, [&](Index i) {
    const Index b = scores.row_begin(i);
    const Index e = scores.row_end(i);
    if (b == e) return;
    float* row = scores.values.data() + static_cast<std::size_t>(b);
    const Index n = e - b;
    const float m = vo.reduce_max(row, n);
    for (Index k = 0; k < n; ++k) row[k] -= m;
    vo.exp(row, row, n);
    const float l = vo.reduce_sum(row, n);
    vo.scale(row, 1.0f / l, n);
  });
}

template <typename T>
void spmm(const Csr<float>& s, const Matrix<T>& v, Matrix<T>& out, const ExecPolicy& policy) {
  GPA_CHECK(s.cols == v.rows(), "SpMM inner dimension mismatch");
  GPA_CHECK(out.rows() == s.rows && out.cols() == v.cols(), "SpMM output shape mismatch");
  const Index d = v.cols();
  // The weighted V-row accumulation is the axpy of the fused kernels'
  // fold; float storage rides the dispatched arm (same lane contract,
  // so scalar and AVX2 dispatch stay bit-identical), half keeps the
  // scalar convert-and-accumulate loop (F16C open, as in
  // kernel_common's fold).
  const simd::VecOps& vo = simd::ops(policy.simd);
  parallel_for(0, s.rows, policy, [&](Index i) {
    // Accumulate in float even for half storage.
    std::vector<float> acc(static_cast<std::size_t>(d), 0.0f);
    const Index e = s.row_end(i);
    for (Index k = s.row_begin(i); k < e; ++k) {
      const float w = s.values[static_cast<std::size_t>(k)];
      const T* vr = v.row(s.col_idx[static_cast<std::size_t>(k)]);
      if constexpr (std::is_same_v<T, float>) {
        vo.axpy(acc.data(), w, vr, d);
      } else {
        for (Index p = 0; p < d; ++p) {
          acc[static_cast<std::size_t>(p)] += w * static_cast<float>(vr[p]);
        }
      }
    }
    T* o = out.row(i);
    for (Index p = 0; p < d; ++p) o[p] = T(acc[static_cast<std::size_t>(p)]);
  });
}

template <typename T>
void spmm_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                    const Csr<float>& mask, Matrix<T>& out, const AttentionOptions& opts) {
  const float scale = detail::resolve_scale(opts.scale, q.cols());
  // All three stages iterate the same mask rows, so one Auto resolution
  // against the mask's skew profile serves the whole pipeline.
  const ExecPolicy policy =
      MaskTraversal::over(mask).resolved_policy(opts.policy, mask.rows, /*causal=*/false);
  Csr<float> s = sddmm(q, k, mask, scale, policy);
  csr_row_softmax(s, policy);
  spmm(s, v, out, policy);
}

template Csr<float> sddmm(const Matrix<float>&, const Matrix<float>&, const Csr<float>&, float,
                          const ExecPolicy&);
template Csr<float> sddmm(const Matrix<half_t>&, const Matrix<half_t>&, const Csr<float>&,
                          float, const ExecPolicy&);
template void spmm(const Csr<float>&, const Matrix<float>&, Matrix<float>&, const ExecPolicy&);
template void spmm(const Csr<float>&, const Matrix<half_t>&, Matrix<half_t>&,
                   const ExecPolicy&);
template void spmm_attention(const Matrix<float>&, const Matrix<float>&, const Matrix<float>&,
                             const Csr<float>&, Matrix<float>&, const AttentionOptions&);
template void spmm_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                             const Matrix<half_t>&, const Csr<float>&, Matrix<half_t>&,
                             const AttentionOptions&);

}  // namespace gpa
