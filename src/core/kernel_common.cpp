#include "core/kernel_common.hpp"

#include <type_traits>

namespace gpa::detail {

template <typename Q, typename KV>
void fold_tile(EdgeTile<Q, KV>& t) {
  const simd::VecOps& vo = *t.vo;
  const Index n = t.count;
  if constexpr (std::is_same_v<Q, float> && std::is_same_v<KV, float>) {
    vo.fold_tile(t.q, t.k, t.v, t.use_gate ? t.gate : nullptr, n, t.head_dim, t.scale,
                 &t.osr.m, &t.osr.l, t.acc);
  } else {
    float w[simd::kTileRows] = {};
    for (Index b = 0; b < n; ++b) {
      if constexpr (std::is_same_v<Q, float>) {
        w[b] = vo.dot_fh(t.q, t.k[b], t.head_dim);
      } else {
        w[b] = vo.dot_h(t.q, t.k[b], t.head_dim);
      }
      w[b] *= t.scale;
      if (t.use_gate) w[b] *= t.gate[b];
    }
    float alpha[simd::kTileRows] = {};
    float beta[simd::kTileRows] = {};
    t.osr.push_each(w, n, alpha, beta, vo);
    for (Index b = 0; b < n; ++b) {
      if (alpha[b] == 1.0f) {  // running max unchanged: skip the rescale multiply
        vo.axpy_h(t.acc, beta[b], t.v[b], t.head_dim);
      } else {
        vo.axpby_h(t.acc, alpha[b], beta[b], t.v[b], t.head_dim);
      }
    }
  }
  t.count = 0;
}

template void fold_tile(EdgeTile<float, float>&);
template void fold_tile(EdgeTile<half_t, half_t>&);
template void fold_tile(EdgeTile<float, half_t>&);

}  // namespace gpa::detail
