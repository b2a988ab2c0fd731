#include "baselines/block_sparse_flash.hpp"

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/kernel_common.hpp"
#include "parallel/parallel_for.hpp"

namespace gpa::baselines {

BlockOccupancy analyze_blocks(const Csr<float>& mask, Index block) {
  GPA_CHECK(block >= 1, "block size must be >= 1");
  GPA_CHECK(mask.rows == mask.cols, "attention masks are square");
  BlockOccupancy occ;
  occ.block = block;
  occ.grid = (mask.rows + block - 1) / block;
  occ.live.assign(static_cast<std::size_t>(occ.grid) * static_cast<std::size_t>(occ.grid), 0);
  for (Index i = 0; i < mask.rows; ++i) {
    const Index bi = i / block;
    for (Index k = mask.row_begin(i); k < mask.row_end(i); ++k) {
      const Index bj = mask.col_idx[static_cast<std::size_t>(k)] / block;
      occ.live[static_cast<std::size_t>(bi * occ.grid + bj)] = 1;
    }
  }
  for (const auto b : occ.live) occ.live_blocks += b;
  const double covered = static_cast<double>(occ.live_blocks) * static_cast<double>(block) *
                         static_cast<double>(block);
  occ.in_block_density = covered > 0.0 ? static_cast<double>(mask.nnz()) / covered : 0.0;
  return occ;
}

template <typename T>
void block_sparse_flash_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                                  const Csr<float>& mask, Matrix<T>& out,
                                  const AttentionOptions& opts, const BlockSparseConfig& cfg) {
  const Index L = q.rows();
  const Index d = q.cols();
  GPA_CHECK(mask.rows == L && mask.cols == L, "block-sparse flash: mask shape mismatch");
  GPA_CHECK(out.rows() == L && out.cols() == d, "block-sparse flash: output shape mismatch");
  GPA_CHECK(!opts.causal, "block-sparse flash: intersect the causal pattern into the mask");
  const float scale = gpa::detail::resolve_scale(opts.scale, d);
  const Index bs = cfg.block;
  const BlockOccupancy occ = analyze_blocks(mask, bs);

  // Dense view of the mask for the in-block invalidation step (the
  // comparators carry a block-local mask as well).
  const simd::VecOps& vo = simd::ops(opts.policy.simd);
  parallel_for_chunks(0, L, opts.policy, [&](Index row_lo, Index row_hi) {
    std::vector<float> s_tile(static_cast<std::size_t>(bs));
    std::vector<float> p_tile(static_cast<std::size_t>(bs));
    std::vector<float> acc(static_cast<std::size_t>(d));
    std::vector<std::uint8_t> mask_row(static_cast<std::size_t>(L));

    for (Index i = row_lo; i < row_hi; ++i) {
      // Expand this row of the mask once.
      std::fill(mask_row.begin(), mask_row.end(), std::uint8_t{0});
      for (Index kk = mask.row_begin(i); kk < mask.row_end(i); ++kk) {
        mask_row[static_cast<std::size_t>(mask.col_idx[static_cast<std::size_t>(kk)])] = 1;
      }

      const T* qi = q.row(i);
      float m = -std::numeric_limits<float>::infinity();
      float l = 0.0f;
      for (Index p = 0; p < d; ++p) acc[static_cast<std::size_t>(p)] = 0.0f;
      const Index bi = i / bs;

      for (Index bj = 0; bj < occ.grid; ++bj) {
        if (occ.live[static_cast<std::size_t>(bi * occ.grid + bj)] == 0) continue;  // skip empty block
        const Index j0 = bj * bs;
        const Index j1 = j0 + bs < L ? j0 + bs : L;

        // Full dense tile compute, then invalidation — every entry of a
        // live block costs O(d) even if masked (the §III inefficiency).
        float tile_max = -std::numeric_limits<float>::infinity();
        for (Index j = j0; j < j1; ++j) {
          const T* kj = k.row(j);
          float w = 0.0f;
          for (Index p = 0; p < d; ++p) {
            w += static_cast<float>(qi[p]) * static_cast<float>(kj[p]);
          }
          w = mask_row[static_cast<std::size_t>(j)] != 0
                  ? w * scale
                  : -std::numeric_limits<float>::infinity();
          s_tile[static_cast<std::size_t>(j - j0)] = w;
          tile_max = w > tile_max ? w : tile_max;
        }
        if (tile_max == -std::numeric_limits<float>::infinity()) continue;  // row ∩ block empty

        const float m_new = tile_max > m ? tile_max : m;
        float alpha = m - m_new;
        vo.exp(&alpha, &alpha, 1);
        if (alpha != 1.0f) {
          for (Index p = 0; p < d; ++p) acc[static_cast<std::size_t>(p)] *= alpha;
        }
        for (Index j = 0; j < j1 - j0; ++j) {
          p_tile[static_cast<std::size_t>(j)] = s_tile[static_cast<std::size_t>(j)] - m_new;
        }
        vo.exp(p_tile.data(), p_tile.data(), j1 - j0);
        float tile_l = 0.0f;
        for (Index j = j0; j < j1; ++j) {
          const float sj = s_tile[static_cast<std::size_t>(j - j0)];
          if (sj == -std::numeric_limits<float>::infinity()) continue;
          const float pj = p_tile[static_cast<std::size_t>(j - j0)];
          tile_l += pj;
          const T* vj = v.row(j);
          for (Index p = 0; p < d; ++p) {
            acc[static_cast<std::size_t>(p)] += pj * static_cast<float>(vj[p]);
          }
        }
        l = l * alpha + tile_l;
        m = m_new;
      }

      const float inv = l > 0.0f ? 1.0f / l : 0.0f;
      T* oi = out.row(i);
      for (Index p = 0; p < d; ++p) oi[p] = T(acc[static_cast<std::size_t>(p)] * inv);
    }
  });
}

template void block_sparse_flash_attention(const Matrix<float>&, const Matrix<float>&,
                                           const Matrix<float>&, const Csr<float>&,
                                           Matrix<float>&, const AttentionOptions&,
                                           const BlockSparseConfig&);
template void block_sparse_flash_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                                           const Matrix<half_t>&, const Csr<float>&,
                                           Matrix<half_t>&, const AttentionOptions&,
                                           const BlockSparseConfig&);

}  // namespace gpa::baselines
