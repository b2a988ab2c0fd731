#pragma once
// Shared implementation of Algorithm 1 (Graph Processing Attention).
//
// Every kernel is the same row-parallel fold; they differ only in the
// neighbor enumeration (`Get_Neighbors`). The fold below is the paper's
// inner loop with one algebraic change: the accumulator stays
// unnormalised (U = l·O) and is divided by l once at finalisation,
// instead of renormalising on every edge. Per edge:
//
//   w      = scale · (Q_i · K_j)          (optionally · mask value)
//   m_new  = max(m, w)
//   alpha  = exp(m − m_new), beta = exp(w − m_new)
//   l      = l·alpha + beta
//   U_i    = U_i·alpha + beta·V_j
//
// which is exactly the paper's update after multiplying through by l.
// exp is the program's one exp (simd::VecOps::exp).
//
// The fold runs per tile: a row's edges are queued sixteen at a time
// (EdgeTile) and each float tile is one VecOps::fold_tile call, which
// on avx512 keeps the tile's scores in registers from the dots to the
// exps. Every edge still gets the update above, in edge order, so
// tiling changes the speed and not the bits.

#include <cmath>

#include "common/error.hpp"
#include "core/attention_options.hpp"
#include "core/state.hpp"
#include "core/traversal.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "tensor/matrix.hpp"
#include "tensor/softmax.hpp"

namespace gpa::detail {

/// Resolve the score scale (< 0 means 1/sqrt(dk)).
inline float resolve_scale(float requested, Index head_dim) {
  if (requested >= 0.0f) return requested;
  GPA_CHECK(head_dim > 0, "cannot derive 1/sqrt(dk) scale for empty head dimension");
  return 1.0f / std::sqrt(static_cast<float>(head_dim));
}

/// Validate the Q/K/V/state shapes shared by all kernels.
template <typename T>
void check_inputs(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                  const SoftmaxState& state) {
  GPA_CHECK(q.rows() == k.rows() && q.rows() == v.rows(),
            "Q, K, V must share the sequence length");
  GPA_CHECK(q.cols() == k.cols(), "Q and K must share the head dimension");
  GPA_CHECK(v.cols() == q.cols(), "this implementation assumes dv == dk, like the paper's");
  GPA_CHECK(state.seq_len() == q.rows() && state.head_dim() == v.cols(),
            "softmax state shape mismatch — reset(seq_len, head_dim) first");
}

template <typename Q, typename KV>
struct EdgeTile;

/// Folds a tile's queued edges into its row state and empties the queue.
/// Out of line on purpose (kernel_common.cpp): inlined at every
/// enumeration site, the flush made the per-edge loop slower than the
/// edge-at-a-time fold it replaces.
template <typename Q, typename KV>
void fold_tile(EdgeTile<Q, KV>& tile);

/// One row's fold, sixteen edges at a time. `add` queues an edge's K
/// row, V row and gate; every simd::kTileRows edges, and at `flush`,
/// fold_tile folds the queue: for float rows in one VecOps::fold_tile
/// call. Each edge gets exactly the operations of the update in the
/// header comment, in the same order, so the result is the
/// edge-at-a-time fold's bit for bit on every arm. Call `flush` at the
/// end of each row, or of each row's shard.
///
/// Q is the query's element type and KV that of the K/V rows: float,
/// half_t for half matrices, or a float query over half-width KV pages.
/// The half forms fold edge by edge inside the flush with the fp16 table
/// entries (dot_h / dot_fh, axpy_h / axpby_h) and
/// OnlineSoftmaxRow::push_each; fp16 K/V widen exactly, so fp16-page
/// decode differs from fp32-page decode only by the storage
/// quantisation of K/V.
template <typename Q, typename KV = Q>
struct EdgeTile {
  EdgeTile(const Q* q_row, float* acc_row, OnlineSoftmaxRow row_state, Index dim,
           float score_scale, bool gated, const simd::VecOps& ops) noexcept
      : q(q_row), acc(acc_row), osr(row_state), head_dim(dim), scale(score_scale),
        use_gate(gated), vo(&ops) {}

  void add(const KV* kj, const KV* vj, float g) {
    k[count] = kj;
    v[count] = vj;
    gate[count] = g;
    if (++count == simd::kTileRows) fold_tile(*this);
  }

  void flush() {
    if (count > 0) fold_tile(*this);
  }

  const Q* q;
  float* acc;  ///< unnormalised accumulator of the row
  OnlineSoftmaxRow osr;
  Index head_dim;
  float scale;
  bool use_gate;
  const simd::VecOps* vo;

  Index count = 0;
  const KV* k[simd::kTileRows];
  const KV* v[simd::kTileRows];
  float gate[simd::kTileRows];
};

extern template void fold_tile(EdgeTile<float, float>&);
extern template void fold_tile(EdgeTile<half_t, half_t>&);
extern template void fold_tile(EdgeTile<float, half_t>&);

/// The row-parallel driver. `row_enum(i, edge)` must call
/// `edge(j, gate)` for every neighbor j of row i (gate is the mask value
/// for explicit formats, 1.0f otherwise).
template <typename T, typename RowEnum>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state, RowEnum&& row_enum) {
  check_inputs(q, k, v, state);
  const Index seq_len = q.rows();
  const Index head_dim = q.cols();
  const float scale = resolve_scale(opts.scale, head_dim);
  const bool use_gate = opts.use_mask_values;
  const simd::VecOps& vo = simd::ops(opts.policy.simd);  // resolved once per call

  parallel_for(0, seq_len, opts.policy, [&](Index i) {
    EdgeTile<T> tile(q.row(i), state.acc_row(i), {state.m(i), state.l(i)}, head_dim, scale,
                     use_gate, vo);
    row_enum(i, [&](Index j, float gate) { tile.add(k.row(j), v.row(j), gate); });
    tile.flush();
    state.m(i) = tile.osr.m;
    state.l(i) = tile.osr.l;
  });
}

/// Traversal-driven driver: resolves Schedule::Auto from the mask's
/// degree/skew statistics, then runs the generic row loop over the
/// traversal's enumeration. Every kernel TU routes through this, so
/// auto-tuned scheduling needs zero per-kernel code.
template <typename T>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state, const MaskTraversal& tr) {
  AttentionOptions o = opts;
  o.policy = tr.resolved_policy(opts.policy, q.rows(), opts.causal);
  run_rows(q, k, v, o, state, traversal_rows(tr, q.rows(), opts.causal));
}

/// Composition form (composed_attention): one row-parallel pass folding
/// every component per row, schedule resolved over the components'
/// summed degree profile.
template <typename T>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state,
              const std::vector<MaskTraversal>& components) {
  AttentionOptions o = opts;
  const Index seq_len = q.rows();
  o.policy = gpa::resolved_policy(opts.policy, components, seq_len, opts.causal);
  run_rows(q, k, v, o, state, [&](Index i, auto&& edge) {
    for (const MaskTraversal& tr : components) {
      tr.for_each_edge(i, seq_len, opts.causal, edge);
    }
  });
}

}  // namespace gpa::detail
