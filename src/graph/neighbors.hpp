#pragma once
// The paper's graph model (§IV-A): tokens are vertices, mask entries are
// directed edges. `Get_Neighbors(G, i, Pa)` enumerates the keys row i
// attends to. Implicit patterns compute neighbors from parameters in
// O(degree); explicit formats read them from CSR/COO storage. Each
// generator yields columns in ascending order and is a template over the
// visitor so kernels inline the enumeration (no virtual dispatch on the
// hot path — this *is* the "true sparsity" claim: work proportional to
// edges visited).

#include <algorithm>
#include <vector>

#include "common/types.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/patterns.hpp"

namespace gpa {

/// Local window: j in [i-w+1, i+w-1] ∩ [0, L).
template <typename Fn>
inline void local_neighbors(Index i, Index seq_len, const LocalParams& p, Fn&& visit) {
  const Index lo = std::max<Index>(0, i - (p.window - 1));
  const Index hi = std::min<Index>(seq_len - 1, i + (p.window - 1));
  for (Index j = lo; j <= hi; ++j) visit(j);
}

/// Degree of row i under local_neighbors, in closed form.
inline Index local_degree(Index i, Index seq_len, const LocalParams& p) {
  const Index lo = std::max<Index>(0, i - (p.window - 1));
  const Index hi = std::min<Index>(seq_len - 1, i + (p.window - 1));
  return std::max<Index>(0, hi - lo + 1);
}

/// 1D dilation: distances 0, (r+1), 2(r+1), ... below w, both sides.
template <typename Fn>
inline void dilated1d_neighbors(Index i, Index seq_len, const Dilated1DParams& p, Fn&& visit) {
  const Index step = p.dilation + 1;
  const Index max_d = p.window - 1;
  for (Index d = (max_d / step) * step; d >= step; d -= step) {
    if (i - d >= 0) visit(i - d);
  }
  visit(i);
  for (Index d = step; d <= max_d; d += step) {
    if (i + d < seq_len) visit(i + d);
  }
}

/// Degree of row i under dilated1d_neighbors, in closed form: the
/// backward strides that stay >= 0, self, and the forward strides that
/// stay below seq_len.
inline Index dilated1d_degree(Index i, Index seq_len, const Dilated1DParams& p) {
  const Index step = p.dilation + 1;
  const Index strides = (p.window - 1) / step;
  return std::min(strides, i / step) + 1 +
         std::min(strides, std::max<Index>(0, seq_len - 1 - i) / step);
}

/// 2D dilation (paper-verbatim predicate; see Dilated2DParams).
template <typename Fn>
inline void dilated2d_neighbors(Index i, const Dilated2DParams& p, Fn&& visit) {
  if ((i % p.block) % (p.dilation + 1) != 0) return;
  const Index g = p.group_size();
  const Index lo = (i / g) * g;
  for (Index j = lo; j < lo + g; ++j) {
    if ((j % p.block) % (p.dilation + 1) == 0) visit(j);
  }
}

/// Global-minus-local (§IV-B: "the local mask is subtracted from the
/// global"): edges of the global pattern not already covered by the
/// local window, so a local kernel followed by this one visits each
/// edge of the Longformer union exactly once.
template <typename Fn>
inline void global_minus_local_neighbors(Index i, Index seq_len,
                                         const GlobalMinusLocalParams& p, Fn&& visit) {
  const Index w = p.local.window;
  const Index win_lo = i - (w - 1);
  const Index win_hi = i + (w - 1);
  if (p.global.is_global(i)) {
    // Full row minus the window.
    for (Index j = 0; j < seq_len; ++j) {
      if (j < win_lo || j > win_hi) visit(j);
    }
  } else {
    // Only the global columns outside the window.
    for (const Index j : p.global.tokens) {
      if (j < win_lo || j > win_hi) visit(j);
    }
  }
}

/// Degree of row i under global_minus_local_neighbors, in closed form:
/// the clamped columns outside the window for a global row, else binary
/// searches over the sorted tokens.
inline Index global_minus_local_degree(Index i, Index seq_len,
                                       const GlobalMinusLocalParams& p) {
  const Index win_lo = i - (p.local.window - 1);
  const Index win_hi = i + (p.local.window - 1);
  if (p.global.is_global(i)) {
    return std::clamp<Index>(win_lo, 0, seq_len) +
           (seq_len - std::clamp<Index>(win_hi + 1, 0, seq_len));
  }
  const std::vector<Index>& t = p.global.tokens;
  return static_cast<Index>((std::lower_bound(t.begin(), t.end(), win_lo) - t.begin()) +
                            (t.end() - std::upper_bound(t.begin(), t.end(), win_hi)));
}

/// Explicit CSR row: direct offset lookup (O(1) row location).
template <typename T, typename Fn>
inline void csr_neighbors(Index i, const Csr<T>& mask, Fn&& visit) {
  const Index e = mask.row_end(i);
  for (Index k = mask.row_begin(i); k < e; ++k) {
    visit(mask.col_idx[static_cast<std::size_t>(k)]);
  }
}

/// Row bounds [first, last) of row i inside a canonical COO array.
/// `linear` reproduces the paper's kernel, which scans from the start to
/// find its row ("the search cost grows as the algorithm strays farther
/// from row zero", §V-C) — this is what makes COO uncompetitive in
/// Fig. 3. The binary variant is the obvious repair, kept for the
/// ablation benchmark.
struct CooRowBounds {
  Index first;
  Index last;
};
CooRowBounds coo_row_bounds_linear(const Coo<float>& mask, Index i);
CooRowBounds coo_row_bounds_binary(const Coo<float>& mask, Index i);

/// Materialised neighbor lists (test/diagnostic convenience).
std::vector<Index> collect_local(Index i, Index seq_len, const LocalParams& p);
std::vector<Index> collect_dilated1d(Index i, Index seq_len, const Dilated1DParams& p);
std::vector<Index> collect_dilated2d(Index i, const Dilated2DParams& p);
std::vector<Index> collect_global_minus_local(Index i, Index seq_len,
                                              const GlobalMinusLocalParams& p);

}  // namespace gpa
