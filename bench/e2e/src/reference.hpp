#pragma once
// The benchmark's own oracle: naive double-precision attention rows over
// neighbour sets derived from the mask definitions, independent of the
// program's kernels and traversals.

#include <cmath>
#include <vector>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace e2e {

using gpa::Index;

/// Relative error bound of every sampled output against the reference.
inline constexpr double kTolerance = 1e-4;

/// softmax(scale · q·k_j) · v_j over `cols`, accumulated in double.
/// `krow(j)` / `vrow(j)` return pointers to the d floats of row j.
template <typename KRow, typename VRow>
std::vector<double> reference_row(const float* q, Index d, const std::vector<Index>& cols,
                                  double scale, KRow krow, VRow vrow) {
  std::vector<double> score(cols.size());
  double top = -INFINITY;
  for (std::size_t e = 0; e < cols.size(); ++e) {
    const float* k = krow(cols[e]);
    double dot = 0.0;
    for (Index x = 0; x < d; ++x) dot += static_cast<double>(q[x]) * k[x];
    score[e] = scale * dot;
    top = std::max(top, score[e]);
  }
  std::vector<double> out(static_cast<std::size_t>(d), 0.0);
  double norm = 0.0;
  for (std::size_t e = 0; e < cols.size(); ++e) {
    const double w = std::exp(score[e] - top);
    norm += w;
    const float* v = vrow(cols[e]);
    for (Index x = 0; x < d; ++x) out[static_cast<std::size_t>(x)] += w * v[x];
  }
  for (double& o : out) o /= norm;
  return out;
}

/// max_x |got[x] − want[x]| / (1 + |want[x]|).
double row_error(const float* got, const std::vector<double>& want);

/// Local window of `reach` tokens each side plus the first `num_global`
/// tokens as global rows and columns (Longformer); causal keeps j <= i.
std::vector<Index> local_global_cols(Index i, Index seq_len, Index reach, Index num_global,
                                     bool causal);
/// |i−j| < window and |i−j| divisible by dilation+1.
std::vector<Index> dilated_cols(Index i, Index seq_len, Index window, Index dilation);
/// Row i of an explicit mask (random components have no closed form).
std::vector<Index> csr_cols(const gpa::Csr<float>& mask, Index i);

}  // namespace e2e
