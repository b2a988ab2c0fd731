#include "reference.hpp"

#include <algorithm>

namespace e2e {

double row_error(const float* got, const std::vector<double>& want) {
  double worst = 0.0;
  for (std::size_t x = 0; x < want.size(); ++x) {
    const double err = std::abs(static_cast<double>(got[x]) - want[x]) / (1.0 + std::abs(want[x]));
    // NaN compares false: make it count as a failure, not as zero error.
    worst = std::isnan(err) ? INFINITY : std::max(worst, err);
  }
  return worst;
}

std::vector<Index> local_global_cols(Index i, Index seq_len, Index reach, Index num_global,
                                     bool causal) {
  const Index hi = causal ? i : seq_len - 1;
  std::vector<Index> cols;
  for (Index j = 0; j <= hi; ++j) {
    const bool local = (i > j ? i - j : j - i) <= reach;
    const bool global = i < num_global || j < num_global;
    if (local || global) cols.push_back(j);
  }
  return cols;
}

std::vector<Index> dilated_cols(Index i, Index seq_len, Index window, Index dilation) {
  std::vector<Index> cols;
  for (Index j = std::max<Index>(0, i - window + 1); j < std::min(seq_len, i + window); ++j) {
    if ((i > j ? i - j : j - i) % (dilation + 1) == 0) cols.push_back(j);
  }
  return cols;
}

std::vector<Index> csr_cols(const gpa::Csr<float>& mask, Index i) {
  return {mask.col_idx.begin() + mask.row_begin(i), mask.col_idx.begin() + mask.row_end(i)};
}

}  // namespace e2e
