#include "sparse/build.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "graph/neighbors.hpp"

namespace gpa {

namespace {

/// Count-then-fill skeleton of the O(NNZ) builders: `row(i, visit)`
/// calls visit(j) for each column of row i in ascending order. The
/// first pass counts each row's degree, so col_idx and values are
/// allocated once, at their final size, and the second writes them.
template <typename RowFn>
Csr<float> csr_from_rows(Index seq_len, const RowFn& row) {
  GPA_CHECK(seq_len >= 0, "sequence length must be non-negative");
  Csr<float> csr;
  csr.rows = seq_len;
  csr.cols = seq_len;
  csr.row_offsets.reserve(static_cast<std::size_t>(seq_len) + 1);
  csr.row_offsets.push_back(0);
  Index nnz = 0;
  for (Index i = 0; i < seq_len; ++i) {
    row(i, [&](Index) { ++nnz; });
    csr.row_offsets.push_back(nnz);
  }
  csr.col_idx.reserve(static_cast<std::size_t>(nnz));
  for (Index i = 0; i < seq_len; ++i) {
    row(i, [&](Index j) { csr.col_idx.push_back(j); });
  }
  csr.values.assign(static_cast<std::size_t>(nnz), 1.0f);
  return csr;
}

}  // namespace

Csr<float> build_csr_from_predicate(Index seq_len,
                                    const std::function<bool(Index, Index)>& pred) {
  // The oracle the O(NNZ) builders are tested against, so it shares none
  // of their code: a plain scan of all L² cells.
  GPA_CHECK(seq_len >= 0, "sequence length must be non-negative");
  Csr<float> csr;
  csr.rows = seq_len;
  csr.cols = seq_len;
  csr.row_offsets.push_back(0);
  for (Index i = 0; i < seq_len; ++i) {
    for (Index j = 0; j < seq_len; ++j) {
      if (pred(i, j)) csr.col_idx.push_back(j);
    }
    csr.row_offsets.push_back(static_cast<Index>(csr.col_idx.size()));
  }
  csr.values.assign(csr.col_idx.size(), 1.0f);
  return csr;
}

Coo<float> build_coo_from_predicate(Index seq_len,
                                    const std::function<bool(Index, Index)>& pred) {
  return csr_to_coo(build_csr_from_predicate(seq_len, pred));
}

Csr<float> build_csr_local(Index seq_len, const LocalParams& p) {
  GPA_CHECK(p.window >= 1, "local window must be >= 1");
  return csr_from_rows(seq_len, [&](Index i, const auto& visit) {
    local_neighbors(i, seq_len, p, visit);
  });
}

Csr<float> build_csr_dilated1d(Index seq_len, const Dilated1DParams& p) {
  GPA_CHECK(p.window >= 1 && p.dilation >= 0, "bad dilated-1D parameters");
  return csr_from_rows(seq_len, [&](Index i, const auto& visit) {
    dilated1d_neighbors(i, seq_len, p, visit);
  });
}

Csr<float> build_csr_dilated2d(const Dilated2DParams& p) {
  GPA_CHECK(p.group_size() >= 1 && p.seq_len % p.block == 0, "bad dilated-2D parameters");
  return csr_from_rows(p.seq_len, [&](Index i, const auto& visit) {
    dilated2d_neighbors(i, p, visit);
  });
}

Csr<float> build_csr_global(Index seq_len, const GlobalParams& p) {
  return csr_from_rows(seq_len, [&](Index i, const auto& visit) {
    if (p.is_global(i)) {
      for (Index j = 0; j < seq_len; ++j) visit(j);
    } else {
      for (const Index j : p.tokens) visit(j);
    }
  });
}

Csr<float> build_csr_global_minus_local(Index seq_len, const GlobalMinusLocalParams& p) {
  GPA_CHECK(p.local.window >= 1, "local window must be >= 1");
  return csr_from_rows(seq_len, [&](Index i, const auto& visit) {
    global_minus_local_neighbors(i, seq_len, p, visit);
  });
}

Csr<float> build_csr_random(Index seq_len, const RandomParams& p) {
  GPA_CHECK(p.sparsity >= 0.0 && p.sparsity <= 1.0, "random sparsity must be in [0,1]");
  Rng rng(p.seed);
  Csr<float> csr;
  csr.rows = csr.cols = seq_len;
  csr.row_offsets.assign(static_cast<std::size_t>(seq_len) + 1, 0);
  if (p.sparsity <= 0.0) return csr;
  // Geometric gap sampling over the flattened L² index space: expected
  // cost O(Sf·L²) instead of O(L²) Bernoulli trials.
  const double q = 1.0 - p.sparsity;
  const double log_q = std::log(q);
  const double total = static_cast<double>(seq_len) * static_cast<double>(seq_len);
  // The expected NNZ plus six standard deviations: the columns are
  // allocated once for all but a vanishing fraction of seeds.
  const double mean = p.sparsity * total;
  csr.col_idx.reserve(static_cast<std::size_t>(mean + 6.0 * std::sqrt(mean * q) + 16.0));
  double pos = -1.0;
  for (;;) {
    const double u = std::max(rng.next_double(), 1e-300);  // avoid log(0)
    const double gap = p.sparsity < 1.0 ? std::floor(std::log(u) / log_q) : 0.0;
    pos += 1.0 + gap;
    if (pos >= total) break;
    const auto flat = static_cast<Size>(pos);
    const Index i = static_cast<Index>(flat / static_cast<Size>(seq_len));
    const Index j = static_cast<Index>(flat % static_cast<Size>(seq_len));
    ++csr.row_offsets[static_cast<std::size_t>(i) + 1];
    csr.col_idx.push_back(j);
  }
  // Flattened order is already (row, col) sorted; the counts become
  // offsets by a prefix sum.
  for (Index i = 0; i < seq_len; ++i) {
    csr.row_offsets[static_cast<std::size_t>(i) + 1] +=
        csr.row_offsets[static_cast<std::size_t>(i)];
  }
  csr.values.assign(csr.col_idx.size(), 1.0f);
  return csr;
}

Csr<float> dense_to_csr(const Matrix<std::uint8_t>& mask) {
  GPA_CHECK(mask.rows() == mask.cols(), "attention masks are square");
  return csr_from_rows(mask.rows(), [&](Index i, const auto& visit) {
    const std::uint8_t* row = mask.row(i);
    for (Index j = 0; j < mask.cols(); ++j) {
      if (row[j] != 0) visit(j);
    }
  });
}

Matrix<std::uint8_t> csr_to_dense(const Csr<float>& csr) {
  Matrix<std::uint8_t> mask(csr.rows, csr.cols);
  mask.zero();
  for (Index i = 0; i < csr.rows; ++i) {
    for (Index k = csr.row_begin(i); k < csr.row_end(i); ++k) {
      mask(i, csr.col_idx[static_cast<std::size_t>(k)]) = 1;
    }
  }
  return mask;
}

Coo<float> csr_to_coo(const Csr<float>& csr) {
  Coo<float> coo;
  coo.rows = csr.rows;
  coo.cols = csr.cols;
  coo.row_idx.reserve(csr.nnz());
  for (Index i = 0; i < csr.rows; ++i) {
    for (Index k = csr.row_begin(i); k < csr.row_end(i); ++k) {
      coo.row_idx.push_back(i);
    }
  }
  coo.col_idx = csr.col_idx;
  coo.values = csr.values;
  return coo;
}

Csr<float> coo_to_csr(const Coo<float>& coo) {
  Csr<float> csr;
  csr.rows = coo.rows;
  csr.cols = coo.cols;
  csr.row_offsets.assign(static_cast<std::size_t>(coo.rows) + 1, 0);
  for (const Index r : coo.row_idx) ++csr.row_offsets[static_cast<std::size_t>(r) + 1];
  for (Index i = 0; i < coo.rows; ++i) {
    csr.row_offsets[static_cast<std::size_t>(i) + 1] +=
        csr.row_offsets[static_cast<std::size_t>(i)];
  }
  csr.col_idx = coo.col_idx;
  csr.values = coo.values;
  return csr;
}

Csr<float> csr_leading_slice(const Csr<float>& mask, Index n) {
  GPA_CHECK(n >= 0 && n <= mask.rows && n <= mask.cols,
            "slice extent must fit inside the mask");
  // Columns are sorted, so row i of the slice is a prefix of the row:
  // count each prefix, then copy them into arrays sized once.
  Csr<float> s;
  s.rows = n;
  s.cols = n;
  s.row_offsets.reserve(static_cast<std::size_t>(n) + 1);
  s.row_offsets.push_back(0);
  for (Index i = 0; i < n; ++i) {
    const auto first = mask.col_idx.begin() + mask.row_begin(i);
    const auto last = std::lower_bound(first, mask.col_idx.begin() + mask.row_end(i), n);
    s.row_offsets.push_back(s.row_offsets.back() + static_cast<Index>(last - first));
  }
  const auto nnz = static_cast<std::size_t>(s.row_offsets.back());
  s.col_idx.reserve(nnz);
  s.values.reserve(nnz);
  for (Index i = 0; i < n; ++i) {
    const Index b = mask.row_begin(i);
    const Index e = b + s.row_degree(i);
    s.col_idx.insert(s.col_idx.end(), mask.col_idx.begin() + b, mask.col_idx.begin() + e);
    s.values.insert(s.values.end(), mask.values.begin() + b, mask.values.begin() + e);
  }
  return s;
}

}  // namespace gpa
