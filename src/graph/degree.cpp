#include "graph/degree.hpp"

#include <cmath>

#include "graph/neighbors.hpp"

namespace gpa {

DegreeStats degree_stats(const std::vector<Index>& degrees) {
  DegreeStats s;
  if (degrees.empty()) return s;
  s.min_degree = degrees.front();
  s.max_degree = degrees.front();
  double sum = 0.0;
  for (const Index d : degrees) {
    s.total += static_cast<Size>(d);
    sum += static_cast<double>(d);
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
  }
  s.mean = sum / static_cast<double>(degrees.size());
  double var = 0.0;
  for (const Index d : degrees) {
    const double delta = static_cast<double>(d) - s.mean;
    var += delta * delta;
  }
  s.stddev = std::sqrt(var / static_cast<double>(degrees.size()));
  s.imbalance = s.mean > 0.0 ? static_cast<double>(s.max_degree) / s.mean : 0.0;
  return s;
}

std::vector<Index> csr_degrees(const Csr<float>& mask) {
  std::vector<Index> d(static_cast<std::size_t>(mask.rows));
  for (Index i = 0; i < mask.rows; ++i) d[static_cast<std::size_t>(i)] = mask.row_degree(i);
  return d;
}

std::vector<Index> local_degrees(Index seq_len, const LocalParams& p) {
  std::vector<Index> d(static_cast<std::size_t>(seq_len));
  for (Index i = 0; i < seq_len; ++i) {
    d[static_cast<std::size_t>(i)] = local_degree(i, seq_len, p);
  }
  return d;
}

std::vector<Index> dilated1d_degrees(Index seq_len, const Dilated1DParams& p) {
  std::vector<Index> d(static_cast<std::size_t>(seq_len));
  for (Index i = 0; i < seq_len; ++i) {
    d[static_cast<std::size_t>(i)] = dilated1d_degree(i, seq_len, p);
  }
  return d;
}

std::vector<Index> dilated2d_degrees(const Dilated2DParams& p) {
  std::vector<Index> d(static_cast<std::size_t>(p.seq_len));
  for (Index i = 0; i < p.seq_len; ++i) {
    Index count = 0;
    dilated2d_neighbors(i, p, [&](Index) { ++count; });
    d[static_cast<std::size_t>(i)] = count;
  }
  return d;
}

std::vector<Index> global_minus_local_degrees(Index seq_len,
                                              const GlobalMinusLocalParams& p) {
  std::vector<Index> d(static_cast<std::size_t>(seq_len));
  for (Index i = 0; i < seq_len; ++i) {
    d[static_cast<std::size_t>(i)] = global_minus_local_degree(i, seq_len, p);
  }
  return d;
}

}  // namespace gpa
