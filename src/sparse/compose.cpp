#include "sparse/compose.hpp"

#include "common/error.hpp"

namespace gpa {

namespace {

enum class SetOp { Union, Subtract, Intersect };

/// Sorted two-pointer sweep over row i of both masks: emit(col, value)
/// for each entry `op` keeps, in column order.
template <typename Emit>
void merge_row(const Csr<float>& a, const Csr<float>& b, Index i, SetOp op, const Emit& emit) {
  Index ka = a.row_begin(i);
  Index kb = b.row_begin(i);
  const Index ea = a.row_end(i);
  const Index eb = b.row_end(i);
  while (ka < ea || kb < eb) {
    const Index ca = ka < ea ? a.col_idx[static_cast<std::size_t>(ka)] : -1;
    const Index cb = kb < eb ? b.col_idx[static_cast<std::size_t>(kb)] : -1;
    if (kb >= eb || (ka < ea && ca < cb)) {
      if (op != SetOp::Intersect) emit(ca, a.values[static_cast<std::size_t>(ka)]);
      ++ka;
    } else if (ka >= ea || cb < ca) {
      if (op == SetOp::Union) emit(cb, b.values[static_cast<std::size_t>(kb)]);
      ++kb;
    } else {  // ca == cb, present in both
      if (op != SetOp::Subtract) emit(ca, a.values[static_cast<std::size_t>(ka)]);
      ++ka;
      ++kb;
    }
  }
}

/// One sweep counts each output row, so the arrays are allocated once,
/// at their final size; a second sweep writes them.
Csr<float> merge(const Csr<float>& a, const Csr<float>& b, SetOp op) {
  GPA_CHECK(a.rows == b.rows && a.cols == b.cols, "mask shapes must match");
  Csr<float> out;
  out.rows = a.rows;
  out.cols = a.cols;
  out.row_offsets.reserve(static_cast<std::size_t>(a.rows) + 1);
  out.row_offsets.push_back(0);
  Index nnz = 0;
  for (Index i = 0; i < a.rows; ++i) {
    merge_row(a, b, i, op, [&](Index, float) { ++nnz; });
    out.row_offsets.push_back(nnz);
  }
  out.col_idx.reserve(static_cast<std::size_t>(nnz));
  out.values.reserve(static_cast<std::size_t>(nnz));
  for (Index i = 0; i < a.rows; ++i) {
    merge_row(a, b, i, op, [&](Index c, float v) {
      out.col_idx.push_back(c);
      out.values.push_back(v);
    });
  }
  return out;
}

}  // namespace

Csr<float> mask_union(const Csr<float>& a, const Csr<float>& b) {
  return merge(a, b, SetOp::Union);
}

Csr<float> mask_subtract(const Csr<float>& a, const Csr<float>& b) {
  return merge(a, b, SetOp::Subtract);
}

Csr<float> mask_intersect(const Csr<float>& a, const Csr<float>& b) {
  return merge(a, b, SetOp::Intersect);
}

Csr<float> mask_union_all(const std::vector<Csr<float>>& parts) {
  GPA_CHECK(!parts.empty(), "mask_union_all needs at least one mask");
  Csr<float> acc = parts.front();
  for (std::size_t p = 1; p < parts.size(); ++p) acc = mask_union(acc, parts[p]);
  return acc;
}

bool masks_disjoint(const Csr<float>& a, const Csr<float>& b) {
  return mask_intersect(a, b).nnz() == 0;
}

}  // namespace gpa
