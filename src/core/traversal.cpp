#include "core/traversal.hpp"

#include <algorithm>
#include <utility>

#include "common/fnv1a.hpp"
#include "core/batched.hpp"
#include "parallel/auto_tune.hpp"
#include "sparse/presets.hpp"

namespace gpa {

MaskTraversal MaskTraversal::csr(std::shared_ptr<const Csr<float>> mask) {
  GPA_CHECK(mask != nullptr, "CSR traversal needs a mask");
  MaskTraversal t = over(*mask);
  t.owner_ = std::move(mask);
  t.csr_ = static_cast<const Csr<float>*>(t.owner_.get());
  return t;
}

MaskTraversal MaskTraversal::coo(std::shared_ptr<const Coo<float>> mask, CooSearch search) {
  GPA_CHECK(mask != nullptr, "COO traversal needs a mask");
  MaskTraversal t = over(*mask, search);
  t.owner_ = std::move(mask);
  t.coo_ = static_cast<const Coo<float>*>(t.owner_.get());
  return t;
}

MaskTraversal MaskTraversal::local(LocalParams p) {
  GPA_CHECK(p.window >= 1, "local window must be >= 1");
  MaskTraversal t;
  t.kind_ = Kind::Local;
  t.local_ = p;
  return t;
}

MaskTraversal MaskTraversal::dilated1d(Dilated1DParams p) {
  GPA_CHECK(p.window >= 1 && p.dilation >= 0, "bad dilated-1D parameters");
  MaskTraversal t;
  t.kind_ = Kind::Dilated1d;
  t.dilated_ = p;
  return t;
}

MaskTraversal MaskTraversal::dilated2d(Dilated2DParams p) {
  GPA_CHECK(p.seq_len >= 1 && p.block >= 1 && p.seq_len % p.block == 0 && p.dilation >= 0,
            "bad dilated-2D parameters");
  MaskTraversal t;
  t.kind_ = Kind::Dilated2d;
  t.dilated2_ = p;
  return t;
}

MaskTraversal MaskTraversal::global(GlobalMinusLocalParams p) {
  GPA_CHECK(p.local.window >= 1, "global kernel's subtracted window must be >= 1");
  MaskTraversal t;
  t.kind_ = Kind::Global;
  t.global_ = std::move(p);
  return t;
}

MaskTraversal MaskTraversal::over(const Csr<float>& mask) {
  MaskTraversal t;
  t.kind_ = Kind::Csr;
  t.csr_ = &mask;
  return t;
}

MaskTraversal MaskTraversal::over(const Coo<float>& mask, CooSearch search) {
  MaskTraversal t;
  t.kind_ = Kind::Coo;
  t.coo_ = &mask;
  t.coo_search_ = search;
  return t;
}

namespace {
/// Entries of a sorted column run [first, last), cut at i under causal.
Index sorted_run_degree(const std::vector<Index>& cols, Index first, Index last, Index i,
                        bool causal) {
  if (!causal) return last - first;
  const auto begin = cols.begin() + first;
  return static_cast<Index>(std::upper_bound(begin, cols.begin() + last, i) - begin);
}
}  // namespace

Index MaskTraversal::row_degree(Index i, Index seq_len, bool causal) const {
  // Under causal the forward extent is invisible, so the local and
  // dilated-1D causal slices are their full rows at length i + 1.
  const Index len = causal ? i + 1 : seq_len;
  switch (kind_) {
    case Kind::Csr:
      return sorted_run_degree(csr_->col_idx, csr_->row_begin(i), csr_->row_end(i), i, causal);
    case Kind::Coo: {
      const CooRowBounds b = coo_row_bounds_binary(*coo_, i);
      return sorted_run_degree(coo_->col_idx, b.first, b.last, i, causal);
    }
    case Kind::Local: return local_degree(i, len, local_);
    case Kind::Dilated1d: return dilated1d_degree(i, len, dilated_);
    case Kind::Dilated2d: break;
    case Kind::Global: {
      if (!causal) return global_minus_local_degree(i, seq_len, global_);
      // The causal cut keeps the columns below the window: all of them
      // on a global row, else the tokens below it.
      const Index win_lo = i - (global_.local.window - 1);
      if (global_.global.is_global(i)) return std::max<Index>(0, win_lo);
      const std::vector<Index>& t = global_.global.tokens;
      return static_cast<Index>(std::lower_bound(t.begin(), t.end(), win_lo) - t.begin());
    }
  }
  Index n = 0;
  for_each_edge(i, seq_len, causal, [&](Index, float) { ++n; });
  return n;
}

std::vector<Index> MaskTraversal::degrees(Index seq_len, bool causal) const {
  std::vector<Index> d(static_cast<std::size_t>(seq_len));
  for (Index i = 0; i < seq_len; ++i) {
    d[static_cast<std::size_t>(i)] = row_degree(i, seq_len, causal);
  }
  return d;
}

DegreeStats MaskTraversal::stats(Index seq_len, bool causal) const {
  return degree_stats(degrees(seq_len, causal));
}

ExecPolicy MaskTraversal::resolved_policy(const ExecPolicy& p, Index seq_len,
                                          bool causal) const {
  if (p.schedule != Schedule::Auto) return p;
  const DegreeStats st = stats(seq_len, causal);
  return auto_tune(p, st.mean, st.imbalance);
}

ExecPolicy resolved_policy(const ExecPolicy& p, const std::vector<MaskTraversal>& components,
                           Index seq_len, bool causal) {
  if (p.schedule != Schedule::Auto) return p;
  std::vector<Index> sum(static_cast<std::size_t>(seq_len), 0);
  for (const MaskTraversal& tr : components) {
    const std::vector<Index> d = tr.degrees(seq_len, causal);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += d[i];
  }
  const DegreeStats st = degree_stats(sum);
  return auto_tune(p, st.mean, st.imbalance);
}

std::uint64_t MaskTraversal::fingerprint() const {
  Fnv1a f;
  f.mix(static_cast<std::uint64_t>(kind_));
  switch (kind_) {
    case Kind::Csr:
      // Delegate to the canonical CSR fingerprint so a traversal-derived
      // BatchKey agrees with one computed straight from the mask.
      f.mix(mask_fingerprint(*csr_));
      break;
    case Kind::Coo: {
      f.mix(static_cast<std::uint64_t>(coo_->rows));
      f.mix(static_cast<std::uint64_t>(coo_->cols));
      f.mix(coo_->nnz());
      for (const Index r : coo_->row_idx) f.mix(static_cast<std::uint64_t>(r));
      for (const Index c : coo_->col_idx) f.mix(static_cast<std::uint64_t>(c));
      break;
    }
    case Kind::Local:
      f.mix(static_cast<std::uint64_t>(local_.window));
      break;
    case Kind::Dilated1d:
      f.mix(static_cast<std::uint64_t>(dilated_.window));
      f.mix(static_cast<std::uint64_t>(dilated_.dilation));
      break;
    case Kind::Dilated2d:
      f.mix(static_cast<std::uint64_t>(dilated2_.seq_len));
      f.mix(static_cast<std::uint64_t>(dilated2_.block));
      f.mix(static_cast<std::uint64_t>(dilated2_.dilation));
      break;
    case Kind::Global:
      f.mix(static_cast<std::uint64_t>(global_.local.window));
      f.mix(static_cast<std::uint64_t>(global_.global.tokens.size()));
      for (const Index t : global_.global.tokens) f.mix(static_cast<std::uint64_t>(t));
      break;
  }
  return f.h;
}

std::vector<MaskTraversal> traversals_of(const ComposedMask& mask, bool owning) {
  // An explicit component is viewed in place for a one-shot kernel call
  // and copied into shared ownership when the traversal must outlive the
  // ComposedMask (a session holds its mask for its whole lifetime).
  // ComposedMask components are public fields, so a caller-assembled
  // composition is validated here with the same typed errors the
  // per-component kernels used to raise — a bad token index or
  // mis-shaped component CSR must throw, not read out of bounds.
  const auto explicit_csr = [owning, &mask](const Csr<float>& c) {
    GPA_CHECK(c.rows == mask.seq_len && c.cols == mask.seq_len,
              "composed component CSR shape mismatch");
    return owning ? MaskTraversal::csr(std::make_shared<const Csr<float>>(c))
                  : MaskTraversal::over(c);
  };
  std::vector<MaskTraversal> ts;
  ts.reserve(mask.components.size());
  for (const MaskComponent& c : mask.components) {
    switch (c.kind) {
      case MaskComponent::Kind::Local:
        ts.push_back(MaskTraversal::local(c.local));
        break;
      case MaskComponent::Kind::Dilated1D:
        ts.push_back(MaskTraversal::dilated1d(c.dilated));
        break;
      case MaskComponent::Kind::GlobalMinusLocal:
        // The dilated-Longformer preset subtracts a non-window component
        // from the global mask, which the implicit family cannot
        // express; those components carry their exact edges in c.csr.
        if (c.global.local.window > 1) {
          for (const Index t : c.global.global.tokens) {
            GPA_CHECK(t >= 0 && t < mask.seq_len, "global token index out of range");
          }
          ts.push_back(MaskTraversal::global(c.global));
        } else {
          ts.push_back(explicit_csr(c.csr));
        }
        break;
      case MaskComponent::Kind::RandomCsr:
        ts.push_back(explicit_csr(c.csr));
        break;
    }
  }
  return ts;
}

}  // namespace gpa
