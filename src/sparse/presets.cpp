#include "sparse/presets.hpp"

#include <numeric>

#include "common/error.hpp"
#include "sparse/build.hpp"
#include "sparse/compose.hpp"
#include "sparse/nnz.hpp"

namespace gpa {

double ComposedMask::sparsity() const {
  return sparsity_factor(fused.nnz(), seq_len);
}

namespace {

std::vector<Index> prefix_tokens(Index n) {
  std::vector<Index> t(static_cast<std::size_t>(n));
  std::iota(t.begin(), t.end(), Index{0});
  return t;
}

MaskComponent local_component(Index seq_len, Index reach) {
  MaskComponent c;
  c.kind = MaskComponent::Kind::Local;
  c.name = "local(w=" + std::to_string(reach + 1) + ")";
  c.local = make_local(reach + 1);  // reach tokens each direction + self
  c.csr = build_csr_local(seq_len, c.local);
  return c;
}

MaskComponent dilated_component(Index seq_len, Index reach, Index dilation) {
  MaskComponent c;
  c.kind = MaskComponent::Kind::Dilated1D;
  // Dilation factor r widens the effective reach by (r+1)x for the same
  // number of attended tokens: window = reach*(r+1)+1 keeps `reach`
  // attended neighbors per side, spread out (Fig. 2 centre).
  const Index window = reach * (dilation + 1) + 1;
  c.name = "dilated1d(w=" + std::to_string(window) + ",r=" + std::to_string(dilation) + ")";
  c.dilated = make_dilated1d(window, dilation);
  c.csr = build_csr_dilated1d(seq_len, c.dilated);
  return c;
}

MaskComponent global_component(Index seq_len, Index num_global, const LocalParams& minus_local) {
  MaskComponent c;
  c.kind = MaskComponent::Kind::GlobalMinusLocal;
  c.name = "global(g=" + std::to_string(num_global) + ")-local";
  c.global.global = make_global(prefix_tokens(num_global), seq_len);
  c.global.local = minus_local;
  c.csr = build_csr_global_minus_local(seq_len, c.global);
  return c;
}

}  // namespace

ComposedMask make_longformer(Index seq_len, Index reach, Index num_global) {
  GPA_CHECK(seq_len > 0 && reach >= 0 && num_global >= 0, "bad Longformer parameters");
  ComposedMask m;
  m.name = "longformer";
  m.seq_len = seq_len;
  m.components.push_back(local_component(seq_len, reach));
  m.components.push_back(global_component(seq_len, num_global, m.components[0].local));
  m.fused = mask_union(m.components[0].csr, m.components[1].csr);
  return m;
}

ComposedMask make_longformer_dilated(Index seq_len, Index reach, Index dilation,
                                     Index num_global) {
  GPA_CHECK(seq_len > 0 && reach >= 0 && dilation >= 0 && num_global >= 0,
            "bad dilated-Longformer parameters");
  ComposedMask m;
  m.name = "longformer-dilated";
  m.seq_len = seq_len;
  m.components.push_back(dilated_component(seq_len, reach, dilation));
  // Subtract the dilated component from the global one to keep the
  // components disjoint: build global-minus-nothing first, then subtract.
  MaskComponent g;
  g.kind = MaskComponent::Kind::GlobalMinusLocal;
  g.name = "global(g=" + std::to_string(num_global) + ")-dilated";
  g.global.global = make_global(prefix_tokens(num_global), seq_len);
  g.global.local = LocalParams{1};  // kernel-side subtraction handles only plain windows
  Csr<float> g_full = build_csr_global(seq_len, g.global.global);
  g.csr = mask_subtract(g_full, m.components[0].csr);
  m.components.push_back(std::move(g));
  m.fused = mask_union(m.components[0].csr, m.components[1].csr);
  return m;
}

ComposedMask make_bigbird(Index seq_len, Index reach, Index num_global, double random_sf,
                          std::uint64_t seed) {
  GPA_CHECK(seq_len > 0 && reach >= 0 && num_global >= 0, "bad BigBird parameters");
  ComposedMask m;
  m.name = "bigbird";
  m.seq_len = seq_len;
  m.components.push_back(local_component(seq_len, reach));
  m.components.push_back(global_component(seq_len, num_global, m.components[0].local));

  // Random component, made disjoint from local+global so the sequential
  // kernel chain (local ; global ; CSR) never double-counts an edge. The
  // fused mask is that local+global union plus the random component.
  MaskComponent r;
  r.kind = MaskComponent::Kind::RandomCsr;
  r.name = "random(sf=" + std::to_string(random_sf) + ")";
  const Csr<float> covered = mask_union(m.components[0].csr, m.components[1].csr);
  r.csr = mask_subtract(build_csr_random(seq_len, RandomParams{random_sf, seed}), covered);
  m.fused = mask_union(covered, r.csr);
  m.components.push_back(std::move(r));
  return m;
}

}  // namespace gpa
