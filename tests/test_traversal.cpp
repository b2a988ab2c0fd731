// MaskTraversal property suite — pins the "single source of truth"
// claim forever: for every mask family × causal flag × a grid of
// (rows, window, dilation, globals), the columns the full kernel visits
// (MaskTraversal::for_each_edge, which IS the kernels' row enumerator
// after the unification) are element-identical to (a) the pattern's
// mathematical definition (the patterns.hpp predicate, ascending) and
// (b) the decode row slices MaskSpec serves to incremental sessions
// (causal_row_slice). If a future kernel or MaskSpec change drifts the
// iteration order, this suite fails before the bit-identity suites do —
// and names the row.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/traversal.hpp"
#include "kvcache/mask_spec.hpp"
#include "sparse/build.hpp"
#include "sparse/presets.hpp"

namespace gpa {
namespace {

std::vector<Index> collect_edges(const MaskTraversal& t, Index i, Index seq_len, bool causal) {
  std::vector<Index> cols;
  t.for_each_edge(i, seq_len, causal, [&](Index j, float) { cols.push_back(j); });
  return cols;
}

std::vector<Index> collect_slice(const MaskTraversal& t, Index i) {
  std::vector<Index> cols;
  t.causal_row_slice(i, [&](Index j, float) { cols.push_back(j); });
  return cols;
}

/// Ascending columns of row i under the pattern's mathematical
/// definition — the oracle the enumeration order is checked against.
std::vector<Index> predicate_row(Index i, Index seq_len, bool causal,
                                 const std::function<bool(Index, Index)>& contains) {
  std::vector<Index> cols;
  for (Index j = 0; j < seq_len; ++j) {
    if (causal && j > i) break;
    if (contains(i, j)) cols.push_back(j);
  }
  return cols;
}

/// The full family × causal × slice agreement check for one traversal.
void check_traversal(const std::string& name, const MaskTraversal& t, Index seq_len,
                     const std::function<bool(Index, Index)>& contains) {
  for (Index i = 0; i < seq_len; ++i) {
    for (const bool causal : {false, true}) {
      SCOPED_TRACE(name + " row " + std::to_string(i) + (causal ? " causal" : " full"));
      // (a) kernel enumeration == mathematical definition, in order.
      EXPECT_EQ(collect_edges(t, i, seq_len, causal),
                predicate_row(i, seq_len, causal, contains));
    }
    // (b) the decode row slice a session folds == the causal kernel row.
    EXPECT_EQ(collect_slice(t, i), collect_edges(t, i, seq_len, /*causal=*/true))
        << name << " decode slice diverges from the kernel at row " << i;
  }
}

TEST(TraversalProperty, LocalMatchesPredicateAndDecodeSlices) {
  for (const Index L : {1, 7, 16, 33}) {
    for (const Index w : {1, 2, 5, 8}) {
      const LocalParams p{w};
      check_traversal("local(L=" + std::to_string(L) + ",w=" + std::to_string(w) + ")",
                      MaskTraversal::local(p), L,
                      [p](Index i, Index j) { return p.contains(i, j); });
    }
  }
}

TEST(TraversalProperty, Dilated1dMatchesPredicateAndDecodeSlices) {
  for (const Index L : {1, 9, 24, 40}) {
    for (const auto& [w, r] : std::vector<std::pair<Index, Index>>{
             {1, 0}, {4, 0}, {5, 1}, {9, 2}, {16, 3}}) {
      const Dilated1DParams p{w, r};
      check_traversal("dilated1d(L=" + std::to_string(L) + ",w=" + std::to_string(w) +
                          ",r=" + std::to_string(r) + ")",
                      MaskTraversal::dilated1d(p), L,
                      [p](Index i, Index j) { return p.contains(i, j); });
    }
  }
}

TEST(TraversalProperty, Dilated2dMatchesPredicateAndDecodeSlices) {
  for (const auto& [L, b] : std::vector<std::pair<Index, Index>>{
           {16, 1}, {16, 4}, {16, 16}, {12, 4}, {24, 6}}) {
    for (const Index r : {0, 1, 3}) {
      const Dilated2DParams p{L, b, r};
      check_traversal("dilated2d(L=" + std::to_string(L) + ",b=" + std::to_string(b) +
                          ",r=" + std::to_string(r) + ")",
                      MaskTraversal::dilated2d(p), L,
                      [p](Index i, Index j) { return p.contains(i, j); });
    }
  }
}

TEST(TraversalProperty, GlobalMinusLocalMatchesPredicateAndDecodeSlices) {
  const std::vector<std::vector<Index>> token_sets = {{}, {0}, {0, 3, 9}, {5}, {0, 15}};
  for (const Index L : {1, 16, 29}) {
    for (const Index w : {1, 2, 4}) {
      for (const auto& tokens : token_sets) {
        GlobalMinusLocalParams p;
        for (const Index t : tokens) {
          if (t < L) p.global.tokens.push_back(t);  // keep tokens in range
        }
        p.local.window = w;
        check_traversal("global(L=" + std::to_string(L) + ",w=" + std::to_string(w) +
                            ",g=" + std::to_string(p.global.tokens.size()) + ")",
                        MaskTraversal::global(p), L,
                        [&p](Index i, Index j) { return p.contains(i, j); });
      }
    }
  }
}

TEST(TraversalProperty, ExplicitCsrAndCooMatchStorageAndDecodeSlices) {
  for (const Index L : {1, 8, 21, 48}) {
    const Csr<float> csr = build_csr_random(L, RandomParams{0.3, 17 + static_cast<std::uint64_t>(L)});
    const Coo<float> coo = csr_to_coo(csr);
    const auto contains = [&csr](Index i, Index j) {
      for (Index k = csr.row_begin(i); k < csr.row_end(i); ++k) {
        if (csr.col_idx[static_cast<std::size_t>(k)] == j) return true;
      }
      return false;
    };
    check_traversal("csr(L=" + std::to_string(L) + ")", MaskTraversal::over(csr), L, contains);
    for (const CooSearch search : {CooSearch::Linear, CooSearch::Binary}) {
      check_traversal("coo(L=" + std::to_string(L) + ")", MaskTraversal::over(coo, search), L,
                      contains);
    }
    // Explicit formats must also hand the stored value through as gate.
    const MaskTraversal t = MaskTraversal::over(csr);
    for (Index i = 0; i < L; ++i) {
      Index k = csr.row_begin(i);
      t.for_each_edge(i, L, /*causal=*/false, [&](Index j, float gate) {
        ASSERT_EQ(j, csr.col_idx[static_cast<std::size_t>(k)]);
        ASSERT_EQ(gate, csr.values[static_cast<std::size_t>(k)]);
        ++k;
      });
      ASSERT_EQ(k, csr.row_end(i));
    }
  }
}

TEST(TraversalProperty, MaskSpecCompositionIsTheConcatenationOfComponentSlices) {
  const Index L = 20;
  const LocalParams lp{3};
  GlobalMinusLocalParams gp;
  gp.global.tokens = {0, 4, 11};
  gp.local.window = 3;
  const auto spec =
      kvcache::MaskSpec::compose({MaskTraversal::local(lp), MaskTraversal::global(gp)});
  EXPECT_EQ(spec.max_len(), -1);  // two implicit components: unbounded
  for (Index i = 0; i < L; ++i) {
    std::vector<Index> got;
    spec.for_each_causal(i, [&](Index j, float) { got.push_back(j); });
    std::vector<Index> want = collect_slice(MaskTraversal::local(lp), i);
    const std::vector<Index> g = collect_slice(MaskTraversal::global(gp), i);
    want.insert(want.end(), g.begin(), g.end());
    EXPECT_EQ(got, want) << "row " << i;
  }
}

TEST(TraversalProperty, ComposedPresetRoutingMatchesTheComposedKernel) {
  // traversals_of must reproduce composed_attention's component→kernel
  // routing: longformer's global component (window > 1) is implicit,
  // bigbird's random component is explicit CSR.
  const ComposedMask lf = make_longformer(16, /*reach=*/2, /*num_global=*/2);
  const auto lt = traversals_of(lf);
  ASSERT_EQ(lt.size(), 2u);
  EXPECT_EQ(lt[0].kind(), MaskTraversal::Kind::Local);
  EXPECT_EQ(lt[1].kind(), MaskTraversal::Kind::Global);

  const ComposedMask bb = make_bigbird(16, 2, 2, 0.2);
  const auto bt = traversals_of(bb, /*owning=*/true);
  ASSERT_EQ(bt.size(), 3u);
  EXPECT_EQ(bt[2].kind(), MaskTraversal::Kind::Csr);
  EXPECT_EQ(bt[2].max_len(), 16);

  // Component traversals visit exactly the component CSRs' edges.
  for (std::size_t c = 0; c < bt.size(); ++c) {
    const Csr<float>& want = bb.components[c].csr;
    for (Index i = 0; i < 16; ++i) {
      std::vector<Index> cols;
      bt[c].for_each_edge(i, 16, /*causal=*/false, [&](Index j, float) { cols.push_back(j); });
      std::vector<Index> expect;
      for (Index k = want.row_begin(i); k < want.row_end(i); ++k) {
        expect.push_back(want.col_idx[static_cast<std::size_t>(k)]);
      }
      ASSERT_EQ(cols, expect) << bb.components[c].name << " row " << i;
    }
  }
}

TEST(TraversalProperty, MalformedComposedComponentsThrowTyped) {
  // ComposedMask components are public fields: a caller-assembled
  // composition with an out-of-range global token or a mis-shaped
  // component CSR must raise the same typed errors the per-component
  // kernels used to, not enumerate out-of-bounds columns.
  ComposedMask bad = make_longformer(16, 2, 2);
  bad.components[1].global.global.tokens.push_back(99);  // >= seq_len
  EXPECT_THROW(traversals_of(bad), InvalidArgument);

  ComposedMask rect = make_bigbird(16, 2, 2, 0.2);
  rect.components[2].csr.rows = 8;  // random-CSR component no longer 16×16
  EXPECT_THROW(traversals_of(rect, /*owning=*/true), InvalidArgument);
}

/// Every row's closed-form degree equals the count of its enumeration,
/// full and causal; and the skew profile sums to the edge count.
void check_degrees(const std::string& name, const MaskTraversal& t, Index L) {
  for (const bool causal : {false, true}) {
    SCOPED_TRACE(name + " L=" + std::to_string(L) + (causal ? " causal" : " full"));
    const std::vector<Index> deg = t.degrees(L, causal);
    ASSERT_EQ(deg.size(), static_cast<std::size_t>(L));
    Size total = 0;
    for (Index i = 0; i < L; ++i) {
      ASSERT_EQ(deg[static_cast<std::size_t>(i)],
                static_cast<Index>(collect_edges(t, i, L, causal).size()))
          << "row " << i;
      total += static_cast<Size>(deg[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(t.stats(L, causal).total, total);
  }
}

TEST(TraversalProperty, DegreesCountTheEnumeration) {
  for (const Index L : {1, 2, 7, 64, 257}) {
    for (const Index w : {1, 2, 3, 8, 300}) {
      const LocalParams p{w};
      check_degrees("local w=" + std::to_string(w), MaskTraversal::local(p), L);
      // graph/degree.hpp's per-family degrees are the same closed forms.
      EXPECT_EQ(local_degrees(L, p), MaskTraversal::local(p).degrees(L));
    }
    for (const auto& [w, r] : std::vector<std::pair<Index, Index>>{
             {1, 0}, {2, 0}, {5, 1}, {7, 1}, {7, 2}, {16, 3}, {300, 4}}) {
      const Dilated1DParams p{w, r};
      check_degrees("dilated1d w=" + std::to_string(w) + " r=" + std::to_string(r),
                    MaskTraversal::dilated1d(p), L);
      EXPECT_EQ(dilated1d_degrees(L, p), MaskTraversal::dilated1d(p).degrees(L));
    }
    for (const Index block : {Index{1}, Index{8}, L}) {
      if (L % block != 0) continue;
      for (const Index r : {0, 1, 3}) {
        const Dilated2DParams p{L, block, r};
        check_degrees("dilated2d b=" + std::to_string(block) + " r=" + std::to_string(r),
                      MaskTraversal::dilated2d(p), L);
        EXPECT_EQ(dilated2d_degrees(p), MaskTraversal::dilated2d(p).degrees(L));
      }
    }
    for (const std::vector<Index>& tokens : std::vector<std::vector<Index>>{
             {}, {0}, {0, 3, 5}, {1, 2, 40, 63, 64, 200, 256}}) {
      GlobalMinusLocalParams p;
      for (const Index tok : tokens) {
        if (tok < L) p.global.tokens.push_back(tok);
      }
      for (const Index w : {1, 2, 5, 300}) {
        p.local.window = w;
        check_degrees("global tokens=" + std::to_string(p.global.tokens.size()) +
                          " w=" + std::to_string(w),
                      MaskTraversal::global(p), L);
        EXPECT_EQ(global_minus_local_degrees(L, p), MaskTraversal::global(p).degrees(L));
      }
    }
    for (const double density : {0.0, 0.1, 0.6}) {
      const Csr<float> csr =
          build_csr_random(L, RandomParams{density, 31 + static_cast<std::uint64_t>(L)});
      const Coo<float> coo = csr_to_coo(csr);
      check_degrees("csr", MaskTraversal::over(csr), L);
      EXPECT_EQ(csr_degrees(csr), MaskTraversal::over(csr).degrees(L));
      for (const CooSearch search : {CooSearch::Linear, CooSearch::Binary}) {
        check_degrees("coo", MaskTraversal::over(coo, search), L);
      }
    }
  }
  // The dilated-1D skew profile sums to the materialised mask's NNZ.
  EXPECT_EQ(MaskTraversal::dilated1d(Dilated1DParams{7, 1}).stats(24).total,
            build_csr_dilated1d(24, Dilated1DParams{7, 1}).nnz());
}

TEST(TraversalProperty, SessionSpecsRejectViewsAndNonSquareMasks) {
  // A session outlives caller-held mask objects: non-owning views are
  // rejected at spec construction, not discovered as a dangling read.
  const Csr<float> mask = build_csr_local(8, LocalParams{2});
  EXPECT_THROW(kvcache::MaskSpec::make_traversal(MaskTraversal::over(mask)), InvalidArgument);
  // Non-square explicit storage cannot bound a session length.
  auto rect = std::make_shared<Csr<float>>(mask);
  rect->cols = 12;
  EXPECT_THROW(kvcache::MaskSpec::make_csr(rect), InvalidArgument);
  // The owning square form is accepted.
  const auto spec = kvcache::MaskSpec::make_csr(std::make_shared<const Csr<float>>(mask));
  EXPECT_EQ(spec.max_len(), 8);
}

TEST(TraversalProperty, FingerprintsSeparateFamiliesAndParameters) {
  const Index L = 16;
  // Same parameters → same fingerprint; any structural change → different.
  EXPECT_EQ(MaskTraversal::local(LocalParams{4}).fingerprint(),
            MaskTraversal::local(LocalParams{4}).fingerprint());
  EXPECT_NE(MaskTraversal::local(LocalParams{4}).fingerprint(),
            MaskTraversal::local(LocalParams{5}).fingerprint());
  EXPECT_NE(MaskTraversal::local(LocalParams{4}).fingerprint(),
            MaskTraversal::dilated1d(Dilated1DParams{4, 0}).fingerprint());
  // The materialised CSR of a local window is a different TRAVERSAL
  // (explicit storage, not the implicit enumerator), so the kind tag
  // must keep them apart even though they visit the same edges.
  const Csr<float> local_csr = build_csr_local(L, LocalParams{4});
  EXPECT_NE(MaskTraversal::over(local_csr).fingerprint(),
            MaskTraversal::local(LocalParams{4}).fingerprint());
  // Two views of structurally-equal CSRs agree (values are excluded).
  Csr<float> reweighted = local_csr;
  for (auto& v : reweighted.values) v *= 2.0f;
  EXPECT_EQ(MaskTraversal::over(local_csr).fingerprint(),
            MaskTraversal::over(reweighted).fingerprint());
  // Composition fingerprint is order-sensitive (folds are ordered).
  const auto ab = kvcache::MaskSpec::compose(
      {MaskTraversal::local(LocalParams{4}), MaskTraversal::local(LocalParams{5})});
  const auto ba = kvcache::MaskSpec::compose(
      {MaskTraversal::local(LocalParams{5}), MaskTraversal::local(LocalParams{4})});
  EXPECT_NE(ab.fingerprint(), ba.fingerprint());
}

}  // namespace
}  // namespace gpa
