// Tests for the Longformer/BigBird composed-mask presets (Fig. 2 /
// Fig. 6 configurations): component disjointness, union coverage, the
// documented parameter semantics, edge-for-edge equality with the
// predicate oracle, and a length only O(NNZ) builders can reach.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "sparse/build.hpp"
#include "sparse/compose.hpp"
#include "sparse/nnz.hpp"
#include "sparse/presets.hpp"

namespace gpa {
namespace {

bool contains_entry(const Csr<float>& m, Index i, Index j) {
  for (Index k = m.row_begin(i); k < m.row_end(i); ++k) {
    if (m.col_idx[static_cast<std::size_t>(k)] == j) return true;
  }
  return false;
}

TEST(LongformerPresetTest, ComponentsAreDisjoint) {
  const auto m = make_longformer(64, 4, 2);
  ASSERT_EQ(m.components.size(), 2u);
  EXPECT_TRUE(masks_disjoint(m.components[0].csr, m.components[1].csr));
}

TEST(LongformerPresetTest, FusedEqualsComponentUnion) {
  const auto m = make_longformer(64, 4, 2);
  const auto u = mask_union(m.components[0].csr, m.components[1].csr);
  EXPECT_EQ(m.fused.col_idx, u.col_idx);
  EXPECT_EQ(m.fused.row_offsets, u.row_offsets);
}

TEST(LongformerPresetTest, CoversExpectedEdges) {
  const auto m = make_longformer(32, 2, 1);
  // Window reach 2 around the diagonal.
  EXPECT_TRUE(contains_entry(m.fused, 10, 8));
  EXPECT_TRUE(contains_entry(m.fused, 10, 12));
  EXPECT_FALSE(contains_entry(m.fused, 10, 13));
  // Token 0 is global: full row and column.
  EXPECT_TRUE(contains_entry(m.fused, 0, 31));
  EXPECT_TRUE(contains_entry(m.fused, 31, 0));
}

TEST(LongformerPresetTest, SparsityDecreasesWithLength) {
  const auto small = make_longformer(64, 4, 2);
  const auto large = make_longformer(256, 4, 2);
  EXPECT_GT(small.sparsity(), large.sparsity());
}

TEST(LongformerDilatedPresetTest, ComponentsAreDisjointAndCover) {
  const auto m = make_longformer_dilated(64, 4, 2, 2);
  ASSERT_EQ(m.components.size(), 2u);
  EXPECT_TRUE(masks_disjoint(m.components[0].csr, m.components[1].csr));
  const auto u = mask_union(m.components[0].csr, m.components[1].csr);
  EXPECT_EQ(m.fused.col_idx, u.col_idx);
}

TEST(LongformerDilatedPresetTest, DilationWidensReach) {
  // Fig. 6 middle: "dilation factor of two giving an effective local
  // size of 100" for reach 50 — reach*(r+1) here.
  const auto m = make_longformer_dilated(64, 4, 2, 0);
  EXPECT_TRUE(contains_entry(m.fused, 30, 30 + 12));   // 4 steps of 3
  EXPECT_FALSE(contains_entry(m.fused, 30, 30 + 13));  // beyond window
  EXPECT_FALSE(contains_entry(m.fused, 30, 30 + 11));  // off-stride gap
}

TEST(BigBirdPresetTest, ThreeDisjointComponents) {
  const auto m = make_bigbird(96, 3, 2, 0.02);
  ASSERT_EQ(m.components.size(), 3u);
  EXPECT_TRUE(masks_disjoint(m.components[0].csr, m.components[1].csr));
  EXPECT_TRUE(masks_disjoint(m.components[0].csr, m.components[2].csr));
  EXPECT_TRUE(masks_disjoint(m.components[1].csr, m.components[2].csr));
}

TEST(BigBirdPresetTest, FusedEqualsUnionOfAll) {
  const auto m = make_bigbird(96, 3, 2, 0.02);
  const auto u = mask_union_all({m.components[0].csr, m.components[1].csr, m.components[2].csr});
  EXPECT_EQ(m.fused.col_idx, u.col_idx);
}

TEST(BigBirdPresetTest, RandomComponentDeterministicPerSeed) {
  const auto a = make_bigbird(96, 3, 2, 0.02, 11);
  const auto b = make_bigbird(96, 3, 2, 0.02, 11);
  const auto c = make_bigbird(96, 3, 2, 0.02, 12);
  EXPECT_EQ(a.components[2].csr.col_idx, b.components[2].csr.col_idx);
  EXPECT_NE(a.components[2].csr.col_idx, c.components[2].csr.col_idx);
}

TEST(BigBirdPresetTest, NnzAccountingIsConsistent) {
  const auto m = make_bigbird(128, 4, 3, 0.01);
  Size component_sum = 0;
  for (const auto& c : m.components) component_sum += c.csr.nnz();
  EXPECT_EQ(m.fused.nnz(), component_sum);  // disjoint -> sizes add
}

void expect_same_csr(const Csr<float>& got, const Csr<float>& want, const std::string& what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.cols, want.cols) << what;
  EXPECT_EQ(got.row_offsets, want.row_offsets) << what;
  EXPECT_EQ(got.col_idx, want.col_idx) << what;
  EXPECT_EQ(got.values, want.values) << what;
}

TEST(PresetOracleTest, EveryComponentAndFusedMaskEqualsThePredicateOracle) {
  constexpr double kRandomSf[] = {0.0, 0.05, 0.3, 1.0};
  Rng rng(2025);
  for (const Index L : {1, 2, 7, 64, 257}) {
    for (const Index reach : {Index{0}, Index{1}, Index{3}, L + rng.next_index(0, 4)}) {
      for (const Index g : {Index{0}, Index{1}, Index{5}, L}) {
        if (g > L) continue;  // global tokens must lie inside the sequence
        const Index dilation = rng.next_index(1, 4);
        const double sf = kRandomSf[rng.next_below(4)];
        const std::uint64_t seed = rng.next_u64();
        SCOPED_TRACE("L=" + std::to_string(L) + " reach=" + std::to_string(reach) +
                     " g=" + std::to_string(g) + " dilation=" + std::to_string(dilation) +
                     " sf=" + std::to_string(sf));
        const auto oracle = [&](auto pred) { return build_csr_from_predicate(L, pred); };
        const auto global = [&](Index i, Index j) { return i < g || j < g; };
        const LocalParams local{reach + 1};
        const auto in_local = [&](Index i, Index j) { return local.contains(i, j); };

        const auto lf = make_longformer(L, reach, g);
        ASSERT_EQ(lf.components.size(), 2u);
        expect_same_csr(lf.components[0].csr, oracle(in_local), "longformer local");
        expect_same_csr(lf.components[1].csr,
                        oracle([&](Index i, Index j) { return global(i, j) && !in_local(i, j); }),
                        "longformer global-minus-local");
        expect_same_csr(lf.fused,
                        oracle([&](Index i, Index j) { return global(i, j) || in_local(i, j); }),
                        "longformer fused");

        const Dilated1DParams dil{reach * (dilation + 1) + 1, dilation};
        const auto in_dil = [&](Index i, Index j) { return dil.contains(i, j); };
        const auto ld = make_longformer_dilated(L, reach, dilation, g);
        ASSERT_EQ(ld.components.size(), 2u);
        expect_same_csr(ld.components[0].csr, oracle(in_dil), "dilated local");
        expect_same_csr(ld.components[1].csr,
                        oracle([&](Index i, Index j) { return global(i, j) && !in_dil(i, j); }),
                        "dilated global-minus-local");
        expect_same_csr(ld.fused,
                        oracle([&](Index i, Index j) { return global(i, j) || in_dil(i, j); }),
                        "dilated fused");

        // The random component's membership is its sample, so the oracle
        // reads the sampler's raw mask cell by cell.
        const auto raw = csr_to_dense(build_csr_random(L, RandomParams{sf, seed}));
        const auto in_raw = [&](Index i, Index j) { return raw(i, j) != 0; };
        const auto bb = make_bigbird(L, reach, g, sf, seed);
        ASSERT_EQ(bb.components.size(), 3u);
        expect_same_csr(bb.components[0].csr, oracle(in_local), "bigbird local");
        expect_same_csr(bb.components[1].csr,
                        oracle([&](Index i, Index j) { return global(i, j) && !in_local(i, j); }),
                        "bigbird global-minus-local");
        expect_same_csr(bb.components[2].csr, oracle([&](Index i, Index j) {
                          return in_raw(i, j) && !global(i, j) && !in_local(i, j);
                        }),
                        "bigbird random");
        expect_same_csr(bb.fused, oracle([&](Index i, Index j) {
                          return in_raw(i, j) || global(i, j) || in_local(i, j);
                        }),
                        "bigbird fused");
      }
    }
  }
}

TEST(PresetScaleTest, AllThreePresetsBuildAtHalfAMillionTokens) {
  // 2^19 tokens: the O(L²) predicate builder would make ~2.7e11 calls
  // here; the O(NNZ) builders touch ~2.6e6 edges per preset.
  const Index L = Index{1} << 19;
  const LocalParams local{2};
  const GlobalMinusLocalParams gml{make_global({0}, L), local};
  const Size local_edges = local_nnz(L, local);
  const Size global_edges = global_minus_local_nnz(L, gml);

  const auto lf = make_longformer(L, 1, 1);
  EXPECT_EQ(lf.components[0].csr.nnz(), local_edges);
  EXPECT_EQ(lf.components[1].csr.nnz(), global_edges);
  EXPECT_EQ(lf.fused.nnz(), local_edges + global_edges);
  EXPECT_TRUE(lf.fused.is_canonical());

  const auto bb = make_bigbird(L, 1, 1, 2.0 / static_cast<double>(L), 7);
  EXPECT_EQ(bb.components[0].csr.nnz(), local_edges);
  EXPECT_EQ(bb.components[1].csr.nnz(), global_edges);
  const Size random_edges = bb.components[2].csr.nnz();
  EXPECT_GT(random_edges, static_cast<Size>(L));      // ~2 per row, less the
  EXPECT_LT(random_edges, 3 * static_cast<Size>(L));  // few already covered
  EXPECT_EQ(bb.fused.nnz(), local_edges + global_edges + random_edges);
  EXPECT_TRUE(bb.fused.is_canonical());

  // Dilation 1 keeps distances 0 and 2. Token 0's row and column each
  // hold two of those edges, sharing (0, 0), so the global component
  // loses three of its 2L - 1 edges.
  const auto ld = make_longformer_dilated(L, 1, 1, 1);
  EXPECT_EQ(ld.components[0].csr.nnz(), dilated1d_nnz(L, Dilated1DParams{3, 1}));
  EXPECT_EQ(ld.components[1].csr.nnz(), global_nnz(L, gml.global) - 3);
  EXPECT_EQ(ld.fused.nnz(), ld.components[0].csr.nnz() + ld.components[1].csr.nnz());
  EXPECT_TRUE(ld.fused.is_canonical());
}

TEST(PresetValidationTest, BadParametersThrow) {
  EXPECT_THROW(make_longformer(0, 4, 2), InvalidArgument);
  EXPECT_THROW(make_longformer(64, -1, 2), InvalidArgument);
  EXPECT_THROW(make_bigbird(64, 2, 1, -0.5), InvalidArgument);
}

}  // namespace
}  // namespace gpa
