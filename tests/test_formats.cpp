// Tests for the explicit sparse formats: canonical invariants,
// conversions, builders, and the random-mask sampler.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/batched.hpp"
#include "sparse/build.hpp"
#include "sparse/nnz.hpp"

namespace gpa {
namespace {

Matrix<std::uint8_t> random_dense_mask(Index L, double density, std::uint64_t seed) {
  Matrix<std::uint8_t> m(L, L);
  Rng rng(seed);
  for (Index i = 0; i < L; ++i) {
    for (Index j = 0; j < L; ++j) m(i, j) = rng.next_double() < density ? 1 : 0;
  }
  return m;
}

TEST(CsrTest, BuiltMasksAreCanonical) {
  const auto csr = build_csr_local(32, LocalParams{4});
  EXPECT_TRUE(csr.is_canonical());
  EXPECT_NO_THROW(validate(csr));
}

TEST(CsrTest, CanonicalRejectsBadOffsets) {
  Csr<float> csr = build_csr_local(8, LocalParams{2});
  csr.row_offsets[3] = csr.row_offsets[4] + 1;  // non-monotone
  EXPECT_FALSE(csr.is_canonical());
  EXPECT_THROW(validate(csr), InvalidArgument);
}

TEST(CsrTest, CanonicalRejectsUnsortedColumns) {
  Csr<float> csr = build_csr_local(8, LocalParams{3});
  std::swap(csr.col_idx[1], csr.col_idx[2]);
  EXPECT_FALSE(csr.is_canonical());
}

TEST(CsrTest, CanonicalRejectsOutOfRangeColumn) {
  Csr<float> csr = build_csr_local(8, LocalParams{2});
  csr.col_idx.back() = 8;
  EXPECT_FALSE(csr.is_canonical());
}

TEST(CsrTest, StorageBytesFollowPaperAccounting) {
  const auto csr = build_csr_local(100, LocalParams{3});
  const Size expected = 101 * 4 + csr.nnz() * (4 + 4);
  EXPECT_EQ(csr.storage_bytes(), expected);
}

TEST(CooTest, ConversionRoundTripsExactly) {
  const auto csr = build_csr_dilated1d(64, Dilated1DParams{7, 1});
  const auto coo = csr_to_coo(csr);
  EXPECT_TRUE(coo.is_canonical());
  const auto back = coo_to_csr(coo);
  EXPECT_EQ(back.row_offsets, csr.row_offsets);
  EXPECT_EQ(back.col_idx, csr.col_idx);
}

TEST(CooTest, CanonicalRejectsUnsortedEntries) {
  Coo<float> coo = csr_to_coo(build_csr_local(8, LocalParams{2}));
  std::swap(coo.row_idx[0], coo.row_idx[5]);
  EXPECT_FALSE(coo.is_canonical());
}

TEST(CooTest, StorageBytesFollowPaperAccounting) {
  const auto coo = csr_to_coo(build_csr_local(50, LocalParams{2}));
  EXPECT_EQ(coo.storage_bytes(), coo.nnz() * (4 + 4 + 4));
}

TEST(DenseRoundTripTest, DenseToCsrToDenseIsIdentity) {
  const auto dense = random_dense_mask(48, 0.2, 99);
  const auto csr = dense_to_csr(dense);
  const auto back = csr_to_dense(csr);
  for (Index i = 0; i < 48; ++i) {
    for (Index j = 0; j < 48; ++j) EXPECT_EQ(back(i, j), dense(i, j));
  }
}

TEST(PredicateBuilderTest, MatchesPatternBuilders) {
  const Index L = 40;
  const LocalParams lp{5};
  const auto by_pred =
      build_csr_from_predicate(L, [&](Index i, Index j) { return lp.contains(i, j); });
  const auto by_pattern = build_csr_local(L, lp);
  EXPECT_EQ(by_pred.row_offsets, by_pattern.row_offsets);
  EXPECT_EQ(by_pred.col_idx, by_pattern.col_idx);

  const Dilated1DParams dp{9, 2};
  const auto dpred =
      build_csr_from_predicate(L, [&](Index i, Index j) { return dp.contains(i, j); });
  const auto dpat = build_csr_dilated1d(L, dp);
  EXPECT_EQ(dpred.col_idx, dpat.col_idx);

  const auto d2 = make_dilated2d(L, 8, 1);
  const auto d2pred =
      build_csr_from_predicate(L, [&](Index i, Index j) { return d2.contains(i, j); });
  const auto d2pat = build_csr_dilated2d(d2);
  EXPECT_EQ(d2pred.col_idx, d2pat.col_idx);

  const GlobalParams gp = make_global({0, 7}, L);
  const auto gpred =
      build_csr_from_predicate(L, [&](Index i, Index j) { return gp.contains(i, j); });
  const auto gpat = build_csr_global(L, gp);
  EXPECT_EQ(gpred.col_idx, gpat.col_idx);

  const GlobalMinusLocalParams gml{make_global({0, 7, 39}, L), LocalParams{4}};
  const auto gmlpred =
      build_csr_from_predicate(L, [&](Index i, Index j) { return gml.contains(i, j); });
  const auto gmlpat = build_csr_global_minus_local(L, gml);
  EXPECT_EQ(gmlpred.row_offsets, gmlpat.row_offsets);
  EXPECT_EQ(gmlpred.col_idx, gmlpat.col_idx);
}

TEST(RandomMaskTest, DeterministicPerSeed) {
  const auto a = build_csr_random(128, RandomParams{0.05, 7});
  const auto b = build_csr_random(128, RandomParams{0.05, 7});
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.row_offsets, b.row_offsets);
}

TEST(RandomMaskTest, DifferentSeedsDiffer) {
  const auto a = build_csr_random(128, RandomParams{0.05, 7});
  const auto b = build_csr_random(128, RandomParams{0.05, 8});
  EXPECT_NE(a.col_idx, b.col_idx);
}

TEST(RandomMaskTest, SeededSamplesArePinned) {
  // Fingerprints recorded from the sampler before its rows were counted
  // in place. A change to the sampler that moves any seeded mask, the
  // benchmark's csr_random and BigBird inputs included, fails here.
  struct Pinned {
    Index seq_len;
    double sparsity;
    std::uint64_t seed;
    Size nnz;
    std::uint64_t fingerprint;
  };
  const Pinned cases[] = {
      {1, 1.0, 1, 1, 0x3fe5556aaba2d085ull},
      {1, 0.5, 3, 1, 0x3fe5556aaba2d085ull},
      {16, 1.0, 1, 256, 0x5f0743ade2730645ull},
      {7, 0.3, 5, 22, 0x2bc0eff05318f126ull},
      {128, 0.05, 7, 835, 0x0d9f13db954db642ull},
      {1000, 0.002, 99, 2038, 0x4e11b32534e81519ull},
      {8192, 256.0 / 8192, 1, 2097387, 0xfb6f75f546235185ull},
      {8192, 64.0 / 8192, 2025, 524168, 0x02daad111131d005ull},
  };
  for (const Pinned& c : cases) {
    const auto m = build_csr_random(c.seq_len, RandomParams{c.sparsity, c.seed});
    EXPECT_EQ(m.nnz(), c.nnz) << "L=" << c.seq_len << " seed=" << c.seed;
    EXPECT_EQ(mask_fingerprint(m), c.fingerprint) << "L=" << c.seq_len << " seed=" << c.seed;
    EXPECT_EQ(m.values, std::vector<float>(m.nnz(), 1.0f));
  }
}

TEST(RandomMaskTest, HitsExpectedSparsity) {
  const Index L = 512;
  for (const double sf : {0.001, 0.01, 0.1}) {
    const auto csr = build_csr_random(L, RandomParams{sf, 13});
    EXPECT_TRUE(csr.is_canonical());
    const double got = sparsity_factor(csr.nnz(), L);
    EXPECT_NEAR(got, sf, sf * 0.25 + 2e-5) << "target " << sf;  // ~4 sigma for Binomial(L², sf)
  }
}

TEST(RandomMaskTest, EdgeDensities) {
  const auto empty = build_csr_random(64, RandomParams{0.0, 1});
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_TRUE(empty.is_canonical());
  const auto full = build_csr_random(16, RandomParams{1.0, 1});
  EXPECT_EQ(full.nnz(), 256u);
}

}  // namespace
}  // namespace gpa
