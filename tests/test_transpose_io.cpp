// Tests for CSR transpose (backward-pass substrate) and mask files
// (one net frame carrying the wire CSR codec), including a seeded
// truncation / bit-flip loop: a damaged file must fail with
// InvalidArgument, never bad_alloc or a crash.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "net/frame.hpp"
#include "sparse/build.hpp"
#include "sparse/transpose.hpp"

namespace gpa {
namespace {

TEST(TransposeTest, MatchesDenseTranspose) {
  const Index L = 48;
  const auto mask = build_csr_random(L, RandomParams{0.15, 11});
  const auto t = transpose_csr(mask);
  EXPECT_TRUE(t.t.is_canonical());
  const auto dense = csr_to_dense(mask);
  const auto dense_t = csr_to_dense(t.t);
  for (Index i = 0; i < L; ++i) {
    for (Index j = 0; j < L; ++j) EXPECT_EQ(dense_t(i, j), dense(j, i));
  }
}

TEST(TransposeTest, DoubleTransposeIsIdentity) {
  const auto mask = build_csr_random(64, RandomParams{0.1, 12});
  const auto back = transpose_csr(transpose_csr(mask).t).t;
  EXPECT_EQ(back.row_offsets, mask.row_offsets);
  EXPECT_EQ(back.col_idx, mask.col_idx);
  EXPECT_EQ(back.values, mask.values);
}

TEST(TransposeTest, EntryMapPointsBackToSource) {
  const auto mask = build_csr_random(32, RandomParams{0.2, 13});
  const auto t = transpose_csr(mask);
  ASSERT_EQ(t.entry_map.size(), mask.nnz());
  // For each transpose entry (j -> i) at slot s, entry_map[s] must be a
  // forward entry with row i, column j.
  std::vector<Index> fwd_row(mask.nnz());
  for (Index i = 0; i < mask.rows; ++i) {
    for (Index k = mask.row_begin(i); k < mask.row_end(i); ++k) {
      fwd_row[static_cast<std::size_t>(k)] = i;
    }
  }
  for (Index j = 0; j < t.t.rows; ++j) {
    for (Index s = t.t.row_begin(j); s < t.t.row_end(j); ++s) {
      const Index i = t.t.col_idx[static_cast<std::size_t>(s)];
      const Index src = t.entry_map[static_cast<std::size_t>(s)];
      EXPECT_EQ(fwd_row[static_cast<std::size_t>(src)], i);
      EXPECT_EQ(mask.col_idx[static_cast<std::size_t>(src)], j);
    }
  }
}

TEST(TransposeTest, ValuesFollowEntries) {
  auto mask = build_csr_local(16, LocalParams{3});
  Rng rng(14);
  for (auto& v : mask.values) v = rng.next_float();
  const auto t = transpose_csr(mask);
  for (std::size_t s = 0; s < t.t.values.size(); ++s) {
    EXPECT_EQ(t.t.values[s], mask.values[t.entry_map[s]]);
  }
}

TEST(TransposeTest, ImplicitPatternsAreSymmetric) {
  // The backward pass exploits this: local / dilated / global masks need
  // no transpose.
  const Index L = 64;
  EXPECT_TRUE(is_structurally_symmetric(build_csr_local(L, LocalParams{5})));
  EXPECT_TRUE(is_structurally_symmetric(build_csr_dilated1d(L, Dilated1DParams{9, 2})));
  EXPECT_TRUE(is_structurally_symmetric(build_csr_dilated2d(make_dilated2d(L, 8, 1))));
  EXPECT_TRUE(
      is_structurally_symmetric(build_csr_global(L, make_global({0, 10}, L))));
}

TEST(TransposeTest, RandomAndCausalMasksAreNot) {
  const Index L = 64;
  EXPECT_FALSE(is_structurally_symmetric(build_csr_random(L, RandomParams{0.05, 15})));
  const auto causal = build_csr_from_predicate(L, [](Index i, Index j) { return j <= i; });
  EXPECT_FALSE(is_structurally_symmetric(causal));
}

TEST(TransposeTest, EmptyAndRectangular) {
  Csr<float> empty;
  empty.rows = 4;
  empty.cols = 6;
  empty.row_offsets.assign(5, 0);
  const auto t = transpose_csr(empty);
  EXPECT_EQ(t.t.rows, 6);
  EXPECT_EQ(t.t.cols, 4);
  EXPECT_EQ(t.t.nnz(), 0u);
}

class IoFixture : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() / "gpa_mask_test.bin").string();
  void TearDown() override { std::filesystem::remove(path_); }

  std::vector<std::uint8_t> read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  void write_file(const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(IoFixture, RoundTripPreservesEverything) {
  auto mask = build_csr_random(128, RandomParams{0.07, 16});
  Rng rng(17);
  for (auto& v : mask.values) v = rng.next_float();
  net::save_mask(mask, path_);
  const auto loaded = net::load_mask(path_);
  EXPECT_EQ(loaded.rows, mask.rows);
  EXPECT_EQ(loaded.cols, mask.cols);
  EXPECT_EQ(loaded.row_offsets, mask.row_offsets);
  EXPECT_EQ(loaded.col_idx, mask.col_idx);
  EXPECT_EQ(loaded.values, mask.values);
}

TEST_F(IoFixture, RejectsGarbageFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not a mask";
  out.close();
  EXPECT_THROW(net::load_mask(path_), InvalidArgument);

  // A mask file of the first format: magic "GPAF", a u64 length and a
  // byte-wise FNV-1a trailer around the same put_csr payload.
  net::Writer payload;
  net::put_csr(payload, build_csr_local(32, LocalParams{3}));
  net::Writer w;
  w.u32(0x47504146u);
  w.u16(net::kFrameMaskFile);
  w.u16(0);
  w.u64(payload.buf.size());
  w.bytes(payload.buf.data(), payload.buf.size());
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : payload.buf) fnv = (fnv ^ b) * 0x100000001b3ull;
  w.u64(fnv);
  write_file(w.buf);
  EXPECT_THROW(net::load_mask(path_), InvalidArgument);
}

TEST_F(IoFixture, RejectsTruncatedFile) {
  const auto mask = build_csr_local(64, LocalParams{4});
  net::save_mask(mask, path_);
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) / 2);
  EXPECT_THROW(net::load_mask(path_), InvalidArgument);
}

TEST_F(IoFixture, MissingFileThrows) {
  EXPECT_THROW(net::load_mask("/nonexistent/dir/mask.bin"), InvalidArgument);
}

TEST_F(IoFixture, DamagedFilesFailWithInvalidArgument) {
  auto mask = build_csr_random(48, RandomParams{0.1, 18});
  net::save_mask(mask, path_);
  const std::vector<std::uint8_t> good = read_file();
  Rng rng(19);

  // Every truncation, including the empty file.
  for (std::size_t n = 0; n < good.size(); ++n) {
    write_file({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(n)});
    EXPECT_THROW(net::load_mask(path_), InvalidArgument) << "truncated to " << n;
  }
  // Single-bit flips anywhere: header, payload, checksum trailer.
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> bad = good;
    const std::size_t bit = rng.next_below(bad.size() * 8);
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    write_file(bad);
    EXPECT_THROW(net::load_mask(path_), InvalidArgument) << "bit " << bit;
  }
  // Flips inside the payload behind a valid checksum reach the CSR
  // decoder itself: each must load a canonical mask or throw
  // InvalidArgument (a flipped value bit is still a valid mask). Every
  // bit of the rows/cols/nnz header is flipped, then seeded ones.
  net::Frame frame;
  ASSERT_EQ(net::decode_frame(good.data(), good.size(), frame), net::WireStatus::Ok);
  std::vector<std::size_t> bits(3 * 64);
  std::iota(bits.begin(), bits.end(), std::size_t{0});
  for (int trial = 0; trial < 400; ++trial) {
    bits.push_back(rng.next_below(frame.payload.size() * 8));
  }
  for (const std::size_t bit : bits) {
    net::Frame bad = frame;
    bad.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    std::vector<std::uint8_t> bytes;
    net::encode_frame(bad, bytes);
    write_file(bytes);
    try {
      EXPECT_TRUE(net::load_mask(path_).is_canonical()) << "bit " << bit;
    } catch (const InvalidArgument&) {
    }
  }
}

TEST_F(IoFixture, EmptyMaskRoundTrips) {
  Csr<float> empty;
  empty.rows = empty.cols = 10;
  empty.row_offsets.assign(11, 0);
  net::save_mask(empty, path_);
  const auto loaded = net::load_mask(path_);
  EXPECT_EQ(loaded.nnz(), 0u);
  EXPECT_EQ(loaded.rows, 10);
}

}  // namespace
}  // namespace gpa
