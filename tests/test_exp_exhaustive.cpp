// Exhaustive verification of the program's exp (simd::VecOps::exp): all
// 2^32 float bit patterns, on every arm this build + CPU can run.
//
//  * Every arm equals the scalar arm, which runs the lane definition in
//    simd/ops_tables.hpp, bit for bit — NaN payloads included.
//  * Every result is within 1 ULP of the correctly rounded exp (double
//    std::exp, rounded to float), subnormal results included.
//  * The special lanes are exact: exp(±0) == 1, exp(-inf) == +0,
//    exp(+inf) == +inf, NaN stays NaN, and inputs beyond either clamp
//    give +inf or +0.
//
// The sweep runs in blocks of 2^16 inputs, split over the hardware
// threads. Each worker tallies its failures and keeps the first input
// of each kind; the test thread asserts on the merged tallies.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "simd/ops_tables.hpp"
#include "simd/simd.hpp"

namespace gpa {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr std::uint32_t kBlockBits = 16;
constexpr Index kBlock = Index{1} << kBlockBits;
constexpr std::uint32_t kBlocks = std::uint32_t{1} << (32 - kBlockBits);

/// Maps a float onto the integer line so that adjacent representable
/// values differ by 1 (the standard monotone ULP embedding).
std::int64_t ulp_index(float x) {
  const auto bits = std::bit_cast<std::int32_t>(x);
  return bits >= 0 ? bits : std::int64_t{std::numeric_limits<std::int32_t>::min()} - bits;
}

/// Clears the upper halves of the vector registers after a vector arm
/// ran. Unoptimized builds of the arms end without VZEROUPPER, and the
/// legacy-SSE code that follows (the scalar arm, libm's exp) then runs
/// many times slower, enough to push a Debug sweep past its timeout.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("avx"))) void clear_upper_state() { _mm256_zeroupper(); }
#else
void clear_upper_state() {}
#endif

/// A count of failing inputs and the first one found.
struct Failures {
  std::uint64_t count = 0;
  std::uint32_t first = 0;

  void add(std::uint32_t bits) {
    if (count++ == 0) first = bits;
  }
  void merge(const Failures& o) {
    if (o.count > 0 && (count == 0 || o.first < first)) first = o.first;
    count += o.count;
  }
};

struct Tally {
  std::vector<Failures> arm_differs;  ///< per arm: bits differ from scalar
  Failures over_one_ulp;              ///< scalar result > 1 ULP from exp
  Failures wrong_special;             ///< NaN, ±0 or a clamped lane not exact
  std::int64_t max_ulp = 0;
  std::uint64_t at_one_ulp = 0;

  explicit Tally(std::size_t arms) : arm_differs(arms) {}
  void merge(const Tally& o) {
    for (std::size_t a = 0; a < arm_differs.size(); ++a) arm_differs[a].merge(o.arm_differs[a]);
    over_one_ulp.merge(o.over_one_ulp);
    wrong_special.merge(o.wrong_special);
    max_ulp = std::max(max_ulp, o.max_ulp);
    at_one_ulp += o.at_one_ulp;
  }
};

/// Checks the scalar result y of exp(x) against the specification.
void check_value(std::uint32_t bits, float x, float y, Tally& t) {
  const auto ybits = std::bit_cast<std::uint32_t>(y);
  if (std::isnan(x)) {
    if (!std::isnan(y)) t.wrong_special.add(bits);
  } else if (x == 0.0f) {
    if (ybits != std::bit_cast<std::uint32_t>(1.0f)) t.wrong_special.add(bits);
  } else if (x > simd::detail::kExpHi) {
    if (ybits != std::bit_cast<std::uint32_t>(kInf)) t.wrong_special.add(bits);
  } else if (x < simd::detail::kExpLo) {
    if (ybits != 0u) t.wrong_special.add(bits);
  } else {
    const auto want = static_cast<float>(std::exp(static_cast<double>(x)));
    const std::int64_t d = std::isnan(y) ? std::numeric_limits<std::int64_t>::max()
                                         : std::abs(ulp_index(y) - ulp_index(want));
    if (d > 1) t.over_one_ulp.add(bits);
    if (d == 1) ++t.at_one_ulp;
    t.max_ulp = std::max(t.max_ulp, d);
  }
}

TEST(ExpExhaustive, EveryArmMatchesTheLaneDefinitionWithinOneUlpOnAllInputs) {
  const std::vector<SimdLevel> arms = simd::available_levels();  // Scalar first
  ASSERT_EQ(arms.front(), SimdLevel::Scalar);
  const simd::VecOps& scalar = simd::ops(SimdLevel::Scalar);

  Tally total(arms.size());
  std::mutex total_mu;
  std::atomic<std::uint32_t> next_block{0};
  const auto worker = [&] {
    Tally t(arms.size());
    std::vector<float> src(static_cast<std::size_t>(kBlock));
    std::vector<float> ref(src.size());
    std::vector<float> got(src.size());
    for (std::uint32_t block = next_block++; block < kBlocks; block = next_block++) {
      const std::uint32_t base = block << kBlockBits;
      for (std::uint32_t i = 0; i < kBlock; ++i) src[i] = std::bit_cast<float>(base + i);
      scalar.exp(ref.data(), src.data(), kBlock);
      for (std::size_t a = 1; a < arms.size(); ++a) {
        simd::ops(arms[a]).exp(got.data(), src.data(), kBlock);
        clear_upper_state();
        for (std::uint32_t i = 0; i < kBlock; ++i) {
          if (std::bit_cast<std::uint32_t>(got[i]) != std::bit_cast<std::uint32_t>(ref[i])) {
            t.arm_differs[a].add(base + i);
          }
        }
      }
      for (std::uint32_t i = 0; i < kBlock; ++i) check_value(base + i, src[i], ref[i], t);
    }
    const std::lock_guard<std::mutex> lock(total_mu);
    total.merge(t);
  };
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < threads; ++w) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();

  for (std::size_t a = 1; a < arms.size(); ++a) {
    EXPECT_EQ(total.arm_differs[a].count, 0u)
        << simd::level_name(arms[a]) << " differs from scalar, first at bits 0x" << std::hex
        << total.arm_differs[a].first;
  }
  EXPECT_EQ(total.over_one_ulp.count, 0u)
      << "more than 1 ULP from the correctly rounded exp, first at bits 0x" << std::hex
      << total.over_one_ulp.first;
  EXPECT_EQ(total.wrong_special.count, 0u)
      << "a NaN, zero or clamped lane is not exact, first at bits 0x" << std::hex
      << total.wrong_special.first;
  EXPECT_LE(total.max_ulp, 1);
  std::printf("exp: %zu arm(s), max %lld ULP from the correctly rounded value, %llu inputs at "
              "1 ULP\n",
              arms.size(), static_cast<long long>(total.max_ulp),
              static_cast<unsigned long long>(total.at_one_ulp));
}

TEST(ExpExhaustive, SpecialLanesAreExactOnEveryArm) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Inputs at every lane position and in the tails of the vector arms.
  const std::vector<float> in = {0.0f,  -0.0f, -kInf, kInf, nan, -nan, 1e30f, -1e30f,
                                 std::nextafter(simd::detail::kExpHi, kInf),
                                 std::nextafter(simd::detail::kExpLo, -kInf), 1.0f, -1.0f,
                                 std::numeric_limits<float>::denorm_min(), 0.0f, 0.0f, -0.0f,
                                 kInf, -kInf, nan};
  for (const SimdLevel level : simd::available_levels()) {
    const simd::VecOps& vo = simd::ops(level);
    for (Index n = 1; n <= static_cast<Index>(in.size()); ++n) {
      SCOPED_TRACE(testing::Message() << simd::level_name(level) << " n=" << n);
      std::vector<float> out(static_cast<std::size_t>(n), 7.0f);
      vo.exp(out.data(), in.data(), n);
      for (Index i = 0; i < n; ++i) {
        const float x = in[static_cast<std::size_t>(i)];
        const float y = out[static_cast<std::size_t>(i)];
        if (std::isnan(x)) {
          EXPECT_TRUE(std::isnan(y)) << "lane " << i;
        } else if (x == 0.0f || std::abs(x) < 1e-30f) {
          EXPECT_EQ(y, 1.0f) << "lane " << i;
        } else if (x > simd::detail::kExpHi) {
          EXPECT_EQ(y, kInf) << "lane " << i;
        } else if (x < simd::detail::kExpLo) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(y), 0u) << "lane " << i;  // +0, not -0
        }
      }
    }
    // In place (dst == src) gives the same bits.
    std::vector<float> a = in, b(in.size());
    vo.exp(b.data(), a.data(), static_cast<Index>(a.size()));
    vo.exp(a.data(), a.data(), static_cast<Index>(a.size()));
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]));
    }
  }
}

}  // namespace
}  // namespace gpa
