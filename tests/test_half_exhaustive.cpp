// Exhaustive verification of the binary16 storage type: all 65,536 bit
// patterns are checked for round-trip identity, ordering, and
// classification — the fp16 kernels and the Table II capacity claims
// both stand on this conversion being exact.
//
// The software converters are additionally pinned AGAINST F16C HARDWARE
// (VCVTPH2PS / VCVTPS2PH, reached through the avx2-fma arm's h2f/f2h ops)
// when this build + CPU has the arm: fp16 page payloads must not depend
// on which converter wrote them, including NaN payload handling —
// VCVTPS2PH truncates the payload to the top 10 bits and forces the
// quiet bit, VCVTPH2PS quiets signaling NaNs; common/half.hpp mirrors
// both exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/half.hpp"
#include "simd/simd.hpp"

namespace gpa {
namespace {

TEST(HalfExhaustive, AllBitPatternsRoundTripThroughFloat) {
  int checked = 0;
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const half_t h = half_t::from_bits(static_cast<std::uint16_t>(bits));
    const float f = static_cast<float>(h);
    const half_t back(f);
    if (std::isnan(f)) {
      // NaNs must stay NaN (payloads may differ).
      EXPECT_TRUE(std::isnan(static_cast<float>(back))) << "bits=" << bits;
      continue;
    }
    EXPECT_EQ(back.bits(), bits) << "bits=" << std::hex << bits << " f=" << f;
    ++checked;
  }
  EXPECT_GT(checked, 63000);  // all non-NaN patterns exercised
}

TEST(HalfExhaustive, ConversionPreservesOrderingOfFiniteValues) {
  // Walk all positive finite patterns in bit order: float values must be
  // strictly increasing (the fp16 encoding is monotone).
  float prev = -1.0f;
  for (std::uint32_t bits = 0; bits < 0x7c00u; ++bits) {  // up to +inf exclusive
    const float f = static_cast<float>(half_t::from_bits(static_cast<std::uint16_t>(bits)));
    EXPECT_GT(f, prev) << "bits=" << std::hex << bits;
    prev = f;
  }
}

TEST(HalfExhaustive, NegativePatternsMirrorPositive) {
  for (std::uint32_t bits = 0; bits <= 0x7fffu; ++bits) {
    const float pos = static_cast<float>(half_t::from_bits(static_cast<std::uint16_t>(bits)));
    const float neg =
        static_cast<float>(half_t::from_bits(static_cast<std::uint16_t>(bits | 0x8000u)));
    if (std::isnan(pos)) {
      EXPECT_TRUE(std::isnan(neg));
    } else {
      EXPECT_EQ(neg, -pos) << "bits=" << std::hex << bits;
    }
  }
}

TEST(HalfExhaustive, ClassificationBoundaries) {
  // 0x0000..0x03ff subnormal (or zero), 0x0400..0x7bff normal,
  // 0x7c00 inf, 0x7c01..0x7fff NaN.
  EXPECT_EQ(static_cast<float>(half_t::from_bits(0x0000)), 0.0f);
  for (std::uint32_t bits = 0x0001u; bits <= 0x03ffu; ++bits) {
    const float f = static_cast<float>(half_t::from_bits(static_cast<std::uint16_t>(bits)));
    EXPECT_GT(f, 0.0f);
    EXPECT_LT(f, std::ldexp(1.0f, -14));  // below the smallest normal
  }
  EXPECT_EQ(static_cast<float>(half_t::from_bits(0x0400)), std::ldexp(1.0f, -14));
  EXPECT_TRUE(std::isinf(static_cast<float>(half_t::from_bits(0x7c00))));
  for (std::uint32_t bits = 0x7c01u; bits <= 0x7fffu; bits += 97) {
    EXPECT_TRUE(std::isnan(static_cast<float>(half_t::from_bits(static_cast<std::uint16_t>(bits)))));
  }
}

TEST(HalfExhaustive, NarrowingPicksNearestRepresentable) {
  // For a dense sample of floats, the conversion must return one of the
  // two bracketing fp16 values, whichever is closer (ties checked in
  // test_common).
  for (std::uint32_t bits = 0x0400u; bits < 0x7bffu; bits += 51) {
    const float lo = static_cast<float>(half_t::from_bits(static_cast<std::uint16_t>(bits)));
    const float hi = static_cast<float>(half_t::from_bits(static_cast<std::uint16_t>(bits + 1)));
    const float x = lo + 0.3f * (hi - lo);  // closer to lo
    EXPECT_EQ(half_t(x).bits(), bits) << "x=" << x;
    const float y = lo + 0.7f * (hi - lo);  // closer to hi
    EXPECT_EQ(half_t(y).bits(), bits + 1) << "y=" << y;
  }
}

// --- NaN payload semantics (the F16C conventions, pinned numerically) --

TEST(HalfNanSemantics, NarrowingTruncatesPayloadAndForcesQuietBit) {
  // float SNaN 0x7f800001: payload below the top-10 window vanishes,
  // but the result must still be NaN — the quiet bit is forced, exactly
  // as VCVTPS2PH does.
  const auto narrow_bits = [](std::uint32_t fbits) {
    float f;
    std::memcpy(&f, &fbits, sizeof(f));
    return half_t(f).bits();
  };
  EXPECT_EQ(narrow_bits(0x7f800001u), 0x7e00u);  // SNaN, tiny payload -> base qNaN
  EXPECT_EQ(narrow_bits(0xffc00000u), 0xfe00u);  // default qNaN, sign kept
  // Payload bits inside the top-10 window survive the truncation.
  EXPECT_EQ(narrow_bits(0x7f876000u), 0x7e3bu);  // (0x076000 >> 13) | 0x0200
}

TEST(HalfNanSemantics, WideningQuietsSignalingNans) {
  // half SNaN 0x7c01 widens to a QUIET float NaN with the payload
  // shifted up — VCVTPH2PS sets bit 22 of the result.
  const auto widen_bits = [](std::uint16_t hbits) {
    const float f = static_cast<float>(half_t::from_bits(hbits));
    std::uint32_t out;
    std::memcpy(&out, &f, sizeof(out));
    return out;
  };
  EXPECT_EQ(widen_bits(0x7c01u), 0x7fc02000u);  // SNaN quieted
  EXPECT_EQ(widen_bits(0x7e00u), 0x7fc00000u);  // qNaN maps straight across
  EXPECT_EQ(widen_bits(0xfe00u), 0xffc00000u);  // sign preserved
}

// --- software vs F16C hardware ----------------------------------------

bool f16c_arm_available() { return simd::resolve(SimdLevel::Avx2Fma) == SimdLevel::Avx2Fma; }

TEST(HalfHardwareConformance, WideningMatchesF16CForAllBitPatterns) {
  if (!f16c_arm_available()) GTEST_SKIP() << "F16C arm unavailable on this build/CPU";
  // The avx2-fma arm's h2f is VCVTPH2PS; the scalar arm's is the software
  // converter. All 65,536 inputs, outputs compared as raw bits — NaN
  // payloads included.
  const auto& sw = simd::ops(SimdLevel::Scalar);
  const auto& hw = simd::ops(SimdLevel::Avx2Fma);
  std::vector<half_t> src(65536);
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    src[bits] = half_t::from_bits(static_cast<std::uint16_t>(bits));
  }
  std::vector<float> out_sw(65536), out_hw(65536);
  sw.h2f(out_sw.data(), src.data(), 65536);
  hw.h2f(out_hw.data(), src.data(), 65536);
  for (std::uint32_t i = 0; i <= 0xffffu; ++i) {
    std::uint32_t a, b;
    std::memcpy(&a, &out_sw[i], sizeof(a));
    std::memcpy(&b, &out_hw[i], sizeof(b));
    ASSERT_EQ(a, b) << "half bits=" << std::hex << i;
  }
}

TEST(HalfHardwareConformance, NarrowingMatchesF16COnDenseBitSweep) {
  if (!f16c_arm_available()) GTEST_SKIP() << "F16C arm unavailable on this build/CPU";
  // A ~16.8M-point stride walk of the float bit space (stride 0x101
  // visits every exponent with many mantissa phases, crossing the
  // denormal, overflow, and NaN ranges), compared as raw half bits
  // against VCVTPS2PH's round-to-nearest-even.
  const auto& sw = simd::ops(SimdLevel::Scalar);
  const auto& hw = simd::ops(SimdLevel::Avx2Fma);
  constexpr std::uint32_t kStride = 0x101u;
  constexpr Index kBlock = 4096;
  std::vector<float> in(static_cast<std::size_t>(kBlock));
  std::vector<half_t> out_sw(static_cast<std::size_t>(kBlock));
  std::vector<half_t> out_hw(static_cast<std::size_t>(kBlock));
  std::uint64_t bits = 0;
  while (bits <= 0xffffffffull) {
    Index n = 0;
    for (; n < kBlock && bits <= 0xffffffffull; ++n, bits += kStride) {
      const auto u = static_cast<std::uint32_t>(bits);
      std::memcpy(&in[static_cast<std::size_t>(n)], &u, sizeof(u));
    }
    sw.f2h(out_sw.data(), in.data(), n);
    hw.f2h(out_hw.data(), in.data(), n);
    for (Index i = 0; i < n; ++i) {
      ASSERT_EQ(out_sw[static_cast<std::size_t>(i)].bits(),
                out_hw[static_cast<std::size_t>(i)].bits())
          << "float bits=" << std::hex
          << (static_cast<std::uint32_t>(bits) -
              static_cast<std::uint32_t>((n - i)) * kStride);
    }
  }
}

}  // namespace
}  // namespace gpa
