#pragma once
// Internal linkage point between the dispatcher and the per-arm
// translation units. Not part of the public simd API.

#include <bit>
#include <cstdint>

#include "simd/simd.hpp"

namespace gpa::simd::detail {

// --- The exp lane definition (simd.hpp, "THE EXP") --------------------
// Every arm's `exp` computes exp_lane on each element: the scalar arm
// calls it, and avx2-fma and avx512 mirror it op for op with the same
// constants, operand order and rounding steps. No FMA: every arm's
// TU is built with -ffp-contract=off.

/// Clamp bounds. exp(kExpHi) rounds to +inf and exp(kExpLo) to +0, so
/// every input beyond them gives +inf or +0 as well.
inline constexpr float kExpHi = 88.7228394f;
inline constexpr float kExpLo = -103.972084f;
inline constexpr float kExpLog2e = 1.44269504088896341f;
/// 1.5·2^23: adding it rounds a float of magnitude < 2^22 to the nearest
/// integer (ties to even), which then sits in the sum's low mantissa
/// bits.
inline constexpr float kExpShifter = 12582912.0f;
inline constexpr std::uint32_t kExpShifterBits = 0x4B400000u;
/// ln 2 split Cephes' way: kExpLn2Hi has few mantissa bits, so n·kExpLn2Hi
/// is exact for |n| <= 150.
inline constexpr float kExpLn2Hi = 0.693359375f;
inline constexpr float kExpLn2Lo = -2.12194440e-4f;
/// Cephes' expf polynomial, highest degree first.
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;

/// 2^k for -126 <= k <= 127; other k give a float with a zero mantissa
/// (±0, a power of two or ±inf), never a NaN.
inline float exp_pow2(std::int32_t k) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(k + 127) << 23);
}

/// exp(x), one lane. After the clamp n lies in [-150, 128], so both
/// halves of the 2^n scale are normal and a subnormal result rounds
/// once, at the last multiply. A NaN passes the clamp (MINPS and MAXPS
/// return their second operand on NaN) and every later step.
inline float exp_lane(float x) noexcept {
  const float below_hi = kExpHi < x ? kExpHi : x;         // MINPS(kExpHi, x)
  const float c = kExpLo > below_hi ? kExpLo : below_hi;  // MAXPS(kExpLo, ·)
  const float t = c * kExpLog2e + kExpShifter;
  const float n = t - kExpShifter;
  const float r = (c - n * kExpLn2Hi) - n * kExpLn2Lo;
  float p = kExpP0;
  p = p * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  const float y = (p * (r * r) + r) + 1.0f;
  const auto ni = static_cast<std::int32_t>(std::bit_cast<std::uint32_t>(t) - kExpShifterBits);
  const std::int32_t half = ni >> 1;
  return (y * exp_pow2(half)) * exp_pow2(ni - half);
}

/// fold_tile for an arm that composes it edge by edge from its own ops,
/// which is its contract: the tile's dots, then softmax_push, then each
/// edge's axpy (alpha == 1) or axpby.
template <float (*Dot)(const float*, const float*, Index) noexcept, ExpFn Exp,
          void (*Axpy)(float*, float, const float*, Index) noexcept,
          void (*Axpby)(float*, float, float, const float*, Index) noexcept>
void fold_tile_by_edge(const float* q, const float* const* k, const float* const* v,
                       const float* gate, Index count, Index n, float scale, float* m, float* l,
                       float* acc) noexcept {
  float w[kTileRows] = {};
  for (Index b = 0; b < count; ++b) {
    w[b] = Dot(q, k[b], n) * scale;
    if (gate != nullptr) w[b] *= gate[b];
  }
  float alpha[kTileRows] = {};
  float beta[kTileRows] = {};
  softmax_push(Exp, w, count, *m, *l, alpha, beta);
  for (Index b = 0; b < count; ++b) {
    if (alpha[b] == 1.0f) {
      Axpy(acc, beta[b], v[b], n);
    } else {
      Axpby(acc, alpha[b], beta[b], v[b], n);
    }
  }
}

/// Portable scalar reference arm (simd_scalar.cpp — compiled with
/// auto-vectorization off so the differential baseline is honest).
extern const VecOps kScalarOps;

#if defined(GPA_SIMD_AVX2_FMA)
/// AVX2+FMA arm (simd_avx2_fma.cpp — -mavx2 -mfma -mf16c; the 16-lane
/// contract as two 8-lane halves).
extern const VecOps kAvx2FmaOps;
#endif

#if defined(GPA_SIMD_AVX512)
/// AVX-512 arm (simd_avx512.cpp — -mavx512f, the 16-lane contract in one
/// register).
extern const VecOps kAvx512Ops;
#endif

}  // namespace gpa::simd::detail
