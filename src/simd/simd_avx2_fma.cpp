// AVX2+FMA arm of the SIMD dispatch — compiled with -mavx2 -mfma -mf16c
// -ffp-contract=off. It runs the lane contract (simd.hpp) as two 8-lane
// halves: every reduction keeps one ymm accumulator for lanes 0-7 and
// one for lanes 8-15 of each 16-element block, and finishes in the
// contract's tree from "high 8 + low 8" on, so its dots, sums and maxes
// equal the avx512 arm's bit for bit. The element-wise ops need no
// lanes: their FMAs are the contract's, one element at a time. Every
// FMA is an explicit intrinsic; contraction is off so the compiler
// cannot fuse exp's separate mul and add.

#if !defined(GPA_SIMD_AVX2_FMA)
#error "simd_avx2_fma.cpp must only be compiled when GPA_SIMD_AVX2_FMA is defined"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

/// Lanes per register; the contract's 16-element block is two of them.
constexpr Index kLanes = 8;
constexpr Index kBlock = 2 * kLanes;

inline __m256i tail_mask(Index r) noexcept {
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)), lane_ids);
}

/// The contract's tree from "high 8 + low 8" on, over lanes 0-7 in lo
/// and lanes 8-15 in hi: the avx512 arm's reduce_add16 after its first
/// extract.
inline float reduce_add16(__m256 lo, __m256 hi) noexcept {
  const __m256 t3 = _mm256_add_ps(hi, lo);
  const __m128 t6 = _mm_add_ps(_mm256_extractf128_ps(t3, 1), _mm256_castps256_ps128(t3));
  const __m128 t8 = _mm_add_ps(t6, _mm_shuffle_ps(t6, t6, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(_mm_add_ss(t8, _mm_shuffle_ps(t8, t8, _MM_SHUFFLE(1, 1, 1, 1))));
}

/// reduce_add16's tree with MAXPS at every node.
inline float reduce_max16(__m256 lo, __m256 hi) noexcept {
  const __m256 t3 = _mm256_max_ps(hi, lo);
  const __m128 t6 = _mm_max_ps(_mm256_extractf128_ps(t3, 1), _mm256_castps256_ps128(t3));
  const __m128 t8 = _mm_max_ps(t6, _mm_shuffle_ps(t6, t6, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(_mm_max_ss(t8, _mm_shuffle_ps(t8, t8, _MM_SHUFFLE(1, 1, 1, 1))));
}

/// Eight elements from p as floats (halfs widen exactly).
inline __m256 load8(const float* p) noexcept { return _mm256_loadu_ps(p); }

inline __m256 load8(const half_t* p) noexcept {
  __m128i raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm256_cvtph_ps(raw);
}

/// Elements [i, i + 8) of p[0..n) as floats, in a tail block (n - i <
/// 16): dead lanes, and every lane when i >= n, hold +0.
inline __m256 tail8(const float* p, Index i, Index n) noexcept {
  return i < n ? _mm256_maskload_ps(p + i, tail_mask(n - i)) : _mm256_setzero_ps();
}

inline __m256 tail8(const half_t* p, Index i, Index n) noexcept {
  alignas(16) std::uint16_t buf[8] = {};
  if (i < n) {
    std::memcpy(buf, p + i, static_cast<std::size_t>(std::min(n - i, kLanes)) * sizeof buf[0]);
  }
  return _mm256_cvtph_ps(_mm_load_si128(reinterpret_cast<const __m128i*>(buf)));
}

/// Σ widen(a[i])·widen(b[i]): dot, dot_h and dot_fh. Dead tail lanes
/// load +0 and add fma(0, 0, s).
template <typename A, typename B>
float dot(const A* a, const B* b, Index n) noexcept {
  __m256 lo = _mm256_setzero_ps();
  __m256 hi = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kBlock <= n; base += kBlock) {
    lo = _mm256_fmadd_ps(load8(a + base), load8(b + base), lo);
    hi = _mm256_fmadd_ps(load8(a + base + kLanes), load8(b + base + kLanes), hi);
  }
  if (base < n) {
    lo = _mm256_fmadd_ps(tail8(a, base, n), tail8(b, base, n), lo);
    hi = _mm256_fmadd_ps(tail8(a, base + kLanes, n), tail8(b, base + kLanes, n), hi);
  }
  return reduce_add16(lo, hi);
}

/// acc[i] = fma(acc[i], alpha, beta·widen(v[i])): axpby and axpby_h.
template <typename V>
void axpby(float* acc, float alpha, float beta, const V* v, Index n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 accv = _mm256_loadu_ps(acc + base);
    _mm256_storeu_ps(acc + base, _mm256_fmadd_ps(accv, va, _mm256_mul_ps(vb, load8(v + base))));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 accv = _mm256_maskload_ps(acc + base, mask);
    _mm256_maskstore_ps(acc + base, mask,
                        _mm256_fmadd_ps(accv, va, _mm256_mul_ps(vb, tail8(v, base, n))));
  }
}

/// acc[i] = fma(beta, widen(v[i]), acc[i]): axpy and axpy_h.
template <typename V>
void axpy(float* acc, float beta, const V* v, Index n) noexcept {
  const __m256 vb = _mm256_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 accv = _mm256_loadu_ps(acc + base);
    _mm256_storeu_ps(acc + base, _mm256_fmadd_ps(vb, load8(v + base), accv));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 accv = _mm256_maskload_ps(acc + base, mask);
    _mm256_maskstore_ps(acc + base, mask, _mm256_fmadd_ps(vb, tail8(v, base, n), accv));
  }
}

void scale(float* x, float s, Index n) noexcept {
  const __m256 vs = _mm256_set1_ps(s);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm256_storeu_ps(x + base, _mm256_mul_ps(_mm256_loadu_ps(x + base), vs));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 xv = _mm256_maskload_ps(x + base, mask);
    _mm256_maskstore_ps(x + base, mask, _mm256_mul_ps(xv, vs));
  }
}

float reduce_max(const float* x, Index n) noexcept {
  const __m256 neg_inf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  // tail8 with dead lanes -inf, the max identity.
  const auto tail = [&](Index i) {
    if (i >= n) return neg_inf;
    const __m256i mask = tail_mask(n - i);
    return _mm256_blendv_ps(neg_inf, _mm256_maskload_ps(x + i, mask), _mm256_castsi256_ps(mask));
  };
  __m256 lo = neg_inf;
  __m256 hi = neg_inf;
  Index base = 0;
  for (; base + kBlock <= n; base += kBlock) {
    lo = _mm256_max_ps(lo, _mm256_loadu_ps(x + base));
    hi = _mm256_max_ps(hi, _mm256_loadu_ps(x + base + kLanes));
  }
  if (base < n) {
    lo = _mm256_max_ps(lo, tail(base));
    hi = _mm256_max_ps(hi, tail(base + kLanes));
  }
  return reduce_max16(lo, hi);
}

/// exp_lane (ops_tables.hpp) on eight lanes, op for op: no FMA.
inline __m256 exp8(__m256 x) noexcept {
  const __m256 c =
      _mm256_max_ps(_mm256_set1_ps(kExpLo), _mm256_min_ps(_mm256_set1_ps(kExpHi), x));
  const __m256 shifter = _mm256_set1_ps(kExpShifter);
  const __m256 t = _mm256_add_ps(_mm256_mul_ps(c, _mm256_set1_ps(kExpLog2e)), shifter);
  const __m256 n = _mm256_sub_ps(t, shifter);
  const __m256 r = _mm256_sub_ps(_mm256_sub_ps(c, _mm256_mul_ps(n, _mm256_set1_ps(kExpLn2Hi))),
                                 _mm256_mul_ps(n, _mm256_set1_ps(kExpLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP5));
  const __m256 y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
                                 _mm256_set1_ps(1.0f));
  const __m256i ni = _mm256_sub_epi32(_mm256_castps_si256(t),
                                      _mm256_set1_epi32(static_cast<int>(kExpShifterBits)));
  const __m256i half = _mm256_srai_epi32(ni, 1);
  const auto pow2 = [](__m256i k) {
    return _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(k, _mm256_set1_epi32(127)), 23));
  };
  return _mm256_mul_ps(_mm256_mul_ps(y, pow2(half)), pow2(_mm256_sub_epi32(ni, half)));
}

void exp(float* dst, const float* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm256_storeu_ps(dst + base, exp8(_mm256_loadu_ps(src + base)));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    _mm256_maskstore_ps(dst + base, mask, exp8(_mm256_maskload_ps(src + base, mask)));
  }
}

float reduce_sum(const float* x, Index n) noexcept {
  __m256 lo = _mm256_setzero_ps();
  __m256 hi = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kBlock <= n; base += kBlock) {
    lo = _mm256_add_ps(lo, _mm256_loadu_ps(x + base));
    hi = _mm256_add_ps(hi, _mm256_loadu_ps(x + base + kLanes));
  }
  if (base < n) {
    lo = _mm256_add_ps(lo, tail8(x, base, n));
    hi = _mm256_add_ps(hi, tail8(x, base + kLanes, n));
  }
  return reduce_add16(lo, hi);
}

void h2f(float* dst, const half_t* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm256_storeu_ps(dst + base, load8(src + base));
  }
  if (base < n) {
    _mm256_maskstore_ps(dst + base, tail_mask(n - base), tail8(src, base, n));
  }
}

void f2h(half_t* dst, const float* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src + base), _MM_FROUND_TO_NEAREST_INT);
    std::memcpy(static_cast<void*>(dst + base), &h, sizeof h);
  }
  if (base < n) {
    const Index r = n - base;
    const __m256 v = _mm256_maskload_ps(src + base, tail_mask(r));
    alignas(16) std::uint16_t buf[8];
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), h);
    std::memcpy(static_cast<void*>(dst + base), buf,
                static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  }
}

}  // namespace

const VecOps kAvx2FmaOps = {dot<float, float>,
                            axpby<float>,
                            axpy<float>,
                            scale,
                            reduce_max,
                            reduce_sum,
                            exp,
                            fold_tile_by_edge<dot<float, float>, exp, axpy<float>, axpby<float>>,
                            dot<half_t, half_t>,
                            dot<float, half_t>,
                            axpby<half_t>,
                            axpy<half_t>,
                            h2f,
                            f2h};

}  // namespace gpa::simd::detail
