// Bitwise AVX2 arm of the SIMD dispatch — compiled with -mavx2 -mf16c
// and -ffp-contract=off: the mul/add pairs below must not be fused into
// FMAs, or the arm would diverge from the scalar lane contract in
// simd.hpp (the relaxed avx2-fma arm exists for exactly that). Tails
// are handled with masked loads/stores for floats and zero-padded stack
// staging for halfs (no 16-bit masked load exists below AVX-512), so no
// lane ever touches memory past n and ASan stays quiet.

#if !defined(GPA_SIMD_AVX2)
#error "simd_avx2.cpp must only be compiled when GPA_SIMD_AVX2 is defined"
#endif

#include <immintrin.h>

#include <cstring>
#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

constexpr Index kLanes = 8;

/// Lane mask for an r-element tail (1 <= r <= 7): lanes < r are enabled
/// (sign bit set, as maskload/maskstore/blendv require).
inline __m256i tail_mask(Index r) noexcept {
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)), lane_ids);
}

/// The fixed pairwise tree of the lane contract: t = lo ⊕ hi, then the
/// {0,2}/{1,3} pair, then the final pair.
inline float reduce_tree_add(__m256 s) noexcept {
  const __m128 lo = _mm256_castps256_ps128(s);
  const __m128 hi = _mm256_extractf128_ps(s, 1);
  const __m128 t = _mm_add_ps(lo, hi);
  const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
  return _mm_cvtss_f32(_mm_add_ss(u, _mm_shuffle_ps(u, u, 0x1)));
}

inline float reduce_tree_max(__m256 s) noexcept {
  const __m128 lo = _mm256_castps256_ps128(s);
  const __m128 hi = _mm256_extractf128_ps(s, 1);
  const __m128 t = _mm_max_ps(lo, hi);
  const __m128 u = _mm_max_ps(t, _mm_movehl_ps(t, t));
  return _mm_cvtss_f32(_mm_max_ss(u, _mm_shuffle_ps(u, u, 0x1)));
}

float dot(const float* a, const float* b, Index n) noexcept {
  __m256 s = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 av = _mm256_loadu_ps(a + base);
    const __m256 bv = _mm256_loadu_ps(b + base);
    s = _mm256_add_ps(s, _mm256_mul_ps(av, bv));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 av = _mm256_maskload_ps(a + base, mask);
    const __m256 bv = _mm256_maskload_ps(b + base, mask);
    s = _mm256_add_ps(s, _mm256_mul_ps(av, bv));  // dead lanes add +0.0f
  }
  return reduce_tree_add(s);
}

void axpby(float* acc, float alpha, float beta, const float* v, Index n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 accv = _mm256_loadu_ps(acc + base);
    const __m256 vv = _mm256_loadu_ps(v + base);
    _mm256_storeu_ps(acc + base,
                     _mm256_add_ps(_mm256_mul_ps(accv, va), _mm256_mul_ps(vb, vv)));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 accv = _mm256_maskload_ps(acc + base, mask);
    const __m256 vv = _mm256_maskload_ps(v + base, mask);
    _mm256_maskstore_ps(acc + base, mask,
                        _mm256_add_ps(_mm256_mul_ps(accv, va), _mm256_mul_ps(vb, vv)));
  }
}

void axpy(float* acc, float beta, const float* v, Index n) noexcept {
  const __m256 vb = _mm256_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 accv = _mm256_loadu_ps(acc + base);
    const __m256 vv = _mm256_loadu_ps(v + base);
    _mm256_storeu_ps(acc + base, _mm256_add_ps(accv, _mm256_mul_ps(vb, vv)));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 accv = _mm256_maskload_ps(acc + base, mask);
    const __m256 vv = _mm256_maskload_ps(v + base, mask);
    _mm256_maskstore_ps(acc + base, mask, _mm256_add_ps(accv, _mm256_mul_ps(vb, vv)));
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
  __m256 s = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm256_max_ps(s, _mm256_loadu_ps(x + base));
  }
  if (base < n) {
    // Dead tail lanes must see the max identity (-inf), not the 0.0f a
    // masked load yields — the all-masked-row convention depends on it.
    const __m256i mask = tail_mask(n - base);
    const __m256 loaded = _mm256_maskload_ps(x + base, mask);
    const __m256 neg_inf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    s = _mm256_max_ps(s, _mm256_blendv_ps(neg_inf, loaded, _mm256_castsi256_ps(mask)));
  }
  return reduce_tree_max(s);
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
  __m256 s = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + base));
  }
  if (base < n) {
    s = _mm256_add_ps(s, _mm256_maskload_ps(x + base, tail_mask(n - base)));
  }
  return reduce_tree_add(s);
}

// --- fp16 storage ops (F16C) -----------------------------------------
// VCVTPH2PS widens binary16 -> binary32 exactly — the same values the
// scalar arm's software converter produces — so the half dot/accumulate
// ops below stay bit-identical to the scalar arm by the lane contract.

/// Eight halfs -> eight floats (exact).
inline __m256 load_h8(const half_t* p) noexcept {
  __m128i raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm256_cvtph_ps(raw);
}

/// Tail load: r < 8 halfs, staged through a zero-padded stack block so
/// the vector load never reads past the caller's range. Dead lanes hold
/// +0.0f — exactly what the lane contract's masked loads yield.
inline __m256 load_h_tail(const half_t* p, Index r) noexcept {
  alignas(16) std::uint16_t buf[8] = {};
  std::memcpy(buf, p, static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  return _mm256_cvtph_ps(_mm_load_si128(reinterpret_cast<const __m128i*>(buf)));
}

float dot_h(const half_t* a, const half_t* b, Index n) noexcept {
  __m256 s = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm256_add_ps(s, _mm256_mul_ps(load_h8(a + base), load_h8(b + base)));
  }
  if (base < n) {
    const Index r = n - base;
    s = _mm256_add_ps(s, _mm256_mul_ps(load_h_tail(a + base, r), load_h_tail(b + base, r)));
  }
  return reduce_tree_add(s);
}

float dot_fh(const float* a, const half_t* b, Index n) noexcept {
  __m256 s = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_loadu_ps(a + base), load_h8(b + base)));
  }
  if (base < n) {
    const Index r = n - base;
    const __m256 av = _mm256_maskload_ps(a + base, tail_mask(r));
    s = _mm256_add_ps(s, _mm256_mul_ps(av, load_h_tail(b + base, r)));
  }
  return reduce_tree_add(s);
}

void axpby_h(float* acc, float alpha, float beta, const half_t* v, Index n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 accv = _mm256_loadu_ps(acc + base);
    const __m256 vv = load_h8(v + base);
    _mm256_storeu_ps(acc + base,
                     _mm256_add_ps(_mm256_mul_ps(accv, va), _mm256_mul_ps(vb, vv)));
  }
  if (base < n) {
    const Index r = n - base;
    const __m256i mask = tail_mask(r);
    const __m256 accv = _mm256_maskload_ps(acc + base, mask);
    const __m256 vv = load_h_tail(v + base, r);
    _mm256_maskstore_ps(acc + base, mask,
                        _mm256_add_ps(_mm256_mul_ps(accv, va), _mm256_mul_ps(vb, vv)));
  }
}

void axpy_h(float* acc, float beta, const half_t* v, Index n) noexcept {
  const __m256 vb = _mm256_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 accv = _mm256_loadu_ps(acc + base);
    _mm256_storeu_ps(acc + base, _mm256_add_ps(accv, _mm256_mul_ps(vb, load_h8(v + base))));
  }
  if (base < n) {
    const Index r = n - base;
    const __m256i mask = tail_mask(r);
    const __m256 accv = _mm256_maskload_ps(acc + base, mask);
    _mm256_maskstore_ps(acc + base, mask,
                        _mm256_add_ps(accv, _mm256_mul_ps(vb, load_h_tail(v + base, r))));
  }
}

void h2f(float* dst, const half_t* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm256_storeu_ps(dst + base, load_h8(src + base));
  }
  if (base < n) {
    const Index r = n - base;
    _mm256_maskstore_ps(dst + base, tail_mask(r), load_h_tail(src + base, r));
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

const VecOps kAvx2Ops = {dot,    axpby,  axpy,    scale,  reduce_max,
                         reduce_sum, exp, fold_tile_by_edge<dot, exp, axpy, axpby>,
                         dot_h,  dot_fh, axpby_h, axpy_h, h2f, f2h};

}  // namespace gpa::simd::detail
