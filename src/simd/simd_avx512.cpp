// Relaxed AVX-512 arm of the SIMD dispatch — the only translation unit
// compiled with -mavx512f, behind the GPA_ENABLE_AVX512 CMake gate, and
// with -ffp-contract=off so only the explicit FMAs below fuse.
// Sixteen lanes with explicit fused multiply-adds: both the lane count
// and the single-rounding FMAs reassociate every reduction relative to
// the 8-lane contract, so this arm is deterministic (same inputs, same
// bits, every run and schedule) but only ULP-bounded against the scalar
// reference (tests/test_simd_parity.cpp derives and pins the bounds).
// Its exp has no FMA and the same bits as every other arm's.
//
// Tails use AVX-512's native per-lane masking (__mmask16 zero-masked
// loads / masked stores) for floats; half rows stage through a
// zero-padded stack block (VCVTPH2PS has no masked form on the __m256i
// source). Dead lanes hold the op identity: +0.0f for sums and dots,
// -inf for max.
//
// Every sum reduction ends in one written-out tree (reduce_add16), the
// order GCC 12's _mm512_reduce_add_ps uses: high + low 256-bit halves,
// high + low 128-bit quarters, [0]+[2] and [1]+[3], then [0]+[1].
// fold_tile runs the same tree on sixteen rows at once
// (reduce_add16x16), so a tile's scores equal `dot`'s bit for bit
// whatever a compiler's own reduce intrinsic does, and keeps them in one
// register through the scale, gate, running max and both exps.

#if !defined(GPA_SIMD_AVX512)
#error "simd_avx512.cpp must only be compiled when GPA_SIMD_AVX512 is defined"
#endif

#include <immintrin.h>

#include <cstring>
#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

constexpr Index kLanes = 16;

inline __mmask16 tail_mask(Index r) noexcept {
  return static_cast<__mmask16>((1u << static_cast<unsigned>(r)) - 1u);
}

/// Sixteen halfs -> sixteen floats (exact).
inline __m512 load_h16(const half_t* p) noexcept {
  __m256i raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm512_cvtph_ps(raw);
}

/// Tail load: r < 16 halfs through a zero-padded stack block (dead
/// lanes hold +0.0f).
inline __m512 load_h_tail(const half_t* p, Index r) noexcept {
  alignas(32) std::uint16_t buf[16] = {};
  std::memcpy(buf, p, static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  return _mm512_cvtph_ps(_mm256_load_si256(reinterpret_cast<const __m256i*>(buf)));
}

/// Σ lanes of s in the fixed tree described at the top of this file.
inline float reduce_add16(__m512 s) noexcept {
  const __m256 hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(s), 1));
  const __m256 t3 = _mm256_add_ps(hi, _mm512_castps512_ps256(s));
  const __m128 t6 = _mm_add_ps(_mm256_extractf128_ps(t3, 1), _mm256_castps256_ps128(t3));
  const __m128 t8 = _mm_add_ps(t6, _mm_shuffle_ps(t6, t6, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(_mm_add_ss(t8, _mm_shuffle_ps(t8, t8, _MM_SHUFFLE(1, 1, 1, 1))));
}

/// Lane b of the result is reduce_add16(s[b]): each tree level does the
/// same adds on the same operands, for sixteen rows per instruction.
inline __m512 reduce_add16x16(const __m512* s) noexcept {
  // Halves: rows j and 4+j share z[j], rows 8+j and 12+j share z[4+j]
  // (the low 256 bits hold the first row's high + low halves).
  const auto halves = [](__m512 a, __m512 b) {
    return _mm512_add_ps(_mm512_shuffle_f32x4(a, b, _MM_SHUFFLE(3, 2, 3, 2)),
                         _mm512_shuffle_f32x4(a, b, _MM_SHUFFLE(1, 0, 1, 0)));
  };
  __m512 z[8];
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    z[j] = halves(s[j], s[4 + j]);
    z[4 + j] = halves(s[8 + j], s[12 + j]);
  }
  // Quarters: 128-bit chunk c of w[j] holds row 4c + j.
  __m512 w[4];
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    w[j] = _mm512_add_ps(_mm512_shuffle_f32x4(z[j], z[4 + j], _MM_SHUFFLE(3, 1, 3, 1)),
                         _mm512_shuffle_f32x4(z[j], z[4 + j], _MM_SHUFFLE(2, 0, 2, 0)));
  }
  // [0]+[2] and [1]+[3] within each chunk, two w's per vector ...
  const auto pairs = [](__m512 a, __m512 b) {
    return _mm512_add_ps(_mm512_shuffle_ps(a, b, _MM_SHUFFLE(1, 0, 1, 0)),
                         _mm512_shuffle_ps(a, b, _MM_SHUFFLE(3, 2, 3, 2)));
  };
  const __m512 p = pairs(w[0], w[1]);
  const __m512 r = pairs(w[2], w[3]);
  // ... then [0]+[1]: lane j of chunk c comes from w[j], i.e. row 4c + j.
  return _mm512_add_ps(_mm512_shuffle_ps(p, r, _MM_SHUFFLE(2, 0, 2, 0)),
                       _mm512_shuffle_ps(p, r, _MM_SHUFFLE(3, 1, 3, 1)));
}

float dot(const float* a, const float* b, Index n) noexcept {
  __m512 s = _mm512_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm512_fmadd_ps(_mm512_loadu_ps(a + base), _mm512_loadu_ps(b + base), s);
  }
  if (base < n) {
    const __mmask16 m = tail_mask(n - base);
    const __m512 av = _mm512_maskz_loadu_ps(m, a + base);
    const __m512 bv = _mm512_maskz_loadu_ps(m, b + base);
    s = _mm512_fmadd_ps(av, bv, s);  // dead lanes contribute fma(0,0,s) = s
  }
  return reduce_add16(s);
}

void axpby(float* acc, float alpha, float beta, const float* v, Index n) noexcept {
  const __m512 va = _mm512_set1_ps(alpha);
  const __m512 vb = _mm512_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m512 accv = _mm512_loadu_ps(acc + base);
    const __m512 vv = _mm512_loadu_ps(v + base);
    _mm512_storeu_ps(acc + base, _mm512_fmadd_ps(accv, va, _mm512_mul_ps(vb, vv)));
  }
  if (base < n) {
    const __mmask16 m = tail_mask(n - base);
    const __m512 accv = _mm512_maskz_loadu_ps(m, acc + base);
    const __m512 vv = _mm512_maskz_loadu_ps(m, v + base);
    _mm512_mask_storeu_ps(acc + base, m, _mm512_fmadd_ps(accv, va, _mm512_mul_ps(vb, vv)));
  }
}

void axpy(float* acc, float beta, const float* v, Index n) noexcept {
  const __m512 vb = _mm512_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m512 accv = _mm512_loadu_ps(acc + base);
    _mm512_storeu_ps(acc + base, _mm512_fmadd_ps(vb, _mm512_loadu_ps(v + base), accv));
  }
  if (base < n) {
    const __mmask16 m = tail_mask(n - base);
    const __m512 accv = _mm512_maskz_loadu_ps(m, acc + base);
    const __m512 vv = _mm512_maskz_loadu_ps(m, v + base);
    _mm512_mask_storeu_ps(acc + base, m, _mm512_fmadd_ps(vb, vv, accv));
  }
}

void scale(float* x, float s, Index n) noexcept {
  const __m512 vs = _mm512_set1_ps(s);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm512_storeu_ps(x + base, _mm512_mul_ps(_mm512_loadu_ps(x + base), vs));
  }
  if (base < n) {
    const __mmask16 m = tail_mask(n - base);
    const __m512 xv = _mm512_maskz_loadu_ps(m, x + base);
    _mm512_mask_storeu_ps(x + base, m, _mm512_mul_ps(xv, vs));
  }
}

float reduce_max(const float* x, Index n) noexcept {
  const __m512 neg_inf = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  __m512 s = neg_inf;
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm512_max_ps(s, _mm512_loadu_ps(x + base));
  }
  if (base < n) {
    // Dead tail lanes must see the max identity (-inf), not 0.0f.
    const __mmask16 m = tail_mask(n - base);
    s = _mm512_max_ps(s, _mm512_mask_loadu_ps(neg_inf, m, x + base));
  }
  return _mm512_reduce_max_ps(s);
}

/// exp_lane (ops_tables.hpp) on sixteen lanes, op for op: no FMA.
inline __m512 exp16(__m512 x) noexcept {
  const __m512 c =
      _mm512_max_ps(_mm512_set1_ps(kExpLo), _mm512_min_ps(_mm512_set1_ps(kExpHi), x));
  const __m512 shifter = _mm512_set1_ps(kExpShifter);
  const __m512 t = _mm512_add_ps(_mm512_mul_ps(c, _mm512_set1_ps(kExpLog2e)), shifter);
  const __m512 n = _mm512_sub_ps(t, shifter);
  const __m512 r = _mm512_sub_ps(_mm512_sub_ps(c, _mm512_mul_ps(n, _mm512_set1_ps(kExpLn2Hi))),
                                 _mm512_mul_ps(n, _mm512_set1_ps(kExpLn2Lo)));
  __m512 p = _mm512_set1_ps(kExpP0);
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP1));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP2));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP3));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP4));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP5));
  const __m512 y = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(p, _mm512_mul_ps(r, r)), r),
                                 _mm512_set1_ps(1.0f));
  const __m512i ni = _mm512_sub_epi32(_mm512_castps_si512(t),
                                      _mm512_set1_epi32(static_cast<int>(kExpShifterBits)));
  const __m512i half = _mm512_srai_epi32(ni, 1);
  const auto pow2 = [](__m512i k) {
    return _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_add_epi32(k, _mm512_set1_epi32(127)), 23));
  };
  return _mm512_mul_ps(_mm512_mul_ps(y, pow2(half)), pow2(_mm512_sub_epi32(ni, half)));
}

void exp(float* dst, const float* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm512_storeu_ps(dst + base, exp16(_mm512_loadu_ps(src + base)));
  }
  if (base < n) {
    const __mmask16 m = tail_mask(n - base);
    _mm512_mask_storeu_ps(dst + base, m, exp16(_mm512_maskz_loadu_ps(m, src + base)));
  }
}

float reduce_sum(const float* x, Index n) noexcept {
  __m512 s = _mm512_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + base));
  }
  if (base < n) {
    s = _mm512_add_ps(s, _mm512_maskz_loadu_ps(tail_mask(n - base), x + base));
  }
  return reduce_add16(s);
}

/// Mask of the 16-column block at `base`: all lanes, or the tail's.
inline __mmask16 block_mask(Index base, Index n) noexcept {
  return n - base >= kLanes ? __mmask16{0xFFFF} : tail_mask(n - base);
}

/// v shifted up by K lanes: lane b holds v[b - K], lanes below K hold
/// `fill`.
template <int K>
inline __m512 shift_up(__m512 v, __m512 fill) noexcept {
  return _mm512_castsi512_ps(
      _mm512_alignr_epi32(_mm512_castps_si512(v), _mm512_castps_si512(fill), kLanes - K));
}

/// The tile's ordered accumulator updates over kBlocks consecutive
/// 16-column blocks of acc from `base` (the last one masked by `last`),
/// each kept in a register across the tile.
template <int kBlocks>
inline void fold_blocks(float* acc, const float* alpha, const float* beta,
                        const float* const* rows, Index count, Index base,
                        __mmask16 last) noexcept {
  const auto mask = [last](int c) { return c + 1 < kBlocks ? __mmask16{0xFFFF} : last; };
  __m512 a[kBlocks];
  for (int c = 0; c < kBlocks; ++c) {
    a[c] = _mm512_maskz_loadu_ps(mask(c), acc + base + c * kLanes);
  }
  for (Index b = 0; b < count; ++b) {
    const float* v = rows[b] + base;
    const __m512 vb = _mm512_set1_ps(beta[b]);
    if (alpha[b] == 1.0f) {  // axpy's update
      for (int c = 0; c < kBlocks; ++c) {
        a[c] = _mm512_fmadd_ps(vb, _mm512_maskz_loadu_ps(mask(c), v + c * kLanes), a[c]);
      }
    } else {  // axpby's update
      const __m512 va = _mm512_set1_ps(alpha[b]);
      for (int c = 0; c < kBlocks; ++c) {
        const __m512 vv = _mm512_maskz_loadu_ps(mask(c), v + c * kLanes);
        a[c] = _mm512_fmadd_ps(a[c], va, _mm512_mul_ps(vb, vv));
      }
    }
  }
  for (int c = 0; c < kBlocks; ++c) {
    _mm512_mask_storeu_ps(acc + base + c * kLanes, mask(c), a[c]);
  }
}

void fold_tile(const float* q, const float* const* k, const float* const* v,
               const float* gate, Index count, Index n, float scale, float* m, float* l,
               float* acc) noexcept {
  if (count <= 0) return;
  const __mmask16 live = tail_mask(count);

  // The tile's Q·K dots, one accumulator per row. A short tile repeats
  // row 0 in its spare lanes; their scores are never used. One loop over
  // full and tail blocks: dead tail lanes load +0.0f and add
  // fma(0, 0, s) = s, as in `dot`.
  const float* rows[kTileRows];
  for (Index b = 0; b < kTileRows; ++b) rows[b] = k[b < count ? b : 0];
  __m512 s[kTileRows];
#pragma GCC unroll 16
  for (Index b = 0; b < kTileRows; ++b) s[b] = _mm512_setzero_ps();
  for (Index base = 0; base < n; base += kLanes) {
    const __mmask16 mk = block_mask(base, n);
    const __m512 qv = _mm512_maskz_loadu_ps(mk, q + base);
#pragma GCC unroll 16
    for (Index b = 0; b < kTileRows; ++b) {
      s[b] = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mk, rows[b] + base), s[b]);
    }
  }
  __m512 w = _mm512_mul_ps(reduce_add16x16(s), _mm512_set1_ps(scale));
  if (gate != nullptr) w = _mm512_mul_ps(w, _mm512_maskz_loadu_ps(live, gate));

  // Running max, lane b = max(m, w[0..b]) with `s > run ? s : run` per
  // step: a prefix scan whose operator keeps the earlier value on ties
  // (max_ps(later, earlier)), seeded with m in every lane. Seeding maps
  // a NaN score to m (MAXPS returns its second operand on NaN) and dead
  // lanes scan as -inf, so neither ever wins and no scanned value is NaN.
  const __m512 neg_inf = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  const __m512 m_old = _mm512_set1_ps(*m);
  __m512 run = _mm512_max_ps(_mm512_mask_mov_ps(neg_inf, live, w), m_old);
  run = _mm512_max_ps(run, shift_up<1>(run, neg_inf));
  run = _mm512_max_ps(run, shift_up<2>(run, neg_inf));
  run = _mm512_max_ps(run, shift_up<4>(run, neg_inf));
  run = _mm512_max_ps(run, shift_up<8>(run, neg_inf));
  const __m512 prev = shift_up<1>(run, m_old);  // the max before each edge

  // softmax_push's exp arguments: (prev - run, w - run), and (0, -inf)
  // for a -inf score on a still-empty row.
  const __mmask16 empty = _mm512_mask_cmp_ps_mask(
      _mm512_cmp_ps_mask(w, neg_inf, _CMP_EQ_OQ), prev, neg_inf, _CMP_EQ_OQ);
  const __m512 alpha_arg =
      _mm512_mask_mov_ps(_mm512_sub_ps(prev, run), empty, _mm512_setzero_ps());
  const __m512 beta_arg = _mm512_mask_mov_ps(_mm512_sub_ps(w, run), empty, neg_inf);
  alignas(64) float alpha[kTileRows];
  alignas(64) float beta[kTileRows];
  _mm512_store_ps(alpha, exp16(alpha_arg));
  _mm512_store_ps(beta, exp16(beta_arg));

  float lv = *l;
  for (Index b = 0; b < count; ++b) {
    lv = alpha[b] == 1.0f ? lv + beta[b] : lv * alpha[b] + beta[b];
  }
  *l = lv;
  // Dead lanes scan as -inf, so the last lane holds the last edge's max.
  *m = _mm512_cvtss_f32(_mm512_permutexvar_ps(_mm512_set1_epi32(kTileRows - 1), run));

  // Column blocks outside, edges inside: acc is loaded and stored once
  // per tile, and every lane still sees axpy's or axpby's update, edge
  // by edge in order. Four blocks (64 columns) at a time, so four FMA
  // chains overlap, then one block at a time.
  Index base = 0;
  for (; n - base > 3 * kLanes; base += 4 * kLanes) {
    fold_blocks<4>(acc, alpha, beta, v, count, base, block_mask(base + 3 * kLanes, n));
  }
  for (; base < n; base += kLanes) {
    fold_blocks<1>(acc, alpha, beta, v, count, base, block_mask(base, n));
  }
}

float dot_h(const half_t* a, const half_t* b, Index n) noexcept {
  __m512 s = _mm512_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm512_fmadd_ps(load_h16(a + base), load_h16(b + base), s);
  }
  if (base < n) {
    const Index r = n - base;
    s = _mm512_fmadd_ps(load_h_tail(a + base, r), load_h_tail(b + base, r), s);
  }
  return reduce_add16(s);
}

float dot_fh(const float* a, const half_t* b, Index n) noexcept {
  __m512 s = _mm512_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm512_fmadd_ps(_mm512_loadu_ps(a + base), load_h16(b + base), s);
  }
  if (base < n) {
    const Index r = n - base;
    const __m512 av = _mm512_maskz_loadu_ps(tail_mask(r), a + base);
    s = _mm512_fmadd_ps(av, load_h_tail(b + base, r), s);
  }
  return reduce_add16(s);
}

void axpby_h(float* acc, float alpha, float beta, const half_t* v, Index n) noexcept {
  const __m512 va = _mm512_set1_ps(alpha);
  const __m512 vb = _mm512_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m512 accv = _mm512_loadu_ps(acc + base);
    _mm512_storeu_ps(acc + base,
                     _mm512_fmadd_ps(accv, va, _mm512_mul_ps(vb, load_h16(v + base))));
  }
  if (base < n) {
    const Index r = n - base;
    const __mmask16 m = tail_mask(r);
    const __m512 accv = _mm512_maskz_loadu_ps(m, acc + base);
    _mm512_mask_storeu_ps(
        acc + base, m, _mm512_fmadd_ps(accv, va, _mm512_mul_ps(vb, load_h_tail(v + base, r))));
  }
}

void axpy_h(float* acc, float beta, const half_t* v, Index n) noexcept {
  const __m512 vb = _mm512_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m512 accv = _mm512_loadu_ps(acc + base);
    _mm512_storeu_ps(acc + base, _mm512_fmadd_ps(vb, load_h16(v + base), accv));
  }
  if (base < n) {
    const Index r = n - base;
    const __mmask16 m = tail_mask(r);
    const __m512 accv = _mm512_maskz_loadu_ps(m, acc + base);
    _mm512_mask_storeu_ps(acc + base, m,
                          _mm512_fmadd_ps(vb, load_h_tail(v + base, r), accv));
  }
}

void h2f(float* dst, const half_t* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm512_storeu_ps(dst + base, load_h16(src + base));
  }
  if (base < n) {
    const Index r = n - base;
    _mm512_mask_storeu_ps(dst + base, tail_mask(r), load_h_tail(src + base, r));
  }
}

void f2h(half_t* dst, const float* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256i h = _mm512_cvtps_ph(_mm512_loadu_ps(src + base), _MM_FROUND_TO_NEAREST_INT);
    std::memcpy(static_cast<void*>(dst + base), &h, sizeof h);
  }
  if (base < n) {
    const Index r = n - base;
    const __m512 v = _mm512_maskz_loadu_ps(tail_mask(r), src + base);
    alignas(32) std::uint16_t buf[16];
    const __m256i h = _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), h);
    std::memcpy(static_cast<void*>(dst + base), buf,
                static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  }
}

}  // namespace

const VecOps kAvx512Ops = {dot,    axpby,  axpy,    scale,  reduce_max,
                           reduce_sum, exp, fold_tile,
                           dot_h,  dot_fh, axpby_h, axpy_h, h2f, f2h};

}  // namespace gpa::simd::detail
