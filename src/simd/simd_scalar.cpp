// Scalar reference arm of the SIMD dispatch. This file doubles as the
// executable specification of the lane contract documented in simd.hpp:
// eight partial accumulators in lane order, a masked tail block, and a
// fixed pairwise reduction tree — exactly the data flow of the AVX2 arm,
// one lane at a time. The CMake rules compile this translation unit with
// auto-vectorization and FP contraction disabled, so "scalar" is a true
// scalar baseline for the differential harness and the bench trajectory.
// It also holds softmax_push, the one online-softmax step every by-edge
// fold goes through (simd.hpp): this TU is built for the baseline ISA,
// so every arm can call it.

#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

constexpr int kLanes = 8;

/// Mirror of x86 MAXPS: a > b ? a : b (returns b on unordered and for
/// equal/signed-zero operands, matching the instruction).
inline float maxps(float a, float b) noexcept { return a > b ? a : b; }

inline float reduce_tree_add(const float* s) noexcept {
  const float t0 = s[0] + s[4];
  const float t1 = s[1] + s[5];
  const float t2 = s[2] + s[6];
  const float t3 = s[3] + s[7];
  const float u0 = t0 + t2;
  const float u1 = t1 + t3;
  return u0 + u1;
}

inline float reduce_tree_max(const float* s) noexcept {
  const float t0 = maxps(s[0], s[4]);
  const float t1 = maxps(s[1], s[5]);
  const float t2 = maxps(s[2], s[6]);
  const float t3 = maxps(s[3], s[7]);
  const float u0 = maxps(t0, t2);
  const float u1 = maxps(t1, t3);
  return maxps(u0, u1);
}

float dot(const float* a, const float* b, Index n) noexcept {
  float s[kLanes] = {};
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] += a[base + l] * b[base + l];
  }
  if (base < n) {
    // Masked tail: dead lanes contribute an explicit +0.0f, like the
    // AVX2 arm's masked load (which yields zero products there).
    for (int l = 0; l < kLanes; ++l) {
      s[l] += base + l < n ? a[base + l] * b[base + l] : 0.0f;
    }
  }
  return reduce_tree_add(s);
}

void axpby(float* acc, float alpha, float beta, const float* v, Index n) noexcept {
  for (Index i = 0; i < n; ++i) acc[i] = acc[i] * alpha + beta * v[i];
}

void axpy(float* acc, float beta, const float* v, Index n) noexcept {
  for (Index i = 0; i < n; ++i) acc[i] = acc[i] + beta * v[i];
}

void scale(float* x, float s, Index n) noexcept {
  for (Index i = 0; i < n; ++i) x[i] = x[i] * s;
}

float reduce_max(const float* x, Index n) noexcept {
  float s[kLanes];
  for (int l = 0; l < kLanes; ++l) s[l] = -std::numeric_limits<float>::infinity();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] = maxps(s[l], x[base + l]);
  }
  if (base < n) {
    // Dead tail lanes see -inf (the max identity), like the AVX2 arm's
    // blend of the masked load.
    for (int l = 0; l < kLanes; ++l) {
      s[l] = maxps(s[l], base + l < n ? x[base + l]
                                      : -std::numeric_limits<float>::infinity());
    }
  }
  return reduce_tree_max(s);
}

void exp(float* dst, const float* src, Index n) noexcept {
  for (Index i = 0; i < n; ++i) dst[i] = exp_lane(src[i]);
}

float reduce_sum(const float* x, Index n) noexcept {
  float s[kLanes] = {};
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] += x[base + l];
  }
  if (base < n) {
    for (int l = 0; l < kLanes; ++l) s[l] += base + l < n ? x[base + l] : 0.0f;
  }
  return reduce_tree_add(s);
}

// --- fp16 storage ops ------------------------------------------------
// Widening binary16 -> binary32 is exact (every half value is a float),
// so these follow the same 8-lane contract as the float ops over the
// widened values and stay bit-identical to the AVX2 arm's F16C path:
// VCVTPH2PS performs the identical exact conversion.

float dot_h(const half_t* a, const half_t* b, Index n) noexcept {
  float s[kLanes] = {};
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      s[l] += static_cast<float>(a[base + l]) * static_cast<float>(b[base + l]);
    }
  }
  if (base < n) {
    for (int l = 0; l < kLanes; ++l) {
      s[l] += base + l < n
                  ? static_cast<float>(a[base + l]) * static_cast<float>(b[base + l])
                  : 0.0f;
    }
  }
  return reduce_tree_add(s);
}

float dot_fh(const float* a, const half_t* b, Index n) noexcept {
  float s[kLanes] = {};
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] += a[base + l] * static_cast<float>(b[base + l]);
  }
  if (base < n) {
    for (int l = 0; l < kLanes; ++l) {
      s[l] += base + l < n ? a[base + l] * static_cast<float>(b[base + l]) : 0.0f;
    }
  }
  return reduce_tree_add(s);
}

void axpby_h(float* acc, float alpha, float beta, const half_t* v, Index n) noexcept {
  for (Index i = 0; i < n; ++i) acc[i] = acc[i] * alpha + beta * static_cast<float>(v[i]);
}

void axpy_h(float* acc, float beta, const half_t* v, Index n) noexcept {
  for (Index i = 0; i < n; ++i) acc[i] = acc[i] + beta * static_cast<float>(v[i]);
}

void h2f(float* dst, const half_t* src, Index n) noexcept {
  for (Index i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i]);
}

void f2h(half_t* dst, const float* src, Index n) noexcept {
  for (Index i = 0; i < n; ++i) dst[i] = half_t(src[i]);
}

}  // namespace

const VecOps kScalarOps = {dot,    axpby,  axpy,   scale,  reduce_max,
                           reduce_sum, exp, fold_tile_by_edge<dot, exp, axpy, axpby>,
                           dot_h,  dot_fh, axpby_h, axpy_h, h2f, f2h};

}  // namespace gpa::simd::detail

namespace gpa::simd {

void softmax_push(ExpFn exp, const float* s, Index n, float& m, float& l, float* alpha,
                  float* beta) noexcept {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  // The exp arguments get their own arrays: alpha and beta are written
  // only by `exp`.
  float alpha_arg[kTileRows] = {};
  float beta_arg[kTileRows] = {};
  float run = m;
  for (Index b = 0; b < n; ++b) {
    const float m_new = s[b] > run ? s[b] : run;
    const bool empty = s[b] == kNegInf && run == kNegInf;
    alpha_arg[b] = empty ? 0.0f : run - m_new;
    beta_arg[b] = empty ? kNegInf : s[b] - m_new;
    run = m_new;
  }
  exp(alpha, alpha_arg, n);
  exp(beta, beta_arg, n);
  for (Index b = 0; b < n; ++b) l = alpha[b] == 1.0f ? l + beta[b] : l * alpha[b] + beta[b];
  m = run;
}

}  // namespace gpa::simd
