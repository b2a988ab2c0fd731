// Scalar reference arm of the SIMD dispatch. This file doubles as the
// executable specification of the lane contract documented in simd.hpp:
// sixteen lane accumulators, one fused multiply-add per dot step,
// dead tail lanes holding the op identity, and the fixed reduction
// tree — exactly the data flow of the avx512 arm, one lane at a time.
// std::fma rounds once, like the vector arms' FMA instructions. On
// x86-64 this TU is built without an FMA instruction, so every std::fma
// is a libm call: this arm is the reference, not a fast path, and
// nothing in src/ forces it. The CMake rules compile it with
// auto-vectorization and FP contraction disabled, so "scalar" is a true
// scalar baseline for the differential harness.
// It also holds softmax_push, the one online-softmax step every by-edge
// fold goes through (simd.hpp): this TU is built for the baseline ISA,
// so every arm can call it.

#include <cmath>
#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

constexpr Index kLanes = 16;
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Mirror of x86 MAXPS: a > b ? a : b (returns b on unordered and for
/// equal/signed-zero operands, matching the instruction).
inline float maxps(float a, float b) noexcept { return a > b ? a : b; }

/// p[i] widened to float, or +0 for a dead lane (i >= n).
template <typename T>
inline float lane(const T* p, Index i, Index n) noexcept {
  return i < n ? static_cast<float>(p[i]) : 0.0f;
}

/// The contract's reduction tree over s[0..16) with `op` at every node:
/// high 8 op low 8, high 4 op low 4, [0] op [2] and [1] op [3], then
/// [0] op [1] — the first operand as avx512's instructions take it.
template <typename Op>
inline float reduce_tree(float* s, Op op) noexcept {
  for (int l = 0; l < 8; ++l) s[l] = op(s[8 + l], s[l]);
  for (int l = 0; l < 4; ++l) s[l] = op(s[4 + l], s[l]);
  return op(op(s[0], s[2]), op(s[1], s[3]));
}

inline float reduce_tree_add(float* s) noexcept {
  return reduce_tree(s, [](float a, float b) { return a + b; });
}

/// Σ widen(a[i])·widen(b[i]): dot, dot_h and dot_fh. Every block,
/// the tail included, is one fma per lane; a dead lane adds
/// fma(0, 0, s).
template <typename A, typename B>
float dot(const A* a, const B* b, Index n) noexcept {
  float s[kLanes] = {};
  for (Index base = 0; base < n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      s[l] = std::fma(lane(a, base + l, n), lane(b, base + l, n), s[l]);
    }
  }
  return reduce_tree_add(s);
}

template <typename V>
void axpby(float* acc, float alpha, float beta, const V* v, Index n) noexcept {
  for (Index i = 0; i < n; ++i) acc[i] = std::fma(acc[i], alpha, beta * static_cast<float>(v[i]));
}

template <typename V>
void axpy(float* acc, float beta, const V* v, Index n) noexcept {
  for (Index i = 0; i < n; ++i) acc[i] = std::fma(beta, static_cast<float>(v[i]), acc[i]);
}

void scale(float* x, float s, Index n) noexcept {
  for (Index i = 0; i < n; ++i) x[i] = x[i] * s;
}

float reduce_max(const float* x, Index n) noexcept {
  float s[kLanes];
  for (float& v : s) v = kNegInf;
  for (Index base = 0; base < n; base += kLanes) {
    // Dead tail lanes see -inf, the max identity.
    for (int l = 0; l < kLanes; ++l) s[l] = maxps(s[l], base + l < n ? x[base + l] : kNegInf);
  }
  return reduce_tree(s, maxps);
}

void exp(float* dst, const float* src, Index n) noexcept {
  for (Index i = 0; i < n; ++i) dst[i] = exp_lane(src[i]);
}

float reduce_sum(const float* x, Index n) noexcept {
  float s[kLanes] = {};
  for (Index base = 0; base < n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] = s[l] + lane(x, base + l, n);
  }
  return reduce_tree_add(s);
}

void h2f(float* dst, const half_t* src, Index n) noexcept {
  for (Index i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i]);
}

void f2h(half_t* dst, const float* src, Index n) noexcept {
  for (Index i = 0; i < n; ++i) dst[i] = half_t(src[i]);
}

}  // namespace

const VecOps kScalarOps = {dot<float, float>,
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
