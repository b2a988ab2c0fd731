// Differential harness pinning every dispatch arm to the scalar
// reference, by parity class (src/simd/simd.hpp):
//
//  * BITWISE arms (scalar, avx2): bit-identical on every input by the
//    lane contract. Asserted with ULP distance 0 over randomized shapes
//    chosen to stress the lane machinery — head dims 1..67 (every
//    remainder-lane count), fully-masked rows, ±inf score overflow, and
//    denormal magnitudes. The fp16 ops are in this class too: h->f
//    widening is exact, f->h is round-to-nearest-even on every arm.
//
//  * RELAXED arms (avx2-fma, avx512): FMA rounds a·b+c once where the
//    contract rounds twice, and 16 lanes reassociate reductions, so
//    these arms are held to DERIVED error bounds instead of bitwise
//    equality. The bounds come from the standard summation forward-
//    error model: any order of accumulating n rounded products p_i
//    lands within gamma_n·Σ|p_i| of the exact value, gamma_n = n·u
//    (u = 2^-24, first order), so two different orders differ by at
//    most 2·gamma_n·Σ|p_i|. The harness computes that bound per CALL —
//    per reduction length n and per input magnitude profile — plus a
//    tiny absolute slack for the denormal floor where relative bounds
//    vanish. Element-wise FMA updates (axpby) use the two-term analog
//    2u·(|alpha·acc| + |beta·v|). reduce_max, scale, h2f, and f2h do
//    no reassociated additions and stay BITWISE across all four arms.
//
// Kernel-level differentials run the same sweep per class: bitwise arms
// at ULP 0..2, relaxed arms under an empirical-but-stable kernel bound
// (each arm is deterministic by construction, so the observed distance
// is a property of the code, not the host — see kRelaxedKernelUlp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "baselines/flash_attention.hpp"
#include "baselines/sdp_masked.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/spmm_attention.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "tensor/gemm.hpp"
#include "tensor/softmax.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

bool avx2_arm_available() { return simd::resolve(SimdLevel::Avx2) == SimdLevel::Avx2; }

/// The relaxed arms this build + CPU can actually run (possibly empty —
/// every relaxed test degrades to vacuous-pass on an ISA-lacking host,
/// which is what lets the forced-level CI legs stay green anywhere).
const std::vector<SimdLevel>& relaxed_levels() {
  static const std::vector<SimdLevel> levels = [] {
    std::vector<SimdLevel> out;
    for (const SimdLevel l : simd::available_levels()) {
      if (!simd::is_bitwise_level(l)) out.push_back(l);
    }
    return out;
  }();
  return levels;
}

/// Maps a float onto the integer line so that adjacent representable
/// values differ by 1 (the standard monotone ULP embedding).
std::int64_t ulp_index(float x) {
  std::int32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits >= 0 ? bits : std::int64_t{std::numeric_limits<std::int32_t>::min()} - bits;
}

/// ULP distance with NaN == NaN (both arms must agree on where the
/// convention produces NaN, not on a particular payload).
std::int64_t ulp_diff(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (std::isnan(a) != std::isnan(b)) return std::numeric_limits<std::int64_t>::max();
  return std::abs(ulp_index(a) - ulp_index(b));
}

constexpr std::int64_t kMaxUlp = 2;

/// Kernel-level budget for the relaxed arms vs scalar. Score drift is a
/// few ULP (bounded by the summation model over 2·d-term dots), exp()
/// turns that into a matching relative error of each softmax weight,
/// and the normalized output is a convex combination of O(1) V rows —
/// so the observed distance stays in the tens of ULP across the whole
/// sweep. 64 gives ~4× headroom over what the current arms measure;
/// both arms are deterministic by construction, so the measurement is a
/// property of the code, not the host.
constexpr std::int64_t kRelaxedKernelUlp = 64;

/// Unit roundoff of binary32 (2^-24).
constexpr double kU = 5.9604644775390625e-8;
/// Absolute slack absorbing the denormal floor, where relative bounds
/// vanish (~70 denormal ULPs; smallest denormal is 1.4e-45).
constexpr double kDenormSlack = 1e-43;

void expect_matrices_ulp(const Matrix<float>& ref, const Matrix<float>& got,
                         std::int64_t max_ulp, const char* tag) {
  ASSERT_TRUE(ref.same_shape(got));
  for (Index i = 0; i < ref.rows(); ++i) {
    for (Index j = 0; j < ref.cols(); ++j) {
      const std::int64_t d = ulp_diff(ref(i, j), got(i, j));
      ASSERT_LE(d, max_ulp) << tag << " row " << i << " col " << j << ": ref=" << ref(i, j)
                            << " got=" << got(i, j);
    }
  }
}

void expect_matrices_close(const Matrix<float>& scalar, const Matrix<float>& avx2) {
  expect_matrices_ulp(scalar, avx2, kMaxUlp, "bitwise");
}

/// Every remainder-lane count at least twice, plus the paper's d=64.
const std::vector<Index>& head_dims() {
  static const std::vector<Index> dims = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                                          12, 13, 14, 15, 16, 17, 31, 32, 33, 48, 63,
                                          64, 65, 66, 67};
  return dims;
}

struct Inputs {
  Matrix<float> q, k, v;
};

Inputs make_inputs(Index L, Index d, std::uint64_t seed, float scale_factor = 1.0f) {
  Inputs in{Matrix<float>(L, d), Matrix<float>(L, d), Matrix<float>(L, d)};
  Rng rng(seed);
  fill_uniform(in.q, rng);
  fill_uniform(in.k, rng);
  fill_uniform(in.v, rng);
  if (scale_factor != 1.0f) {
    for (auto* m : {&in.q, &in.k}) {
      for (Index i = 0; i < L; ++i) {
        float* row = m->row(i);
        for (Index j = 0; j < d; ++j) row[j] *= scale_factor;
      }
    }
  }
  return in;
}

/// Runs `call(opts, out)` under every dispatch arm and compares against
/// scalar: bitwise arms at ≤kMaxUlp, relaxed arms at ≤kRelaxedKernelUlp.
/// `include_relaxed = false` restricts to the bitwise class, for inputs
/// (mixed-sign ±inf overflow) where reassociation changes which infinity
/// a dot lands on and no cross-class bound exists.
template <typename CallFn>
void expect_arm_parity(Index L, Index d, const CallFn& call, bool include_relaxed = true) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  Matrix<float> scalar_out(L, d);
  AttentionOptions opts;
  opts.policy = ExecPolicy::serial();
  opts.policy.simd = SimdLevel::Scalar;
  call(opts, scalar_out);
  for (const SimdLevel level : simd::available_levels()) {
    if (level == SimdLevel::Scalar) continue;
    if (!include_relaxed && !simd::is_bitwise_level(level)) continue;
    Matrix<float> arm_out(L, d);
    opts.policy.simd = level;
    call(opts, arm_out);
    const std::int64_t budget = simd::is_bitwise_level(level) ? kMaxUlp : kRelaxedKernelUlp;
    expect_matrices_ulp(scalar_out, arm_out, budget, simd::level_name(level).data());
  }
}

// --- Primitive parity (bitwise: the lane contract itself) --------------

std::vector<float> random_buffer(Index n, std::uint64_t seed, float mul) {
  Matrix<float> m(1, n > 0 ? n : 1);
  Rng rng(seed);
  fill_uniform(m, rng);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = (m(0, i) - 0.5f) * mul;
  return out;
}

TEST(SimdPrimitives, AllOpsBitwiseEqualAcrossLengthsAndMagnitudes) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  const auto& avx2 = simd::ops(SimdLevel::Avx2);
  // 1e-40 drives products into the denormal range, 1e20 drives dot
  // accumulations through ±inf overflow.
  for (const float mul : {1.0f, 1e-40f, 1e20f}) {
    for (Index n = 0; n <= 67; ++n) {
      const auto a = random_buffer(n, 900 + static_cast<std::uint64_t>(n), mul);
      const auto b = random_buffer(n, 1900 + static_cast<std::uint64_t>(n), mul);
      SCOPED_TRACE(testing::Message() << "n=" << n << " mul=" << mul);

      EXPECT_EQ(ulp_diff(scalar.dot(a.data(), b.data(), n), avx2.dot(a.data(), b.data(), n)), 0);
      EXPECT_EQ(ulp_diff(scalar.reduce_sum(a.data(), n), avx2.reduce_sum(a.data(), n)), 0);
      EXPECT_EQ(ulp_diff(scalar.reduce_max(a.data(), n), avx2.reduce_max(a.data(), n)), 0);

      auto acc_s = b, acc_v = b;
      scalar.axpby(acc_s.data(), 0.25f, 1.75f, a.data(), n);
      avx2.axpby(acc_v.data(), 0.25f, 1.75f, a.data(), n);
      for (Index i = 0; i < n; ++i) {
        EXPECT_EQ(ulp_diff(acc_s[static_cast<std::size_t>(i)], acc_v[static_cast<std::size_t>(i)]), 0);
      }
      acc_s = b;
      acc_v = b;
      scalar.axpy(acc_s.data(), -0.5f, a.data(), n);
      avx2.axpy(acc_v.data(), -0.5f, a.data(), n);
      scalar.scale(acc_s.data(), 3.0f, n);
      avx2.scale(acc_v.data(), 3.0f, n);
      for (Index i = 0; i < n; ++i) {
        EXPECT_EQ(ulp_diff(acc_s[static_cast<std::size_t>(i)], acc_v[static_cast<std::size_t>(i)]), 0);
      }
    }
  }
}

TEST(SimdPrimitives, ReductionIdentitiesOnEmptyInput) {
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    EXPECT_EQ(vo.dot(nullptr, nullptr, 0), 0.0f);
    EXPECT_EQ(vo.reduce_sum(nullptr, 0), 0.0f);
    EXPECT_EQ(vo.reduce_max(nullptr, 0), -kInf);
    EXPECT_EQ(vo.dot_h(nullptr, nullptr, 0), 0.0f);
    EXPECT_EQ(vo.dot_fh(nullptr, nullptr, 0), 0.0f);
  }
}

TEST(SimdPrimitives, ReduceMaxSeesTailBeyondFullBlocks) {
  // The maximum hidden in every tail position: a masked-load bug that
  // zeroes dead lanes would miss it (or fabricate a 0 max — the failure
  // mode behind the fully-masked-row regression below). reduce_max is
  // bitwise on every arm, relaxed included, so all arms run here.
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    for (Index n = 1; n <= 24; ++n) {
      std::vector<float> x(static_cast<std::size_t>(n), -5.0f);
      x[static_cast<std::size_t>(n - 1)] = -1.0f;
      EXPECT_EQ(vo.reduce_max(x.data(), n), -1.0f) << "n=" << n;
      std::vector<float> all_masked(static_cast<std::size_t>(n), -kInf);
      EXPECT_EQ(vo.reduce_max(all_masked.data(), n), -kInf) << "n=" << n;
    }
  }
}

// --- fp16 primitives: the bitwise class extends to half storage --------

std::vector<half_t> narrow(const std::vector<float>& src) {
  std::vector<half_t> out(src.size());
  if (!src.empty()) {
    simd::ops(SimdLevel::Scalar).f2h(out.data(), src.data(), static_cast<Index>(src.size()));
  }
  return out;
}

std::vector<float> widen(const std::vector<half_t>& src) {
  std::vector<float> out(src.size());
  if (!src.empty()) {
    simd::ops(SimdLevel::Scalar).h2f(out.data(), src.data(), static_cast<Index>(src.size()));
  }
  return out;
}

TEST(SimdPrimitives, Fp16OpsBitwiseEqualAcrossBitwiseArms) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  const auto& avx2 = simd::ops(SimdLevel::Avx2);
  // 1e-6 lands products in the half-denormal band, 8.0 keeps everything
  // normal; widening is exact either way, so the lane contract carries
  // the bitwise guarantee over to half storage unchanged.
  for (const float mul : {1.0f, 1e-6f, 8.0f}) {
    for (Index n = 0; n <= 67; ++n) {
      const auto af = random_buffer(n, 2900 + static_cast<std::uint64_t>(n), mul);
      const auto bf = random_buffer(n, 3900 + static_cast<std::uint64_t>(n), mul);
      const auto ah = narrow(af);
      const auto bh = narrow(bf);
      SCOPED_TRACE(testing::Message() << "n=" << n << " mul=" << mul);

      EXPECT_EQ(ulp_diff(scalar.dot_h(ah.data(), bh.data(), n), avx2.dot_h(ah.data(), bh.data(), n)),
                0);
      EXPECT_EQ(
          ulp_diff(scalar.dot_fh(af.data(), bh.data(), n), avx2.dot_fh(af.data(), bh.data(), n)),
          0);

      auto acc_s = af, acc_v = af;
      scalar.axpby_h(acc_s.data(), 0.25f, 1.75f, bh.data(), n);
      avx2.axpby_h(acc_v.data(), 0.25f, 1.75f, bh.data(), n);
      scalar.axpy_h(acc_s.data(), -0.5f, bh.data(), n);
      avx2.axpy_h(acc_v.data(), -0.5f, bh.data(), n);
      for (Index i = 0; i < n; ++i) {
        EXPECT_EQ(
            ulp_diff(acc_s[static_cast<std::size_t>(i)], acc_v[static_cast<std::size_t>(i)]), 0);
      }
    }
  }
}

TEST(SimdPrimitives, ConvertOpsBitwiseAcrossAllArms) {
  // h2f is an exact widening and f2h rounds to nearest-even on every
  // arm — including the relaxed ones — so fp16 page payloads never
  // depend on the dispatch decision. Pin all arms against scalar.
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    for (const float mul : {1.0f, 1e-6f, 1e6f}) {  // 1e6f overflows half -> ±inf
      for (Index n = 0; n <= 67; ++n) {
        SCOPED_TRACE(testing::Message()
                     << "level=" << simd::level_name(level) << " n=" << n << " mul=" << mul);
        const auto f = random_buffer(n, 4900 + static_cast<std::uint64_t>(n), mul);
        std::vector<half_t> h_ref(f.size()), h_got(f.size());
        if (n > 0) {
          scalar.f2h(h_ref.data(), f.data(), n);
          vo.f2h(h_got.data(), f.data(), n);
        }
        for (Index i = 0; i < n; ++i) {
          EXPECT_EQ(h_ref[static_cast<std::size_t>(i)].bits(),
                    h_got[static_cast<std::size_t>(i)].bits());
        }
        std::vector<float> w_ref(f.size()), w_got(f.size());
        if (n > 0) {
          scalar.h2f(w_ref.data(), h_ref.data(), n);
          vo.h2f(w_got.data(), h_ref.data(), n);
        }
        for (Index i = 0; i < n; ++i) {
          EXPECT_EQ(ulp_diff(w_ref[static_cast<std::size_t>(i)], w_got[static_cast<std::size_t>(i)]),
                    0);
        }
      }
    }
  }
}

// --- Relaxed arms: derived per-length error bounds ---------------------

/// Two different accumulation orders of n rounded products each land
/// within gamma_n·Σ|p_i| of the exact dot (gamma_n = n·u to first
/// order), so they differ by at most twice that, plus the denormal
/// floor. The bound is computed per call from the actual inputs —
/// this is the "per reduction length" derivation the header documents.
double dot_bound(const float* a, const float* b, Index n) {
  double mag = 0.0;
  for (Index i = 0; i < n; ++i) {
    mag += std::abs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
  }
  return 2.0 * static_cast<double>(n) * kU * mag + kDenormSlack;
}

double sum_bound(const float* x, Index n) {
  double mag = 0.0;
  for (Index i = 0; i < n; ++i) mag += std::abs(static_cast<double>(x[i]));
  return 2.0 * static_cast<double>(n) * kU * mag + kDenormSlack;
}

/// Element-wise two-term analog for acc·alpha + beta·v: one fused vs
/// two separate roundings differ by at most u·(|alpha·acc| + |beta·v|)
/// each way.
double fma_elem_bound(float acc, float alpha, float beta, float v) {
  return 2.0 * kU *
             (std::abs(static_cast<double>(acc) * alpha) +
              std::abs(static_cast<double>(beta) * v)) +
         kDenormSlack;
}

TEST(SimdPrimitives, RelaxedArmsWithinDerivedBounds) {
  if (relaxed_levels().empty()) GTEST_SKIP() << "no relaxed arm on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  for (const SimdLevel level : relaxed_levels()) {
    const auto& vo = simd::ops(level);
    // 1e-40 drives products into the denormal floor, 1e10 keeps partial
    // sums huge but finite (decisive overflow is its own test below).
    for (const float mul : {1.0f, 1e-40f, 1e10f}) {
      for (Index n = 0; n <= 67; ++n) {
        SCOPED_TRACE(testing::Message()
                     << "level=" << simd::level_name(level) << " n=" << n << " mul=" << mul);
        const auto a = random_buffer(n, 5900 + static_cast<std::uint64_t>(n), mul);
        const auto b = random_buffer(n, 6900 + static_cast<std::uint64_t>(n), mul);

        EXPECT_LE(std::abs(static_cast<double>(vo.dot(a.data(), b.data(), n)) -
                           static_cast<double>(scalar.dot(a.data(), b.data(), n))),
                  dot_bound(a.data(), b.data(), n));
        EXPECT_LE(std::abs(static_cast<double>(vo.reduce_sum(a.data(), n)) -
                           static_cast<double>(scalar.reduce_sum(a.data(), n))),
                  sum_bound(a.data(), n));
        // max and scale involve no reassociated additions: bitwise even
        // on the relaxed arms.
        EXPECT_EQ(ulp_diff(vo.reduce_max(a.data(), n), scalar.reduce_max(a.data(), n)), 0);
        auto x_s = a, x_v = a;
        scalar.scale(x_s.data(), 3.0f, n);
        vo.scale(x_v.data(), 3.0f, n);
        for (Index i = 0; i < n; ++i) {
          EXPECT_EQ(ulp_diff(x_s[static_cast<std::size_t>(i)], x_v[static_cast<std::size_t>(i)]),
                    0);
        }

        auto acc_s = b, acc_v = b;
        scalar.axpby(acc_s.data(), 0.25f, 1.75f, a.data(), n);
        vo.axpby(acc_v.data(), 0.25f, 1.75f, a.data(), n);
        for (Index i = 0; i < n; ++i) {
          const auto k = static_cast<std::size_t>(i);
          EXPECT_LE(std::abs(static_cast<double>(acc_v[k]) - static_cast<double>(acc_s[k])),
                    fma_elem_bound(b[k], 0.25f, 1.75f, a[k]));
        }
        acc_s = b;
        acc_v = b;
        scalar.axpy(acc_s.data(), -0.5f, a.data(), n);
        vo.axpy(acc_v.data(), -0.5f, a.data(), n);
        for (Index i = 0; i < n; ++i) {
          const auto k = static_cast<std::size_t>(i);
          EXPECT_LE(std::abs(static_cast<double>(acc_v[k]) - static_cast<double>(acc_s[k])),
                    fma_elem_bound(b[k], 1.0f, -0.5f, a[k]));
        }
      }
    }
    // fp16 ops: widening is exact, so the same dot bound applies over
    // the widened values.
    for (Index n = 0; n <= 67; ++n) {
      SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level) << " fp16 n=" << n);
      const auto af = random_buffer(n, 7900 + static_cast<std::uint64_t>(n), 4.0f);
      const auto bf = random_buffer(n, 8900 + static_cast<std::uint64_t>(n), 4.0f);
      const auto ah = narrow(af);
      const auto bh = narrow(bf);
      const auto aw = widen(ah);
      const auto bw = widen(bh);
      EXPECT_LE(std::abs(static_cast<double>(vo.dot_h(ah.data(), bh.data(), n)) -
                         static_cast<double>(scalar.dot_h(ah.data(), bh.data(), n))),
                dot_bound(aw.data(), bw.data(), n));
      EXPECT_LE(std::abs(static_cast<double>(vo.dot_fh(af.data(), bh.data(), n)) -
                         static_cast<double>(scalar.dot_fh(af.data(), bh.data(), n))),
                dot_bound(af.data(), bw.data(), n));
      auto acc_s = af, acc_v = af;
      scalar.axpby_h(acc_s.data(), 0.25f, 1.75f, bh.data(), n);
      vo.axpby_h(acc_v.data(), 0.25f, 1.75f, bh.data(), n);
      for (Index i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        EXPECT_LE(std::abs(static_cast<double>(acc_v[k]) - static_cast<double>(acc_s[k])),
                  fma_elem_bound(af[k], 0.25f, 1.75f, bw[k]));
      }
    }
  }
}

TEST(SimdPrimitives, RelaxedArmsAgreeOnDecisiveOverflow) {
  // All-positive inputs at 1e20: every accumulation order is monotone
  // increasing, so every arm lands on exactly +inf — no inf-inf NaNs,
  // no near-threshold rounding races. (MIXED-sign overflow is NOT an
  // across-class invariant: a reassociated sum can hit +inf and -inf in
  // different partials, so that case is pinned on the bitwise arms
  // only.)
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  for (const SimdLevel level : relaxed_levels()) {
    const auto& vo = simd::ops(level);
    for (Index n = 1; n <= 35; ++n) {
      std::vector<float> a(static_cast<std::size_t>(n), 1e20f);
      std::vector<float> b(static_cast<std::size_t>(n), 2e19f);
      SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level) << " n=" << n);
      EXPECT_EQ(scalar.dot(a.data(), b.data(), n), kInf);
      EXPECT_EQ(vo.dot(a.data(), b.data(), n), kInf);
      std::vector<float> big(static_cast<std::size_t>(n), 3e38f);
      EXPECT_EQ(scalar.reduce_sum(big.data(), n), n == 1 ? 3e38f : kInf);
      EXPECT_EQ(vo.reduce_sum(big.data(), n), n == 1 ? 3e38f : kInf);
    }
  }
}

// --- Tile fold: EdgeTile against the edge-at-a-time fold -------------

/// One element of the arm's exp.
float exp1(float x, const simd::VecOps& vo) {
  vo.exp(&x, &x, 1);
  return x;
}

struct Coeffs {
  float alpha, beta;
};

/// The online-softmax update written plainly, one score at a time with
/// both exps always taken and l = l·alpha + beta — so the oracle also
/// pins softmax_push's split into exp passes and an l pass, its (0,
/// -inf) exp arguments for the empty row and its l + beta shortcut.
Coeffs push_with_both_exps(OnlineSoftmaxRow& osr, float score, const simd::VecOps& vo) {
  if (score == -kInf && osr.m == -kInf) return {1.0f, 0.0f};
  const float m_new = score > osr.m ? score : osr.m;
  const float alpha = exp1(osr.m - m_new, vo);
  const float beta = exp1(score - m_new, vo);
  osr.l = osr.l * alpha + beta;
  osr.m = m_new;
  return {alpha, beta};
}

/// The edge-at-a-time fold, the oracle EdgeTile must equal: one dot, one
/// push and one accumulator update per edge, with the arm's own dot,
/// exp, axpy and axpby. Q/KV as in EdgeTile.
template <typename Q, typename KV>
void fold_edge(const Q* qi, const KV* kj, const KV* vj, Index d, float scale, float gate,
               bool use_gate, OnlineSoftmaxRow& osr, float* acc, const simd::VecOps& vo) {
  float w;
  if constexpr (std::is_same_v<KV, float>) {
    w = vo.dot(qi, kj, d);
  } else if constexpr (std::is_same_v<Q, float>) {
    w = vo.dot_fh(qi, kj, d);
  } else {
    w = vo.dot_h(qi, kj, d);
  }
  w *= scale;
  if (use_gate) w *= gate;
  const auto [alpha, beta] = push_with_both_exps(osr, w, vo);
  if constexpr (std::is_same_v<KV, float>) {
    if (alpha == 1.0f) {
      vo.axpy(acc, beta, vj, d);
    } else {
      vo.axpby(acc, alpha, beta, vj, d);
    }
  } else {
    if (alpha == 1.0f) {
      vo.axpy_h(acc, beta, vj, d);
    } else {
      vo.axpby_h(acc, alpha, beta, vj, d);
    }
  }
}

/// Score shapes of one row: each drives the fold down a different path.
enum class ScoreProfile {
  Random,
  Rising,
  Equal,
  LeadingNegInf,
  LeadingPosInf,
  LeadingNan,
  Denormal,
  MidTileSpecials,
  SignedZeros
};
constexpr ScoreProfile kProfiles[] = {
    ScoreProfile::Random,        ScoreProfile::Rising,        ScoreProfile::Equal,
    ScoreProfile::LeadingNegInf, ScoreProfile::LeadingPosInf, ScoreProfile::LeadingNan,
    ScoreProfile::Denormal,      ScoreProfile::MidTileSpecials, ScoreProfile::SignedZeros};
constexpr Index kMaxTileEdges = 100;

/// One row's inputs: query, kMaxTileEdges K/V rows and gates, shaped by
/// the profile. Rising makes every edge raise the running max (alpha <
/// 1 everywhere); Equal repeats one K row and one gate, so alpha == 1
/// after the first edge; the Leading* profiles put ±inf or NaN in the
/// first K row, so the first score is that value; Denormal scales the
/// scores into the subnormal range; MidTileSpecials puts -inf, NaN and
/// +inf, in turn, on every edge at lane 7 or 15 of a full tile (edges
/// 7, 15, 23, ...), after finite scores, where avx512's in-register
/// running-max scan treats them specially; SignedZeros zeroes q and
/// alternates the gates' signs, so gated scores are +0 and -0 in turn
/// and the running max must keep the earlier of two equal zeros.
struct TileRow {
  std::vector<float> q, k, v, gate;
  float scale;
};

TileRow make_tile_row(Index d, ScoreProfile profile, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(d);
  TileRow r;
  r.q = random_buffer(d, seed, 1.0f);
  r.k = random_buffer(kMaxTileEdges * d, seed + 1, 1.0f);
  r.v = random_buffer(kMaxTileEdges * d, seed + 2, 4.0f);
  r.gate = random_buffer(kMaxTileEdges, seed + 3, 1.0f);
  for (float& g : r.gate) g += 1.0f;  // (0.5, 1.5)
  r.scale = 1.0f / std::sqrt(static_cast<float>(d));
  switch (profile) {
    case ScoreProfile::Random: break;
    case ScoreProfile::Rising:
      // q in [0.5, 1] and k_j = noise/5 + j·q: consecutive dots differ
      // by at least d/4 against a noise of at most d/5.
      for (float& x : r.q) x = 0.75f + 0.5f * x;
      for (Index j = 0; j < kMaxTileEdges; ++j) {
        for (std::size_t c = 0; c < n; ++c) {
          float& x = r.k[static_cast<std::size_t>(j) * n + c];
          x = 0.2f * x + static_cast<float>(j) * r.q[c];
        }
      }
      break;
    case ScoreProfile::Equal:
      for (Index j = 1; j < kMaxTileEdges; ++j) {
        std::copy(r.k.begin(), r.k.begin() + static_cast<std::ptrdiff_t>(n),
                  r.k.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(j) * n));
      }
      std::fill(r.gate.begin(), r.gate.end(), 0.75f);
      break;
    case ScoreProfile::LeadingNegInf:
    case ScoreProfile::LeadingPosInf:
      r.q[0] = 1.0f;
      r.k[0] = profile == ScoreProfile::LeadingNegInf ? -kInf : kInf;
      break;
    case ScoreProfile::LeadingNan:
      r.k[0] = std::numeric_limits<float>::quiet_NaN();
      break;
    case ScoreProfile::Denormal:
      r.scale = 1e-40f;
      break;
    case ScoreProfile::SignedZeros:
      std::fill(r.q.begin(), r.q.end(), 0.0f);
      for (std::size_t j = 0; j < r.gate.size(); ++j) r.gate[j] = j % 3 == 1 ? -0.75f : 0.75f;
      break;
    case ScoreProfile::MidTileSpecials: {
      const float specials[] = {-kInf, std::numeric_limits<float>::quiet_NaN(), kInf};
      r.q[0] = 1.0f;
      for (Index j = 7; j < kMaxTileEdges; j += 8) {
        r.k[static_cast<std::size_t>(j) * n] = specials[(j / 8) % 3];
      }
      break;
    }
  }
  return r;
}

/// Folds edges [lo, hi) of a row into (osr, acc) through EdgeTile, one
/// flush at the end — one row's shard.
template <typename Q, typename KV>
void tile_fold(const Q* q, const std::vector<KV>& k, const std::vector<KV>& v,
               const std::vector<float>& gate, Index lo, Index hi, Index d, float scale,
               bool use_gate, OnlineSoftmaxRow& osr, float* acc, const simd::VecOps& vo) {
  detail::EdgeTile<Q, KV> tile(q, acc, osr, d, scale, use_gate, vo);
  for (Index j = lo; j < hi; ++j) {
    const auto off = static_cast<std::size_t>(j * d);
    tile.add(k.data() + off, v.data() + off, gate[static_cast<std::size_t>(j)]);
  }
  tile.flush();
  osr = tile.osr;
}

template <typename T>
std::vector<T> as(const std::vector<float>& x) {
  if constexpr (std::is_same_v<T, float>) {
    return x;
  } else {
    std::vector<half_t> out(x.size());
    simd::ops(SimdLevel::Scalar).f2h(out.data(), x.data(), static_cast<Index>(x.size()));
    return out;
  }
}

/// The same bits, NaN payloads aside (so +0 and -0 differ, unlike
/// ulp_diff).
bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

void expect_same_row(const OnlineSoftmaxRow& ref_osr, const std::vector<float>& ref_acc,
                     const OnlineSoftmaxRow& osr, const std::vector<float>& acc) {
  ASSERT_TRUE(same_bits(osr.m, ref_osr.m)) << "m " << osr.m << " vs " << ref_osr.m;
  ASSERT_TRUE(same_bits(osr.l, ref_osr.l)) << "l " << osr.l << " vs " << ref_osr.l;
  for (std::size_t c = 0; c < acc.size(); ++c) {
    ASSERT_TRUE(same_bits(acc[c], ref_acc[c])) << "col " << c << ": " << acc[c] << " vs "
                                               << ref_acc[c];
  }
}

/// The tile fold equals the edge-at-a-time fold at 0 ULP on every arm —
/// relaxed arms included, since both sides run the same arm — and a row
/// folded as two shards equals the row folded at once.
template <typename Q, typename KV>
void check_tile_fold_grid(const char* type_name) {
  for (const SimdLevel level : simd::available_levels()) {
    const simd::VecOps& vo = simd::ops(level);
    for (const Index d : head_dims()) {
      for (const ScoreProfile profile : kProfiles) {
        const TileRow r = make_tile_row(d, profile, 5000 + static_cast<std::uint64_t>(d));
        const std::vector<Q> q = as<Q>(r.q);
        const std::vector<KV> k = as<KV>(r.k);
        const std::vector<KV> v = as<KV>(r.v);
        for (const Index edges : {0, 1, 15, 16, 17, 31, 33, 100}) {
          for (const bool gated : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << type_name << " level=" << simd::level_name(level) << " d=" << d
                         << " profile=" << static_cast<int>(profile) << " edges=" << edges
                         << " gated=" << gated);
            const auto zero = std::vector<float>(static_cast<std::size_t>(d), 0.0f);
            std::vector<float> ref_acc = zero;
            OnlineSoftmaxRow ref_osr;
            for (Index j = 0; j < edges; ++j) {
              const auto off = static_cast<std::size_t>(j * d);
              fold_edge(q.data(), k.data() + off, v.data() + off, d, r.scale,
                        r.gate[static_cast<std::size_t>(j)], gated, ref_osr, ref_acc.data(), vo);
            }
            std::vector<float> acc = zero;
            OnlineSoftmaxRow osr;
            tile_fold(q.data(), k, v, r.gate, 0, edges, d, r.scale, gated, osr, acc.data(), vo);
            expect_same_row(ref_osr, ref_acc, osr, acc);
            for (const Index split : {Index{1}, Index{7}, edges / 2, edges - 5}) {
              if (split < 0 || split > edges) continue;
              SCOPED_TRACE(testing::Message() << "split=" << split);
              acc = zero;
              osr = OnlineSoftmaxRow{};
              tile_fold(q.data(), k, v, r.gate, 0, split, d, r.scale, gated, osr, acc.data(),
                        vo);
              tile_fold(q.data(), k, v, r.gate, split, edges, d, r.scale, gated, osr,
                        acc.data(), vo);
              expect_same_row(ref_osr, ref_acc, osr, acc);
            }
          }
        }
      }
    }
  }
}

TEST(SimdTileFold, FloatTileEqualsEdgeAtATimeFold) { check_tile_fold_grid<float, float>("f32"); }

TEST(SimdTileFold, HalfTileEqualsEdgeAtATimeFold) { check_tile_fold_grid<half_t, half_t>("f16"); }

TEST(SimdTileFold, HalfPageTileEqualsEdgeAtATimeFold) {
  check_tile_fold_grid<float, half_t>("f32 query, f16 K/V");
}

// --- fp16 fold parity: half pages vs the scalar-convert reference ------

TEST(SimdFp16Fold, MatchesScalarConvertReferenceAcrossArms) {
  // The decode path folds fp16 K/V pages through EdgeTile<float,
  // half_t>. The reference widens the SAME half payloads back to fp32
  // (exact) and runs the plain float fold on the scalar arm: bitwise
  // arms must reproduce it bit-for-bit (the lane contract runs over
  // identical widened values); relaxed arms stay inside the kernel ULP
  // budget.
  const Index kEdges = 20;
  for (const Index d : {Index{1}, Index{7}, Index{16}, Index{33}, Index{64}, Index{67}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(kEdges, d, 9900 + static_cast<std::uint64_t>(d));
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    // Narrow every K/V row to the half payloads a page would hold.
    std::vector<half_t> kh(static_cast<std::size_t>(kEdges * d));
    std::vector<half_t> vh(static_cast<std::size_t>(kEdges * d));
    const auto& scalar_ops = simd::ops(SimdLevel::Scalar);
    for (Index j = 0; j < kEdges; ++j) {
      scalar_ops.f2h(kh.data() + static_cast<std::size_t>(j * d), in.k.row(j), d);
      scalar_ops.f2h(vh.data() + static_cast<std::size_t>(j * d), in.v.row(j), d);
    }
    // Reference: exact widening, then the float fold on the scalar arm.
    Matrix<float> kw(kEdges, d), vw(kEdges, d);
    for (Index j = 0; j < kEdges; ++j) {
      scalar_ops.h2f(kw.row(j), kh.data() + static_cast<std::size_t>(j * d), d);
      scalar_ops.h2f(vw.row(j), vh.data() + static_cast<std::size_t>(j * d), d);
    }
    std::vector<float> acc_ref(static_cast<std::size_t>(d), 0.0f);
    OnlineSoftmaxRow osr_ref;
    for (Index j = 0; j < kEdges; ++j) {
      fold_edge(in.q.row(0), kw.row(j), vw.row(j), d, scale, 1.0f, false, osr_ref,
                acc_ref.data(), scalar_ops);
    }

    for (const SimdLevel level : simd::available_levels()) {
      SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level));
      const auto& vo = simd::ops(level);
      std::vector<float> acc(static_cast<std::size_t>(d), 0.0f);
      detail::EdgeTile<float, half_t> tile(in.q.row(0), acc.data(), {}, d, scale, false, vo);
      for (Index j = 0; j < kEdges; ++j) {
        tile.add(kh.data() + static_cast<std::size_t>(j * d),
                 vh.data() + static_cast<std::size_t>(j * d), 1.0f);
      }
      tile.flush();
      const std::int64_t budget = simd::is_bitwise_level(level) ? 0 : kRelaxedKernelUlp;
      EXPECT_LE(ulp_diff(tile.osr.m, osr_ref.m), budget);
      EXPECT_LE(ulp_diff(tile.osr.l, osr_ref.l), budget);
      for (Index i = 0; i < d; ++i) {
        ASSERT_LE(ulp_diff(acc[static_cast<std::size_t>(i)], acc_ref[static_cast<std::size_t>(i)]),
                  budget)
            << "col " << i;
      }
    }
  }
}

// --- Kernel differentials over the head-dim sweep ----------------------

TEST(SimdKernelParity, CsrRandomMaskAllHeadDims) {
  const Index L = 48;
  for (const Index d : head_dims()) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 200 + static_cast<std::uint64_t>(d));
    const auto mask = build_csr_random(L, RandomParams{0.3, 11});
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      csr_attention(in.q, in.k, in.v, mask, out, opts);
    });
  }
}

TEST(SimdKernelParity, SpmmAttentionWholePipeline) {
  // The two-phase spmm_attention path: all three stages now ride the
  // dispatched ops — SDDMM's Q·K dots, csr_row_softmax's max/sum/rescale
  // reductions, and the SpMM axpy accumulate — so whole-pipeline outputs
  // must agree across arms like the fused kernels do.
  const Index L = 48;
  for (const Index d : head_dims()) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 250 + static_cast<std::uint64_t>(d));
    const auto mask = build_csr_random(L, RandomParams{0.3, 19});
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      spmm_attention(in.q, in.k, in.v, mask, out, opts);
    });
  }
}

TEST(SimdKernelParity, CsrRowSoftmaxAndSpmmStagesBitwise) {
  // The two freshly-vectorized spmm_attention stages in isolation, so a
  // divergence is attributed to the stage, not the pipeline. Row
  // lengths sweep the remainder-lane counts (row i of the widening
  // local mask holds min(i+1, window) entries); both stages must be
  // BITWISE equal across arms by the lane contract.
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  const Index L = 40;
  for (const Index w : {Index{1}, Index{5}, Index{8}, Index{17}, Index{33}}) {
    SCOPED_TRACE(testing::Message() << "window=" << w);
    Csr<float> scores = build_csr_local(L, LocalParams{w});
    {
      Rng rng(600 + static_cast<std::uint64_t>(w));
      Matrix<float> vals(1, static_cast<Index>(scores.nnz()));
      fill_uniform(vals, rng);
      for (std::size_t k = 0; k < scores.values.size(); ++k) {
        scores.values[k] = (vals(0, static_cast<Index>(k)) - 0.5f) * 8.0f;
      }
    }
    Csr<float> scalar_scores = scores, avx2_scores = scores;
    ExecPolicy scalar_policy = ExecPolicy::serial();
    scalar_policy.simd = SimdLevel::Scalar;
    ExecPolicy avx2_policy = ExecPolicy::serial();
    avx2_policy.simd = SimdLevel::Avx2;
    csr_row_softmax(scalar_scores, scalar_policy);
    csr_row_softmax(avx2_scores, avx2_policy);
    for (std::size_t k = 0; k < scores.values.size(); ++k) {
      ASSERT_EQ(scalar_scores.values[k], avx2_scores.values[k]) << "softmax value " << k;
    }

    for (const Index d : {Index{1}, Index{7}, Index{16}, Index{67}}) {
      SCOPED_TRACE(testing::Message() << "d=" << d);
      const auto in = make_inputs(L, d, 650 + static_cast<std::uint64_t>(d));
      Matrix<float> scalar_out(L, d), avx2_out(L, d);
      spmm(scalar_scores, in.v, scalar_out, scalar_policy);
      spmm(scalar_scores, in.v, avx2_out, avx2_policy);
      for (Index i = 0; i < L; ++i) {
        for (Index j = 0; j < d; ++j) {
          ASSERT_EQ(scalar_out(i, j), avx2_out(i, j)) << "row " << i << " col " << j;
        }
      }
    }
  }
}

TEST(SimdKernelParity, CooBothSearches) {
  const Index L = 48;
  for (const Index d : {Index{7}, Index{32}, Index{65}}) {
    const auto in = make_inputs(L, d, 300 + static_cast<std::uint64_t>(d));
    const auto coo = csr_to_coo(build_csr_random(L, RandomParams{0.25, 13}));
    for (const CooSearch search : {CooSearch::Linear, CooSearch::Binary}) {
      SCOPED_TRACE(testing::Message() << "d=" << d << " search=" << static_cast<int>(search));
      expect_arm_parity(L, d, [&](AttentionOptions opts, Matrix<float>& out) {
        opts.coo_search = search;
        coo_attention(in.q, in.k, in.v, coo, out, opts);
      });
    }
  }
}

TEST(SimdKernelParity, LocalAndDilatedAndGlobal) {
  const Index L = 64;
  for (const Index d : {Index{3}, Index{16}, Index{33}, Index{67}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 400 + static_cast<std::uint64_t>(d));
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      local_attention(in.q, in.k, in.v, LocalParams{5}, out, opts);
    });
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      dilated1d_attention(in.q, in.k, in.v, Dilated1DParams{9, 2}, out, opts);
    });
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      dilated2d_attention(in.q, in.k, in.v, make_dilated2d(L, 8, 1), out, opts);
    });
    GlobalMinusLocalParams gp;
    gp.global = make_global({0, L / 2}, L);
    gp.local = make_local(3);
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      global_attention(in.q, in.k, in.v, gp, out, opts);
    });
  }
}

TEST(SimdKernelParity, FlashAndSdpBaselines) {
  const Index L = 48;
  for (const Index d : {Index{5}, Index{31}, Index{64}, Index{66}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 500 + static_cast<std::uint64_t>(d));
    for (const Index tile : {Index{7}, Index{16}, Index{48}, Index{100}}) {
      expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
        baselines::FlashConfig cfg;
        cfg.tile_cols = tile;
        baselines::flash_attention(in.q, in.k, in.v, out, opts, cfg);
      });
    }
    const auto dense = csr_to_dense(build_csr_random(L, RandomParams{0.4, 17}));
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      baselines::sdp_masked_attention(in.q, in.k, in.v, dense, out, opts);
    });
  }
}

TEST(SimdKernelParity, GemmBothOrientations) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  for (const auto& [m, k, n] : {std::tuple<Index, Index, Index>{9, 7, 11},
                               std::tuple<Index, Index, Index>{64, 64, 64},
                               std::tuple<Index, Index, Index>{65, 33, 67}}) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    Matrix<float> a(m, k), bt(n, k), b(k, n);
    Rng rng(600);
    fill_uniform(a, rng);
    fill_uniform(bt, rng);
    fill_uniform(b, rng);
    for (const bool transposed : {true, false}) {
      Matrix<float> c_scalar(m, n), c_avx2(m, n);
      ExecPolicy p = ExecPolicy::serial();
      p.simd = SimdLevel::Scalar;
      transposed ? gemm_nt(a, bt, c_scalar, p) : gemm_nn(a, b, c_scalar, p);
      p.simd = SimdLevel::Avx2;
      transposed ? gemm_nt(a, bt, c_avx2, p) : gemm_nn(a, b, c_avx2, p);
      expect_matrices_close(c_scalar, c_avx2);
    }
  }
}

// --- Extreme numerics --------------------------------------------------

TEST(SimdKernelParity, InfiniteScoresFromOverflowingDots) {
  // Inputs around ±1e20: d=64 dots overflow to ±inf after scaling, so
  // the online softmax walks its ±inf branches identically on both
  // bitwise arms. Relaxed arms are excluded: a reassociated mixed-sign
  // sum can land on a different infinity (or inf-inf NaN) than the
  // scalar order, so cross-class agreement is not an invariant here —
  // decisive monotone overflow is pinned for them in
  // RelaxedArmsAgreeOnDecisiveOverflow.
  const Index L = 32;
  for (const Index d : {Index{9}, Index{64}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 700 + static_cast<std::uint64_t>(d), 1e20f);
    const auto mask = build_csr_random(L, RandomParams{0.4, 19});
    expect_arm_parity(
        L, d,
        [&](const AttentionOptions& opts, Matrix<float>& out) {
          csr_attention(in.q, in.k, in.v, mask, out, opts);
        },
        /*include_relaxed=*/false);
    expect_arm_parity(
        L, d,
        [&](const AttentionOptions& opts, Matrix<float>& out) {
          baselines::flash_attention(in.q, in.k, in.v, out, opts);
        },
        /*include_relaxed=*/false);
  }
}

TEST(SimdKernelParity, DenormalScores) {
  const Index L = 32;
  const Index d = 13;  // exercises the 5-lane tail
  const auto in = make_inputs(L, d, 800, 1e-30f);
  const auto mask = build_csr_random(L, RandomParams{0.4, 23});
  expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
    csr_attention(in.q, in.k, in.v, mask, out, opts);
  });
}

// --- Masked-row conventions on the vector path -------------------------

TEST(SimdKernelParity, FullyMaskedRowsStayZeroOnBothArms) {
  const Index L = 24;
  const Index d = 13;
  const auto in = make_inputs(L, d, 900);
  // Rows ≡ 0 (mod 3) have no neighbors at all.
  const auto mask = build_csr_from_predicate(
      L, [](Index i, Index j) { return i % 3 != 0 && (i + j) % 4 == 0; });
  // The zero-row convention is exact on every arm, relaxed included:
  // no neighbors means no arithmetic at all.
  for (const SimdLevel level : simd::available_levels()) {
    AttentionOptions opts;
    opts.policy.simd = level;
    Matrix<float> out(L, d);
    out.fill(7.0f);  // poison
    csr_attention(in.q, in.k, in.v, mask, out, opts);
    for (Index i = 0; i < L; i += 3) {
      for (Index j = 0; j < d; ++j) {
        EXPECT_EQ(out(i, j), 0.0f) << "level=" << simd::level_name(level) << " row " << i;
      }
    }
  }
}

// Regression (satellite #3): softmax_rows on a fully-masked row whose
// width is not a multiple of the lane count. A tail handled by a plain
// masked load feeds 0.0f into the max reduction, the row max becomes 0
// instead of -inf, and the row silently turns into a uniform non-zero
// distribution — the scalar path only ever got this right because it
// never had dead lanes. The vector arm must seed dead lanes with -inf.
TEST(SimdSoftmaxRegression, FullyMaskedRowAllZeroOnVectorPath) {
  for (const SimdLevel level : simd::available_levels()) {
    for (const Index cols : {Index{3}, Index{8}, Index{13}, Index{16}, Index{21}}) {
      Matrix<float> s(3, cols);
      Rng rng(1000);
      fill_uniform(s, rng);
      for (Index j = 0; j < cols; ++j) s(1, j) = -kInf;  // fully-masked middle row
      softmax_rows(s, level);
      float live_sum = 0.0f;
      for (Index j = 0; j < cols; ++j) {
        EXPECT_EQ(s(1, j), 0.0f) << "level=" << simd::level_name(level) << " cols=" << cols;
        EXPECT_FALSE(std::isnan(s(0, j)));
        live_sum += s(0, j);
      }
      EXPECT_NEAR(live_sum, 1.0f, 1e-5f);
    }
  }
}

TEST(SimdSoftmaxRegression, FoldTileOfFullyMaskedScoresLeavesStateEmpty) {
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    OnlineSoftmaxRow osr;
    std::vector<float> tile(11, -kInf);
    const float alpha = online_softmax_fold_tile(osr, tile.data(), 11, vo);
    EXPECT_EQ(alpha, 1.0f);
    EXPECT_EQ(osr.m, -kInf);
    EXPECT_EQ(osr.l, 0.0f);
    for (const float p : tile) EXPECT_EQ(p, 0.0f);
    EXPECT_EQ(osr.inv_l(), 0.0f);  // finalisation zeroes the output row
  }
}

// --- Dispatch plumbing -------------------------------------------------

TEST(SimdDispatch, ResolveClampsToAvailability) {
  EXPECT_EQ(simd::resolve(SimdLevel::Scalar), SimdLevel::Scalar);
  const SimdLevel avx2 = simd::resolve(SimdLevel::Avx2);
  EXPECT_TRUE(avx2 == SimdLevel::Avx2 || avx2 == SimdLevel::Scalar);
  if (simd::compiled_with_avx2() && simd::cpu_supports_avx2()) {
    EXPECT_EQ(avx2, SimdLevel::Avx2);
  } else {
    EXPECT_EQ(avx2, SimdLevel::Scalar);
  }
  EXPECT_NE(simd::resolve(SimdLevel::Auto), SimdLevel::Auto);

  // The new tiers clamp DOWN, never up, and never to Auto: a forced
  // avx512 request on an AVX2-only host runs the best arm at or below
  // the request instead of crashing or silently upgrading.
  const SimdLevel fma = simd::resolve(SimdLevel::Avx2Fma);
  EXPECT_TRUE(fma == SimdLevel::Avx2Fma || fma == SimdLevel::Avx2 || fma == SimdLevel::Scalar);
  if (simd::compiled_with_avx2_fma() && simd::cpu_supports_avx2_fma()) {
    EXPECT_EQ(fma, SimdLevel::Avx2Fma);
  }
  const SimdLevel a512 = simd::resolve(SimdLevel::Avx512);
  EXPECT_NE(a512, SimdLevel::Auto);
  if (simd::compiled_with_avx512() && simd::cpu_supports_avx512()) {
    EXPECT_EQ(a512, SimdLevel::Avx512);
  } else {
    // Clamp lands at or below the request.
    EXPECT_TRUE(a512 == SimdLevel::Avx2Fma || a512 == SimdLevel::Avx2 ||
                a512 == SimdLevel::Scalar);
  }
}

TEST(SimdDispatch, ParityClassesAndLevelEnumeration) {
  // A level is classified by the arm it resolves to: without its vector
  // TU or ISA a relaxed level clamps down, possibly to a bitwise arm.
  for (const SimdLevel level :
       {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx2Fma, SimdLevel::Avx512}) {
    const SimdLevel arm = simd::resolve(level);
    EXPECT_EQ(simd::is_bitwise_level(level), arm == SimdLevel::Scalar || arm == SimdLevel::Avx2)
        << simd::level_name(level) << " resolves to " << simd::level_name(arm);
  }
  EXPECT_TRUE(simd::is_bitwise_level(SimdLevel::Scalar));
  EXPECT_TRUE(simd::is_bitwise_level(SimdLevel::Avx2));

  const auto avail = simd::available_levels();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), SimdLevel::Scalar);
  for (std::size_t i = 0; i < avail.size(); ++i) {
    // Available means runnable: every enumerated level resolves to
    // itself, and the list ascends strictly.
    EXPECT_EQ(simd::resolve(avail[i]), avail[i]);
    if (i > 0) {
      EXPECT_LT(static_cast<int>(avail[i - 1]), static_cast<int>(avail[i]));
    }
  }

  const auto compiled = simd::compiled_levels();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.front(), SimdLevel::Scalar);
  // Everything runnable was necessarily compiled.
  for (const SimdLevel l : avail) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), l), compiled.end())
        << simd::level_name(l);
  }
}

TEST(SimdDispatch, ParseLevelRoundTripsAndRejectsUnknown) {
  // Round trip: every enum value's canonical name parses back to it.
  for (const SimdLevel l : {SimdLevel::Auto, SimdLevel::Scalar, SimdLevel::Avx2,
                            SimdLevel::Avx2Fma, SimdLevel::Avx512}) {
    SimdLevel out = SimdLevel::Scalar;
    EXPECT_TRUE(simd::parse_level(simd::level_name(l), out)) << simd::level_name(l);
    EXPECT_EQ(out, l);
  }
  // Accepted aliases and case-insensitivity (the GPA_SIMD env spellings).
  SimdLevel out = SimdLevel::Scalar;
  EXPECT_TRUE(simd::parse_level("AVX2-FMA", out));
  EXPECT_EQ(out, SimdLevel::Avx2Fma);
  EXPECT_TRUE(simd::parse_level("avx2fma", out));
  EXPECT_EQ(out, SimdLevel::Avx2Fma);
  EXPECT_TRUE(simd::parse_level("fma", out));
  EXPECT_EQ(out, SimdLevel::Avx2Fma);
  EXPECT_TRUE(simd::parse_level("", out));
  EXPECT_EQ(out, SimdLevel::Auto);
  // Unknown names are rejected and leave `out` untouched — the env path
  // turns this signal into a one-time warning + Auto fallback instead
  // of UB or a silent scalar downgrade.
  out = SimdLevel::Avx2;
  EXPECT_FALSE(simd::parse_level("bogus", out));
  EXPECT_FALSE(simd::parse_level("avx-512", out));
  EXPECT_FALSE(simd::parse_level("sse", out));
  EXPECT_EQ(out, SimdLevel::Avx2);
}

TEST(SimdDispatch, ForceLevelOverridesAutoButNotExplicit) {
  const SimdLevel before = simd::active_level();
  simd::force_level(SimdLevel::Scalar);
  EXPECT_EQ(simd::active_level(), SimdLevel::Scalar);
  EXPECT_EQ(simd::resolve(SimdLevel::Auto), SimdLevel::Scalar);
  if (avx2_arm_available()) {
    // An explicit per-call request is not affected by the global force.
    EXPECT_EQ(simd::resolve(SimdLevel::Avx2), SimdLevel::Avx2);
  }
  simd::force_level(SimdLevel::Auto);
  EXPECT_EQ(simd::active_level(), before);
}

}  // namespace
}  // namespace gpa
