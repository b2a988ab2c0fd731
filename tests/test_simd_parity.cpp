// Differential harness pinning every dispatch arm to the scalar
// reference. All arms run one lane contract (src/simd/simd.hpp), so each
// is checked against scalar at 0 ULP, bit for bit (NaN == NaN whatever
// its payload; +0 and -0 differ), over inputs chosen to stress the lane
// machinery: head dims 1..67 (every remainder-lane count), fully-masked
// rows, ±inf score overflow of either sign, denormal magnitudes, signed
// zeros and NaNs in every lane. The fp16 ops are held to the same
// standard: h->f widening is exact and f->h is round-to-nearest-even on
// every arm. Golden hashes of four long-context kernels pin the bits
// across builds as well as across arms.

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
#include "common/fnv1a.hpp"
#include "common/rng.hpp"
#include "core/composed.hpp"
#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/spmm_attention.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "sparse/presets.hpp"
#include "tensor/gemm.hpp"
#include "tensor/softmax.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The same bits, NaN payloads aside (so +0 and -0 differ).
bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

void expect_same_matrix(const Matrix<float>& ref, const Matrix<float>& got, const char* tag) {
  ASSERT_TRUE(ref.same_shape(got));
  for (Index i = 0; i < ref.rows(); ++i) {
    for (Index j = 0; j < ref.cols(); ++j) {
      ASSERT_TRUE(same_bits(ref(i, j), got(i, j)))
          << tag << " row " << i << " col " << j << ": ref=" << ref(i, j) << " got=" << got(i, j);
    }
  }
}

/// Every tail-lane count of the 16-lane contract (1..15), the edges of
/// one to four full blocks, and the paper's d=64.
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

/// Runs `call(opts, out)` under every dispatch arm and compares each
/// against scalar bit for bit.
template <typename CallFn>
void expect_arm_parity(Index L, Index d, const CallFn& call) {
  Matrix<float> scalar_out(L, d);
  AttentionOptions opts;
  opts.policy = ExecPolicy::serial();
  opts.policy.simd = SimdLevel::Scalar;
  call(opts, scalar_out);
  for (const SimdLevel level : simd::available_levels()) {
    if (level == SimdLevel::Scalar) continue;
    Matrix<float> arm_out(L, d);
    opts.policy.simd = level;
    call(opts, arm_out);
    expect_same_matrix(scalar_out, arm_out, simd::level_name(level).data());
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

std::vector<half_t> narrow(const std::vector<float>& src) {
  std::vector<half_t> out(src.size());
  if (!src.empty()) {
    simd::ops(SimdLevel::Scalar).f2h(out.data(), src.data(), static_cast<Index>(src.size()));
  }
  return out;
}

/// Input shapes for the primitive differential, each aimed at one corner
/// of the lane contract.
enum class InputProfile {
  Uniform,           ///< (-0.5, 0.5)
  HalfDenormal,      ///< ×1e-6: fp16 inputs in the half-denormal band
  Denormal,          ///< ×1e-40: float products in the denormal floor
  MixedOverflow,     ///< ×1e20: dot lanes overflow to +inf and -inf
  PositiveOverflow,  ///< every element 3e38: dots and sums overflow to +inf
  SignedZeros,       ///< drawn from {+0, -0, -1, -2}: max picks among zeros
  NanLanes           ///< Uniform with a NaN on every 11th element
};
constexpr InputProfile kInputProfiles[] = {
    InputProfile::Uniform,          InputProfile::HalfDenormal, InputProfile::Denormal,
    InputProfile::MixedOverflow,    InputProfile::PositiveOverflow,
    InputProfile::SignedZeros,      InputProfile::NanLanes};

std::vector<float> profile_buffer(InputProfile profile, Index n, std::uint64_t seed) {
  const auto size = static_cast<std::size_t>(n);
  switch (profile) {
    case InputProfile::Uniform: return random_buffer(n, seed, 1.0f);
    case InputProfile::HalfDenormal: return random_buffer(n, seed, 1e-6f);
    case InputProfile::Denormal: return random_buffer(n, seed, 1e-40f);
    case InputProfile::MixedOverflow: return random_buffer(n, seed, 1e20f);
    case InputProfile::PositiveOverflow: return std::vector<float>(size, 3e38f);
    case InputProfile::SignedZeros: {
      constexpr float kValues[] = {0.0f, -0.0f, -1.0f, -2.0f};
      Rng rng(seed);
      std::vector<float> out(size);
      for (float& x : out) x = kValues[rng.next_index(0, 4)];
      return out;
    }
    case InputProfile::NanLanes: {
      // The seed shifts the NaNs, so the two buffers of a call hold them
      // at different elements, and stride 11 walks them through every
      // lane as n grows.
      std::vector<float> out = random_buffer(n, seed, 1.0f);
      for (std::size_t i = 0; i < size; ++i) {
        if ((i + seed) % 11 == 0) out[i] = std::numeric_limits<float>::quiet_NaN();
      }
      return out;
    }
  }
  return {};
}

void expect_same_elems(const std::vector<float>& ref, const std::vector<float>& got,
                       const char* op) {
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(same_bits(ref[i], got[i])) << op << " elem " << i << ": " << ref[i] << " vs "
                                           << got[i];
  }
}

TEST(SimdPrimitives, AllOpsBitwiseEqualAcrossLengthsAndMagnitudes) {
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    for (const InputProfile profile : kInputProfiles) {
      for (Index n = 0; n <= 67; ++n) {
        SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level)
                                        << " profile=" << static_cast<int>(profile) << " n=" << n);
        const auto a = profile_buffer(profile, n, 900 + static_cast<std::uint64_t>(n));
        const auto b = profile_buffer(profile, n, 1900 + static_cast<std::uint64_t>(n));
        const auto ah = narrow(a);
        const auto bh = narrow(b);
        const auto expect_same = [](float ref, float got, const char* op) {
          EXPECT_TRUE(same_bits(ref, got)) << op << ": " << ref << " vs " << got;
        };
        expect_same(scalar.dot(a.data(), b.data(), n), vo.dot(a.data(), b.data(), n), "dot");
        expect_same(scalar.reduce_sum(a.data(), n), vo.reduce_sum(a.data(), n), "reduce_sum");
        expect_same(scalar.reduce_max(a.data(), n), vo.reduce_max(a.data(), n), "reduce_max");
        expect_same(scalar.reduce_max(b.data(), n), vo.reduce_max(b.data(), n), "reduce_max");
        expect_same(scalar.dot_h(ah.data(), bh.data(), n), vo.dot_h(ah.data(), bh.data(), n),
                    "dot_h");
        expect_same(scalar.dot_fh(a.data(), bh.data(), n), vo.dot_fh(a.data(), bh.data(), n),
                    "dot_fh");

        auto acc_s = b, acc_v = b;
        scalar.axpby(acc_s.data(), 0.25f, 1.75f, a.data(), n);
        vo.axpby(acc_v.data(), 0.25f, 1.75f, a.data(), n);
        expect_same_elems(acc_s, acc_v, "axpby");
        scalar.axpy(acc_s.data(), -0.5f, a.data(), n);
        vo.axpy(acc_v.data(), -0.5f, a.data(), n);
        expect_same_elems(acc_s, acc_v, "axpy");
        scalar.scale(acc_s.data(), 3.0f, n);
        vo.scale(acc_v.data(), 3.0f, n);
        expect_same_elems(acc_s, acc_v, "scale");
        acc_s = a;
        acc_v = a;
        scalar.axpby_h(acc_s.data(), 0.25f, 1.75f, bh.data(), n);
        vo.axpby_h(acc_v.data(), 0.25f, 1.75f, bh.data(), n);
        expect_same_elems(acc_s, acc_v, "axpby_h");
        scalar.axpy_h(acc_s.data(), -0.5f, bh.data(), n);
        vo.axpy_h(acc_v.data(), -0.5f, bh.data(), n);
        expect_same_elems(acc_s, acc_v, "axpy_h");
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
  // mode behind the fully-masked-row regression below).
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

TEST(SimdPrimitives, ConvertOpsBitwiseAcrossAllArms) {
  // h2f is an exact widening and f2h rounds to nearest-even on every
  // arm, so fp16 page payloads never depend on the dispatch decision.
  // Pin all arms against scalar.
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
        expect_same_elems(w_ref, w_got, "h2f");
      }
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

void expect_same_row(const OnlineSoftmaxRow& ref_osr, const std::vector<float>& ref_acc,
                     const OnlineSoftmaxRow& osr, const std::vector<float>& acc) {
  ASSERT_TRUE(same_bits(osr.m, ref_osr.m)) << "m " << osr.m << " vs " << ref_osr.m;
  ASSERT_TRUE(same_bits(osr.l, ref_osr.l)) << "l " << osr.l << " vs " << ref_osr.l;
  for (std::size_t c = 0; c < acc.size(); ++c) {
    ASSERT_TRUE(same_bits(acc[c], ref_acc[c])) << "col " << c << ": " << acc[c] << " vs "
                                               << ref_acc[c];
  }
}

/// The tile fold on every arm equals the edge-at-a-time fold on the
/// scalar arm at 0 ULP, and a row folded as two shards equals the row
/// folded at once.
template <typename Q, typename KV>
void check_tile_fold_grid(const char* type_name) {
  const simd::VecOps& scalar = simd::ops(SimdLevel::Scalar);
  for (const Index d : head_dims()) {
    for (const ScoreProfile profile : kProfiles) {
      const TileRow r = make_tile_row(d, profile, 5000 + static_cast<std::uint64_t>(d));
      const std::vector<Q> q = as<Q>(r.q);
      const std::vector<KV> k = as<KV>(r.k);
      const std::vector<KV> v = as<KV>(r.v);
      for (const Index edges : {0, 1, 15, 16, 17, 31, 33, 100}) {
        for (const bool gated : {false, true}) {
          const auto zero = std::vector<float>(static_cast<std::size_t>(d), 0.0f);
          std::vector<float> ref_acc = zero;
          OnlineSoftmaxRow ref_osr;
          for (Index j = 0; j < edges; ++j) {
            const auto off = static_cast<std::size_t>(j * d);
            fold_edge(q.data(), k.data() + off, v.data() + off, d, r.scale,
                      r.gate[static_cast<std::size_t>(j)], gated, ref_osr, ref_acc.data(), scalar);
          }
          for (const SimdLevel level : simd::available_levels()) {
            SCOPED_TRACE(testing::Message()
                         << type_name << " level=" << simd::level_name(level) << " d=" << d
                         << " profile=" << static_cast<int>(profile) << " edges=" << edges
                         << " gated=" << gated);
            const simd::VecOps& vo = simd::ops(level);
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
  // (exact) and runs the plain float fold on the scalar arm: every arm
  // must reproduce it bit for bit (the lane contract runs over identical
  // widened values).
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
      expect_same_row(osr_ref, acc_ref, tile.osr, acc);
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
  // The two spmm_attention stages in isolation, so a divergence is
  // attributed to the stage, not the pipeline. Row lengths sweep the
  // remainder-lane counts (row i of the widening local mask holds
  // min(i+1, window) entries); every arm must equal scalar bit for bit.
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
    ExecPolicy scalar_policy = ExecPolicy::serial();
    scalar_policy.simd = SimdLevel::Scalar;
    Csr<float> scalar_scores = scores;
    csr_row_softmax(scalar_scores, scalar_policy);
    for (const SimdLevel level : simd::available_levels()) {
      SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level));
      ExecPolicy policy = ExecPolicy::serial();
      policy.simd = level;
      Csr<float> arm_scores = scores;
      csr_row_softmax(arm_scores, policy);
      expect_same_elems(scalar_scores.values, arm_scores.values, "csr_row_softmax");

      for (const Index d : {Index{1}, Index{7}, Index{16}, Index{67}}) {
        SCOPED_TRACE(testing::Message() << "d=" << d);
        const auto in = make_inputs(L, d, 650 + static_cast<std::uint64_t>(d));
        Matrix<float> scalar_out(L, d), arm_out(L, d);
        spmm(scalar_scores, in.v, scalar_out, scalar_policy);
        spmm(scalar_scores, in.v, arm_out, policy);
        expect_same_matrix(scalar_out, arm_out, "spmm");
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
      Matrix<float> c_scalar(m, n);
      ExecPolicy p = ExecPolicy::serial();
      p.simd = SimdLevel::Scalar;
      transposed ? gemm_nt(a, bt, c_scalar, p) : gemm_nn(a, b, c_scalar, p);
      for (const SimdLevel level : simd::available_levels()) {
        Matrix<float> c_arm(m, n);
        p.simd = level;
        transposed ? gemm_nt(a, bt, c_arm, p) : gemm_nn(a, b, c_arm, p);
        expect_same_matrix(c_scalar, c_arm, simd::level_name(level).data());
      }
    }
  }
}

// --- Extreme numerics --------------------------------------------------

TEST(SimdKernelParity, InfiniteScoresFromOverflowingDots) {
  // Inputs around ±1e20: d=64 dots overflow to ±inf after scaling, and
  // mixed-sign lanes reach +inf, -inf or inf-inf NaN. Every arm runs the
  // same lanes in the same order, so the online softmax walks the same
  // ±inf branches on all of them.
  const Index L = 32;
  for (const Index d : {Index{9}, Index{64}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 700 + static_cast<std::uint64_t>(d), 1e20f);
    const auto mask = build_csr_random(L, RandomParams{0.4, 19});
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      csr_attention(in.q, in.k, in.v, mask, out, opts);
    });
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      baselines::flash_attention(in.q, in.k, in.v, out, opts);
    });
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
  // The zero-row convention is exact on every arm: no neighbors means no
  // arithmetic at all.
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

// --- Golden hashes: the same bits in every build ----------------------

/// FNV-1a over the output's float bit patterns, row by row.
std::uint64_t output_hash(const Matrix<float>& out) {
  Fnv1a f;
  for (Index i = 0; i < out.rows(); ++i) {
    for (Index j = 0; j < out.cols(); ++j) {
      std::uint32_t bits;
      std::memcpy(&bits, out.row(i) + j, sizeof bits);
      f.mix(bits);
    }
  }
  return f.h;
}

TEST(SimdGoldenHashes, LongContextKernelsHashTheSameOnEveryArm) {
  // The long-context benchmark's four kernels at L = 512: Longformer and
  // BigBird composed, dilated-1D and a random CSR mask. Every arm must
  // give the same bytes, and those bytes must hash to the constants
  // below in every build shape (SIMD off, AVX-512 TU off, Debug,
  // sanitizers, any forced arm). The constants hold for x86-64 builds:
  // on other targets a compiler may contract a·b+c into an FMA in the
  // code outside src/simd, so there only the cross-arm equality is
  // checked.
  const Index L = 512, d = 64;
  Matrix<float> q(L, d), k(L, d), v(L, d);
  Rng rng(1);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  const ComposedMask longformer = make_longformer(L, 16, 4);
  const ComposedMask bigbird = make_bigbird(L, 8, 4, 8.0 / L, rng.next_u64());
  const Csr<float> random = build_csr_random(L, RandomParams{16.0 / L, rng.next_u64()});
  const Dilated1DParams dilated = make_dilated1d(64, 3);
  const auto run = [&](int kernel, const AttentionOptions& opts, Matrix<float>& out) {
    switch (kernel) {
      case 0: composed_attention(q, k, v, longformer, out, opts); break;
      case 1: composed_attention(q, k, v, bigbird, out, opts); break;
      case 2: dilated1d_attention(q, k, v, dilated, out, opts); break;
      default: csr_attention(q, k, v, random, out, opts); break;
    }
  };
  // {longformer, bigbird, dilated, csr_random}, non-causal then causal.
  constexpr std::uint64_t kGolden[2][4] = {
      {0xc72387e9471383cbull, 0xe84e31caf8eb002eull, 0x44a63c378a664183ull, 0x640ae591061fd58cull},
      {0xf3de571f33949aa5ull, 0xc386bd6696b23c17ull, 0x6bc48b34fa016b64ull, 0xecfb7c95882a8ab1ull}};
  for (const bool causal : {false, true}) {
    for (int kernel = 0; kernel < 4; ++kernel) {
      SCOPED_TRACE(testing::Message() << "kernel=" << kernel << " causal=" << causal);
      AttentionOptions opts;
      opts.causal = causal;
      opts.policy.simd = SimdLevel::Scalar;
      Matrix<float> scalar_out(L, d);
      run(kernel, opts, scalar_out);
#if defined(__x86_64__) || defined(_M_X64)
      EXPECT_EQ(output_hash(scalar_out), kGolden[causal][kernel]);
#endif
      for (const SimdLevel level : simd::available_levels()) {
        if (level == SimdLevel::Scalar) continue;
        opts.policy.simd = level;
        Matrix<float> out(L, d);
        run(kernel, opts, out);
        expect_same_matrix(scalar_out, out, simd::level_name(level).data());
      }
    }
  }
}

// --- Dispatch plumbing -------------------------------------------------

TEST(SimdDispatch, ResolveClampsToAvailability) {
  EXPECT_EQ(simd::resolve(SimdLevel::Scalar), SimdLevel::Scalar);
  EXPECT_NE(simd::resolve(SimdLevel::Auto), SimdLevel::Auto);

  // Levels clamp DOWN, never up, and never to Auto: a forced avx512
  // request on an AVX2-only host runs the best arm at or below the
  // request instead of crashing or silently upgrading.
  const SimdLevel fma = simd::resolve(SimdLevel::Avx2Fma);
  if (simd::compiled_with_avx2_fma() && simd::cpu_supports_avx2_fma()) {
    EXPECT_EQ(fma, SimdLevel::Avx2Fma);
  } else {
    EXPECT_EQ(fma, SimdLevel::Scalar);
  }
  const SimdLevel a512 = simd::resolve(SimdLevel::Avx512);
  if (simd::compiled_with_avx512() && simd::cpu_supports_avx512()) {
    EXPECT_EQ(a512, SimdLevel::Avx512);
  } else {
    EXPECT_EQ(a512, fma);
  }
}

TEST(SimdDispatch, LevelEnumeration) {
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
  for (const SimdLevel l :
       {SimdLevel::Auto, SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512}) {
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
  // of UB or a silent scalar downgrade. "avx2" is unknown too: every
  // vector arm uses FMA.
  out = SimdLevel::Avx512;
  EXPECT_FALSE(simd::parse_level("bogus", out));
  EXPECT_FALSE(simd::parse_level("avx-512", out));
  EXPECT_FALSE(simd::parse_level("sse", out));
  EXPECT_FALSE(simd::parse_level("avx2", out));
  EXPECT_EQ(out, SimdLevel::Avx512);
}

TEST(SimdDispatch, ForceLevelOverridesAutoButNotExplicit) {
  const SimdLevel before = simd::active_level();
  simd::force_level(SimdLevel::Scalar);
  EXPECT_EQ(simd::active_level(), SimdLevel::Scalar);
  EXPECT_EQ(simd::resolve(SimdLevel::Auto), SimdLevel::Scalar);
  // An explicit per-call request is not affected by the global force.
  EXPECT_EQ(simd::resolve(SimdLevel::Avx512), simd::available_levels().back());
  simd::force_level(SimdLevel::Auto);
  EXPECT_EQ(simd::active_level(), before);
}

}  // namespace
}  // namespace gpa
