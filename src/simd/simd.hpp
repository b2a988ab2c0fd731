#pragma once
// Runtime-dispatched vector primitives for the d-dimension inner loops.
//
// Every hot kernel reduces to a few row operations: a Q·K dot product,
// the online-softmax accumulator update acc = alpha*acc + beta*v, a
// rescale, the max/sum reductions of the softmax passes, and the
// softmax exp. One tile operation, fold_tile, folds up to kTileRows K/V
// rows of one query row whole: the dots, the scale and gate, the
// running max, both exps, l and the ordered accumulator updates. Its
// contract is bit for bit: on every arm it equals the edge-by-edge
// composition of that arm's own `dot`, `exp`, `axpy` and `axpby`
// through softmax_push (NaN payloads aside). A tile changes how much
// work one call does, never a rounding. This layer provides those
// primitives behind a function-pointer table with four arms:
//
//  * scalar   — the always-compiled portable reference (compiled with
//    auto-vectorization disabled so "scalar" means scalar),
//  * avx2     — 8-lane AVX2 + F16C intrinsics, no FMA contraction,
//    compiled into a dedicated translation unit with -mavx2 -mf16c,
//  * avx2-fma — the same 8-lane shape with fused multiply-adds in the
//    dot / accumulate kernels (-mavx2 -mfma -mf16c), and
//  * avx512   — 16-lane AVX-512F with FMA (-mavx512f), behind the
//    GPA_ENABLE_AVX512 CMake gate.
// The library itself stays runnable on any x86-64; arms are picked at
// runtime (cpuid + GPA_SIMD env + ExecPolicy::simd), and an unavailable
// request clamps down to the best level at or below it.
//
// THE EXP: `exp` is the program's only softmax exp (reference_attention
// keeps std::exp as the independent oracle). It is one lane definition,
// written as scalar code in ops_tables.hpp (exp_lane) and mirrored op
// for op by every vector arm: clamp with MINPS/MAXPS semantics, n =
// round-to-nearest-even(x·log2e) through the 1.5·2^23 shifter, a
// two-constant ln2 reduction, Cephes' degree-5 polynomial, and a
// two-step 2^n scale so a subnormal result rounds once. It has no lanes,
// no reductions and no FMA (every vector TU is built with
// -ffp-contract=off), so it has THE SAME BITS ON EVERY ARM, in both
// parity classes below, and stays within 1 ULP of the correctly rounded
// exp (tests/test_exp_exhaustive.cpp checks all 2^32 inputs).
//
// PARITY CLASSES (load-bearing for the differential test harness):
//
// BITWISE arms — scalar and avx2. Both compute reductions under THE
// LANE CONTRACT: eight partial accumulators in lane order (lane l
// accumulates elements l, l+8, l+16, ...), a masked tail block, and the
// same pairwise reduction tree
//     t_l = op(s_l, s_{l+4});  u_0 = op(t_0, t_2); u_1 = op(t_1, t_3);
//     result = op(u_0, u_1)
// with no FMA contraction anywhere (both units are built with
// -ffp-contract=off). Element-wise ops use the same expression shape and
// operand order in both arms. Consequence: the scalar and AVX2 arms are
// bit-identical on every input, which tests/test_simd_parity.cpp pins
// down and which keeps the bit-exact gates (decode-vs-kernel, cluster
// oracle, exec-matrix determinism) independent of the dispatch decision
// between the bitwise arms.
//
// RELAXED arms — avx2-fma and avx512. An FMA rounds a·b+c once where
// the contract rounds twice, and 16 lanes reassociate every reduction,
// so these arms CANNOT be bitwise vs scalar; each is instead (a) still
// deterministic — the same inputs on the same arm give the same bits,
// run-to-run and schedule-to-schedule — and (b) ULP-bounded against the
// scalar reference, with bounds derived per reduction length in
// tests/test_simd_parity.cpp. Bit-exact gates must run on a bitwise arm
// (they force one); throughput paths take the relaxed arms by default.
// exp, scale, reduce_max, h2f and f2h do no reassociated additions and
// no FMA, so they stay bitwise across all four arms.
//
// FP16 ops: arithmetic is always float — half values are widened on
// load (exactly: binary16 -> binary32 is lossless, in software and in
// VCVTPH2PS) and accumulated in fp32, so the half dot/accumulate ops on
// the bitwise arms are ALSO bit-identical to each other. f2h narrows
// with round-to-nearest-even, matching common/half.hpp's software
// converter bit-for-bit (test_half_exhaustive pins software == F16C).

#include <string_view>
#include <vector>

#include "common/half.hpp"
#include "common/types.hpp"
#include "simd/simd_level.hpp"

namespace gpa::simd {

/// Most edges one fold_tile call takes: one avx512 transposed reduction
/// turns sixteen dot accumulators into sixteen scores.
inline constexpr Index kTileRows = 16;

/// An arm's elementwise exp (VecOps::exp).
using ExpFn = void (*)(float* dst, const float* src, Index n) noexcept;

/// The dispatch table. All pointers are non-null for every arm.
/// Reductions over n == 0 return the operation identity (0 for sum/dot,
/// -inf for max). NaN propagation in reduce_max follows x86 MAXPS
/// semantics ("a > b ? a : b" per lane) in every arm.
struct VecOps {
  /// Σ a[i]·b[i] under the lane contract.
  float (*dot)(const float* a, const float* b, Index n) noexcept;
  /// acc[i] = acc[i]·alpha + beta·v[i] (the online-softmax row update).
  void (*axpby)(float* acc, float alpha, float beta, const float* v, Index n) noexcept;
  /// acc[i] += beta·v[i] (rescale-free fast path when the max is unchanged).
  void (*axpy)(float* acc, float beta, const float* v, Index n) noexcept;
  /// x[i] *= s.
  void (*scale)(float* x, float s, Index n) noexcept;
  /// max over x under the lane contract; -inf for an empty range.
  float (*reduce_max)(const float* x, Index n) noexcept;
  /// Σ x[i] under the lane contract.
  float (*reduce_sum)(const float* x, Index n) noexcept;
  /// dst[i] = exp(src[i]) under the exp lane definition above: the same
  /// bits on every arm; at most 1 ULP from the correctly rounded value;
  /// exp(±0) == 1, exp(-inf) == +0, exp(+inf) == +inf, NaN stays NaN,
  /// and inputs beyond the clamps give +inf or +0. dst may equal src.
  void (*exp)(float* dst, const float* src, Index n) noexcept;
  /// Folds edges b = 0..count-1 (count <= kTileRows) of one query row q
  /// into its running (*m, *l) and unnormalised accumulator acc[0..n):
  /// score w_b = dot(q, k[b], n) · scale (· gate[b] when gate is not
  /// null), then softmax_push over the scores with this arm's `exp`,
  /// then for each edge in order axpy(acc, beta_b, v[b], n) when alpha_b
  /// == 1, else axpby(acc, alpha_b, beta_b, v[b], n). Bit for bit that
  /// composition, NaN payloads aside.
  void (*fold_tile)(const float* q, const float* const* k, const float* const* v,
                    const float* gate, Index count, Index n, float scale, float* m, float* l,
                    float* acc) noexcept;

  // --- fp16 storage ops (widen to float, compute in fp32) ------------
  /// Σ widen(a[i])·widen(b[i]) — the half-instantiation Q·K dot.
  float (*dot_h)(const half_t* a, const half_t* b, Index n) noexcept;
  /// Σ a[i]·widen(b[i]) — float query against half-width KV pages.
  float (*dot_fh)(const float* a, const half_t* b, Index n) noexcept;
  /// acc[i] = acc[i]·alpha + beta·widen(v[i]) (fp32 accumulator).
  void (*axpby_h)(float* acc, float alpha, float beta, const half_t* v, Index n) noexcept;
  /// acc[i] += beta·widen(v[i]).
  void (*axpy_h)(float* acc, float beta, const half_t* v, Index n) noexcept;
  /// dst[i] = widen(src[i]) (exact).
  void (*h2f)(float* dst, const half_t* src, Index n) noexcept;
  /// dst[i] = narrow(src[i]) (round-to-nearest-even; identical bits on
  /// every arm, so fp16 page payloads are dispatch-independent).
  void (*f2h)(half_t* dst, const float* src, Index n) noexcept;
};

/// The online-softmax step of one row over scores s[0..n), n <=
/// kTileRows, in score order, with `exp` the arm's VecOps::exp. Per
/// score, with m the running max before it:
///   m_new = s > m ? s : m,  alpha = exp(m - m_new),  beta = exp(s - m_new),
///   l = l·alpha + beta (l + beta when alpha == 1: l·1 == l exactly),
///   m = m_new
/// except that a -inf score on a still-empty row (m == -inf) takes the
/// exp arguments (0, -inf) — m - m_new would be NaN — which give
/// exactly (1, 0). The exps come first, two calls over the whole tile,
/// then l in score order. Writes each score's alpha and beta. Defined
/// once (simd_scalar.cpp); every by-edge fold_tile and
/// OnlineSoftmaxRow::push_each go through it.
void softmax_push(ExpFn exp, const float* s, Index n, float& m, float& l, float* alpha,
                  float* beta) noexcept;

/// CPUID says this machine can execute AVX2 + F16C (the avx2 arm's half
/// ops use VCVTPH2PS/VCVTPS2PH; every AVX2-era core ships F16C).
bool cpu_supports_avx2() noexcept;
/// CPUID: AVX2 + FMA + F16C (the avx2-fma arm's ISA set).
bool cpu_supports_avx2_fma() noexcept;
/// CPUID: AVX-512 Foundation.
bool cpu_supports_avx512() noexcept;

/// This build carries the corresponding translation unit.
bool compiled_with_avx2() noexcept;
bool compiled_with_avx2_fma() noexcept;
bool compiled_with_avx512() noexcept;

/// The level Auto resolves to right now: the forced level if one is set,
/// else the GPA_SIMD environment variable (scalar|avx2|avx2-fma|avx512|
/// auto, read once; an unrecognised value warns once on stderr and falls
/// back to Auto), else the best level available under build + CPU
/// support.
SimdLevel active_level() noexcept;

/// Clamp a requested level to what this build + CPU can run: the best
/// available level at or below the request (Scalar is always honoured;
/// Auto resolves via active_level()). The clamp is silent by design —
/// callers that must know pin `resolve(x) == x` explicitly.
SimdLevel resolve(SimdLevel requested) noexcept;

/// True for the arms pinned bit-identical to the scalar reference
/// (Scalar, Avx2); false for the ULP-bounded relaxed arms. Auto is
/// classified by what it currently resolves to.
bool is_bitwise_level(SimdLevel level) noexcept;

/// Dispatch table for a level (resolved first).
const VecOps& ops(SimdLevel level) noexcept;

/// Every level this build + CPU can actually run, Scalar first, in
/// ascending level order — THE canonical SIMD axis for tests and
/// benchmarks to iterate (new arms only need to be added here to enter
/// every matrix). Includes the relaxed arms: iterators that require
/// bitwise parity must filter with is_bitwise_level().
std::vector<SimdLevel> available_levels();

/// Every level this build compiled an arm for, whether or not this CPU
/// can run it (diagnostics: `gpa_cli version`).
std::vector<SimdLevel> compiled_levels();

/// Process-wide override for tests and benchmarks: beats the environment
/// variable until cleared with force_level(SimdLevel::Auto). Explicit
/// per-call levels (ExecPolicy::simd != Auto) are unaffected.
void force_level(SimdLevel level) noexcept;

/// "auto" / "scalar" / "avx2" / "avx2-fma" / "avx512".
std::string_view level_name(SimdLevel level) noexcept;

/// Parse a level name as level_name() and the GPA_SIMD env var spell it.
/// Returns false (and leaves `out` untouched) for unrecognised names —
/// the env path warns and falls back to Auto on that signal.
bool parse_level(std::string_view name, SimdLevel& out) noexcept;

/// Name of the level Auto currently resolves to — reported next to
/// parallel_backend() in diagnostics and stamped into bench records.
std::string_view simd_backend() noexcept;

}  // namespace gpa::simd
