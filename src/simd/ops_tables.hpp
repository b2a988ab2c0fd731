#pragma once
// Internal linkage point between the dispatcher and the per-arm
// translation units. Not part of the public simd API.

#include "simd/simd.hpp"

namespace gpa::simd::detail {

/// The tile ops of an arm that does not specialise them: its own `dot`,
/// `axpy` and `axpby`, one row at a time — which is their contract.
template <float (*Dot)(const float*, const float*, Index) noexcept>
void dot_rows_by_row(const float* q, const float* const* rows, Index count, Index n,
                     float* out) noexcept {
  for (Index b = 0; b < count; ++b) out[b] = Dot(q, rows[b], n);
}

template <void (*Axpy)(float*, float, const float*, Index) noexcept,
          void (*Axpby)(float*, float, float, const float*, Index) noexcept>
void fold_rows_by_row(float* acc, const float* alpha, const float* beta,
                      const float* const* rows, Index count, Index n) noexcept {
  for (Index b = 0; b < count; ++b) {
    if (alpha[b] == 1.0f) {
      Axpy(acc, beta[b], rows[b], n);
    } else {
      Axpby(acc, alpha[b], beta[b], rows[b], n);
    }
  }
}

/// Portable scalar reference arm (simd_scalar.cpp — compiled with
/// auto-vectorization off so the differential baseline is honest).
extern const VecOps kScalarOps;

#if defined(GPA_SIMD_AVX2)
/// Bitwise AVX2 arm (simd_avx2.cpp — built with -mavx2 -mf16c and
/// -ffp-contract=off; pinned bit-identical to the scalar arm).
extern const VecOps kAvx2Ops;
#endif

#if defined(GPA_SIMD_AVX2_FMA)
/// Relaxed AVX2+FMA arm (simd_avx2_fma.cpp — -mavx2 -mfma -mf16c,
/// explicit fused multiply-adds; ULP-bounded vs scalar).
extern const VecOps kAvx2FmaOps;
#endif

#if defined(GPA_SIMD_AVX512)
/// Relaxed AVX-512 arm (simd_avx512.cpp — -mavx512f, 16 lanes with FMA;
/// ULP-bounded vs scalar).
extern const VecOps kAvx512Ops;
#endif

}  // namespace gpa::simd::detail
