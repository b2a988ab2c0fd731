#pragma once
// SIMD dispatch level. Lives in its own dependency-free header so
// parallel/exec_policy.hpp can carry a per-call override without pulling
// the vector-ops layer into every translation unit.

#include <cstdint>

namespace gpa {

/// Which arm of the SIMD dispatch a call should take. Every arm computes
/// the same bits (the lane contract in simd/simd.hpp), so a level picks
/// speed, never a result. Levels above Scalar form a total order (each
/// adds ISA requirements on top of the previous); a request the build or
/// CPU cannot honour is silently clamped DOWN to the best available
/// level at or below it (check simd::resolve() to detect the clamp).
///  * Auto    — resolve at runtime: forced level, then the GPA_SIMD env
///              var if set, otherwise the best level this build + CPU
///              supports.
///  * Scalar  — portable scalar reference path (always compiled); the
///              contract's FMAs are std::fma calls.
///  * Avx2Fma — AVX2 + FMA + F16C, the 16 contract lanes as two 8-lane
///              halves.
///  * Avx512  — 16-lane AVX-512F with FMA.
enum class SimdLevel : std::uint8_t {
  Auto,
  Scalar,
  Avx2Fma,
  Avx512,
};

}  // namespace gpa
