// Runtime CPU-feature dispatch for the SIMD layer: cpuid probe, GPA_SIMD
// environment override, process-wide forced level for tests/benchmarks,
// and the table lookup every kernel resolves through.
//
// Clamp semantics: levels are totally ordered (Scalar < Avx2Fma <
// Avx512) and a request the build or CPU cannot honour resolves to the
// BEST AVAILABLE level at or below it — e.g. Avx512 on an AVX2-only host
// runs the avx2-fma arm if compiled, else scalar. Every arm computes the
// same bits, so the clamp is silent (the knob picks speed, never a
// result); an unrecognised GPA_SIMD spelling is the one case that warns,
// once, because it means the operator asked for something that does not
// exist at all.

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "simd/ops_tables.hpp"

namespace gpa::simd {

namespace {

/// Forced level (tests/benchmarks); Auto means "not forced".
std::atomic<SimdLevel> g_forced{SimdLevel::Auto};

/// GPA_SIMD environment variable, parsed once. An unrecognised value
/// falls back to Auto WITH a one-time stderr warning — silently running
/// scalar because of a typo ("axv512") would be the worst failure mode
/// for a performance knob.
SimdLevel env_level() noexcept {
  static const SimdLevel cached = [] {
    const char* raw = std::getenv("GPA_SIMD");
    if (raw == nullptr) return SimdLevel::Auto;
    SimdLevel parsed = SimdLevel::Auto;
    if (!parse_level(raw, parsed)) {
      std::fprintf(stderr,
                   "gpa: unrecognised GPA_SIMD value \"%s\" "
                   "(expected scalar|avx2-fma|avx512|auto); using auto\n",
                   raw);
      return SimdLevel::Auto;
    }
    return parsed;
  }();
  return cached;
}

bool level_available(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Scalar: return true;
    case SimdLevel::Avx2Fma: return compiled_with_avx2_fma() && cpu_supports_avx2_fma();
    case SimdLevel::Avx512: return compiled_with_avx512() && cpu_supports_avx512();
    case SimdLevel::Auto: break;
  }
  return false;
}

/// The ordered axis the clamp walks (descending).
constexpr SimdLevel kDescending[] = {SimdLevel::Avx512, SimdLevel::Avx2Fma, SimdLevel::Scalar};

/// Best available level at or below `cap` (Scalar is always available,
/// so this never fails).
SimdLevel clamp_down(SimdLevel cap) noexcept {
  for (const SimdLevel l : kDescending) {
    if (static_cast<std::uint8_t>(l) <= static_cast<std::uint8_t>(cap) && level_available(l)) {
      return l;
    }
  }
  return SimdLevel::Scalar;
}

}  // namespace

bool cpu_supports_avx2_fma() noexcept {
#if (defined(__x86_64__) || defined(_M_X64)) && (defined(__GNUC__) || defined(__clang__))
  // The half ops need F16C. Every AVX2 CPU ever shipped has it, but
  // probe honestly anyway.
  return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0 &&
         __builtin_cpu_supports("f16c") != 0;
#else
  return false;
#endif
}

bool cpu_supports_avx512() noexcept {
#if (defined(__x86_64__) || defined(_M_X64)) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

bool compiled_with_avx2_fma() noexcept {
#if defined(GPA_SIMD_AVX2_FMA)
  return true;
#else
  return false;
#endif
}

bool compiled_with_avx512() noexcept {
#if defined(GPA_SIMD_AVX512)
  return true;
#else
  return false;
#endif
}

void force_level(SimdLevel level) noexcept { g_forced.store(level, std::memory_order_relaxed); }

SimdLevel active_level() noexcept {
  SimdLevel requested = g_forced.load(std::memory_order_relaxed);
  if (requested == SimdLevel::Auto) requested = env_level();
  if (requested == SimdLevel::Auto) requested = SimdLevel::Avx512;  // best available
  return clamp_down(requested);
}

SimdLevel resolve(SimdLevel requested) noexcept {
  if (requested == SimdLevel::Auto) return active_level();
  return clamp_down(requested);
}

const VecOps& ops(SimdLevel level) noexcept {
  switch (resolve(level)) {
#if defined(GPA_SIMD_AVX512)
    case SimdLevel::Avx512: return detail::kAvx512Ops;
#endif
#if defined(GPA_SIMD_AVX2_FMA)
    case SimdLevel::Avx2Fma: return detail::kAvx2FmaOps;
#endif
    default: return detail::kScalarOps;
  }
}

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel l : {SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512}) {
    if (level_available(l)) levels.push_back(l);
  }
  return levels;
}

std::vector<SimdLevel> compiled_levels() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (compiled_with_avx2_fma()) levels.push_back(SimdLevel::Avx2Fma);
  if (compiled_with_avx512()) levels.push_back(SimdLevel::Avx512);
  return levels;
}

std::string_view level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Auto: return "auto";
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Avx2Fma: return "avx2-fma";
    case SimdLevel::Avx512: return "avx512";
  }
  return "?";
}

bool parse_level(std::string_view name, SimdLevel& out) noexcept {
  std::string value(name);
  for (auto& c : value) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (value.empty() || value == "auto") {
    out = SimdLevel::Auto;
  } else if (value == "scalar") {
    out = SimdLevel::Scalar;
  } else if (value == "avx2-fma" || value == "avx2fma" || value == "fma") {
    out = SimdLevel::Avx2Fma;
  } else if (value == "avx512") {
    out = SimdLevel::Avx512;
  } else {
    return false;
  }
  return true;
}

std::string_view simd_backend() noexcept { return level_name(active_level()); }

}  // namespace gpa::simd
