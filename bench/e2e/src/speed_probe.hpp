#pragma once
// The host-speed probe: a fixed amount of the benchmark's own work,
// timed between slices of every timed phase. It is sparse attention
// written here, not the program's: one pass over a local window and one
// over random columns, on every core, over inputs that never change. Its
// time therefore follows how fast a shared host is running (other
// tenants' load on the cores and memory, clock speed), not what the
// program does, and latencies are scaled by it (see README, "Speed
// adjustment").

#include <cstdint>
#include <vector>

namespace e2e {

/// Typical probe time on the host the bounds were set on (4-vCPU x86-64,
/// AVX-512, OpenMP; per-run medians there ranged 15.7-19.4 ms). Adjusted
/// latencies are in milliseconds at that speed.
inline constexpr double kProbeReferenceMs = 17.0;

class SpeedProbe {
 public:
  SpeedProbe();

  /// Times one probe (milliseconds). The probe is a row of short units,
  /// each split statically over every core; its time is the median unit
  /// time times the number of units, so a brief stall of one core drops
  /// out while a sustained slowdown shows.
  double run_ms();

 private:
  std::vector<float> q_, k_;             ///< kRows × kDim each
  std::vector<std::uint32_t> random_;    ///< kRows × kRandomCols sorted columns
  double checksum_ = 0.0;                ///< keeps the work observable
};

}  // namespace e2e
