#pragma once
// Machine-readable kernel benchmark output (bench_simd_kernels →
// BENCH_kernels.json). Every record is one (kernel, SIMD level, shape)
// cell with its median runtime and derived throughput, so kernel
// trajectories can be diffed instead of read off console tables.

#include <string>
#include <vector>

#include "common/types.hpp"

namespace gpa::benchutil {

struct KernelBenchRecord {
  std::string kernel;  ///< e.g. "csr_online_softmax"
  /// Dispatch arm the cell ACTUALLY ran under, after the silent clamp
  /// ("scalar"/"avx2-fma"/"avx512").
  std::string simd;
  /// Arm the sweep REQUESTED for this cell. On a host lacking the ISA,
  /// simd != simd_requested and the cell is a visible clamped record
  /// rather than an absent one — trajectory diffs can tell "slower"
  /// from "didn't run" without knowing the recording machine.
  std::string simd_requested;
  Index seq_len = 0;
  Index head_dim = 0;
  double median_s = 0.0;
  double gbytes_per_s = 0.0;   ///< estimated traffic / median
  double gflops_per_s = 0.0;   ///< estimated flop count / median
};

/// Writes `{schema: "gpa-bench-kernels/v3", parallel_backend,
/// hw_threads, records}` (v2 added per-record simd_requested next to the
/// resolved simd; v3 added the recording host's hardware threads).
/// Throws InvalidArgument when the file cannot be opened.
void write_kernel_bench_json(const std::string& path,
                             const std::vector<KernelBenchRecord>& records,
                             const std::string& parallel_backend_name, int hw_threads);

}  // namespace gpa::benchutil
