#pragma once
// Warmup/iteration benchmark runner. The paper's protocol is "ten warm
// up runs and then ... 15 timed runs" with the average reported (§V);
// defaults follow it, and every bench binary accepts flags to shrink the
// protocol for CPU-scale runs.

#include <functional>
#include <string>

#include "benchutil/stats.hpp"

namespace gpa::benchutil {

struct RunConfig {
  int warmup = 10;
  int iterations = 15;
};

/// Times `fn` under the protocol; returns wall-clock statistics in
/// seconds per iteration.
Stats run_benchmark(const std::function<void()>& fn, const RunConfig& cfg = {});

/// Shared command-line handling for the bench binaries:
///   --paper-scale     use the paper's full dimensions
///   --smoke           tiny shapes + 1 warmup / 2 iters (CTest tier2 gate)
///   --csv <path>      also write rows to a CSV file
///   --json <path>     also write machine-readable records (benchutil/json.hpp;
///                     only bench_simd_kernels writes them)
///   --warmup N --iters N   override the measurement protocol
struct BenchArgs {
  bool paper_scale = false;
  bool smoke = false;
  std::string csv_path;
  std::string json_path;
  RunConfig run;
};
BenchArgs parse_bench_args(int argc, char** argv, int default_warmup = 2,
                           int default_iters = 5);

}  // namespace gpa::benchutil
