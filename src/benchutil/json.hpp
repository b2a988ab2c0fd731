#pragma once
// Machine-readable benchmark output. Every record is one (kernel, SIMD
// level, shape) cell with its median runtime and derived throughput, so
// future PRs can diff perf trajectories (BENCH_kernels.json) instead of
// eyeballing console tables.

#include <string>
#include <vector>

#include "common/types.hpp"

namespace gpa::benchutil {

struct KernelBenchRecord {
  std::string kernel;  ///< e.g. "csr_online_softmax"
  /// Dispatch arm the cell ACTUALLY ran under, after the silent clamp
  /// ("scalar"/"avx2"/"avx2-fma"/"avx512").
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

/// One cell of the serving throughput-vs-latency surface: a load
/// pattern (mode, clients or arrival rate) against one batching policy
/// (max_batch, max_wait) at a fixed worker count and workload shape.
struct ServingBenchRecord {
  std::string mode;  ///< "closed-loop" / "open-loop"
  Index seq_len = 0;
  Index head_dim = 0;
  double sparsity = 0.0;   ///< mask Sf (fig3 axis)
  int workers = 0;
  int clients = 0;         ///< closed-loop concurrency (0 for open-loop)
  double arrival_hz = 0.0; ///< open-loop offered load (0 for closed-loop)
  Index max_batch = 1;
  std::int64_t max_wait_us = 0;
  /// Hardware threads of the recording host. Committed trajectory files
  /// must self-identify their machine class: a 1-core CI recording of a
  /// batching sweep is a latency trace, not a scaling claim, and the
  /// reader should be able to tell without archaeology.
  int hw_threads = 0;
  Size completed = 0;
  Size rejected = 0;
  double wall_s = 0.0;
  double rps = 0.0;            ///< completed / wall
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch_occupancy = 0.0;
  /// Admission policy of the cell: "" for plain CSR-attention cells,
  /// "exact" / "bucketed" for the pattern-request comparison (bucketed
  /// admission coalesces near-length requests; exact keys by length).
  std::string admission;
  /// The measured saturation knee of an open-loop arrival-rate sweep:
  /// the highest offered rate whose completed/offered ratio stayed
  /// above the sweep's threshold. 0 on non-sweep cells; sweep ladder
  /// cells all carry the knee their ladder resolved to.
  double max_sustainable_rps = 0.0;
  /// Tracing state of the cell: "" for ordinary cells, "off"/"on" for
  /// the trace-overhead guard pair (identical workloads differing only
  /// in whether the span ring was recording).
  std::string trace;
};

/// Writes `{schema: "gpa-bench-serving/v4", parallel_backend, metrics,
/// records}` (v2 added per-record hw_threads; v3 added admission and
/// max_sustainable_rps for the open-loop saturation sweep; v4 added the
/// per-record trace tag and the end-of-run `metrics` object).
/// `metrics_json` is a pre-rendered JSON object — pass
/// obs::MetricsSnapshot::to_json(), or "" to embed `{}` — so benchutil
/// stays decoupled from the obs layer.
void write_serving_bench_json(const std::string& path,
                              const std::vector<ServingBenchRecord>& records,
                              const std::string& parallel_backend_name,
                              const std::string& metrics_json = std::string());

/// One cell of the static-vs-dynamic schedule ablation. `backend` is
/// per record (not file-level) so runs from an OpenMP build and a
/// std::thread build can be merged into one committed trajectory file.
struct ScheduleBenchRecord {
  std::string backend;   ///< "openmp" / "threads"
  std::string kernel;    ///< e.g. "global_attention"
  std::string schedule;  ///< "static" / "dynamic"
  Index grain = 0;
  Index seq_len = 0;
  /// Hardware threads of the recording host (see ServingBenchRecord:
  /// schedule ablations on a 1-core box measure dispatch overhead, not
  /// load balancing, and the record must say so).
  int hw_threads = 0;
  double mean_s = 0.0;
  double stddev_s = 0.0;
};

/// Writes `{schema: "gpa-bench-schedule/v2", records}` (v2 renamed the
/// per-record "threads" key to "hw_threads").
void write_schedule_bench_json(const std::string& path,
                               const std::vector<ScheduleBenchRecord>& records);

/// One cell of the incremental-decode benchmark: per-token cost of a
/// cached SessionManager::decode_step vs a full causal recompute, at
/// one (mask pattern, seq_len, head_dim). The ratio is the KV-cache
/// claim the acceptance gate reads.
struct DecodeBenchRecord {
  std::string pattern;  ///< "csr" / "local" / "dilated1d" / "global" / "composed"
  Index seq_len = 0;
  Index head_dim = 0;
  Index row_nnz = 0;   ///< edges the measured decode row folds
  Size causal_nnz = 0; ///< edges one full causal recompute visits
  /// Storage precision of the session's KV pages ("f32" / "f16"): the
  /// fp16 cells measure the half-width decode fold against the same
  /// uncached recompute arm.
  std::string page_dtype = "f32";
  double cached_us_per_token = 0.0;
  double recompute_us_per_token = 0.0;
  double speedup = 0.0;  ///< recompute / cached
};

/// Writes `{schema: "gpa-bench-decode/v3", host, parallel_backend,
/// simd, metrics, capacity, records}` — the host string matters here
/// because the claim is a single-core per-token latency ratio. v2 added
/// the end-of-run `metrics` object (same pre-rendered-JSON convention
/// as write_serving_bench_json); v3 added per-record page_dtype and the
/// `capacity` object (sessions-per-device at fp32 vs fp16 page storage,
/// from the memory model — pass a pre-rendered JSON object or "" for
/// `{}`).
void write_decode_bench_json(const std::string& path,
                             const std::vector<DecodeBenchRecord>& records,
                             const std::string& host, const std::string& parallel_backend_name,
                             const std::string& simd_name,
                             const std::string& metrics_json = std::string(),
                             const std::string& capacity_json = std::string());

}  // namespace gpa::benchutil
