// SIMD backend before/after evidence: single-thread throughput of every
// vectorized kernel under each dispatch tier (scalar, avx2, avx2-fma,
// avx512), with a machine-readable BENCH_kernels.json so future PRs can
// track the perf trajectory (median seconds, estimated GB/s and Gflop/s
// per cell).
//
//   ./bench_simd_kernels [--smoke] [--json BENCH_kernels.json] [--csv f]
//
// The sweep REQUESTS all four arms unconditionally and records both the
// requested and the RESOLVED level per cell: on a host lacking an ISA
// the request clamps down and the cell shows the clamped level instead
// of going missing, so a trajectory diff can tell "slower" from "didn't
// run" without knowing the recording machine.
//
// --smoke shrinks shapes and the protocol to a CTest-sized run (it is
// registered as the tier2 `bench_kernels_smoke` test, so every dispatch
// arm stays exercised under the sanitizer matrix).
//
// Throughput estimates are deliberately simple and stated here once:
// per-edge kernels count 4·d flops (2·d dot + 2·d accumulate) and 8·d
// bytes (one K row + one V row read) per edge — 4·d bytes on the fp16
// fold cell, which is the half-width point of reading pages; GEMM
// counts 2·m·n·k flops and the ideal A+B+C traffic; softmax counts 4
// flops and 16 bytes per element (max/exp/sum/scale passes).

#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "baselines/flash_attention.hpp"
#include "benchutil/json.hpp"
#include "common/half.hpp"
#include "core/kernel_common.hpp"
#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "sparse/nnz.hpp"
#include "tensor/gemm.hpp"
#include "tensor/softmax.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;
using benchutil::Table;

struct Inputs {
  Matrix<float> q, k, v;
};

Inputs make_inputs(Index L, Index d, std::uint64_t seed) {
  Inputs in{Matrix<float>(L, d), Matrix<float>(L, d), Matrix<float>(L, d)};
  Rng rng(seed);
  fill_uniform(in.q, rng);
  fill_uniform(in.k, rng);
  fill_uniform(in.v, rng);
  return in;
}

/// The REQUESTED axis: every tier, whether or not this build/CPU can
/// run it — unavailable requests clamp and record the resolved level.
std::vector<SimdLevel> levels_under_test() {
  const std::vector<SimdLevel> requested = {SimdLevel::Scalar, SimdLevel::Avx2,
                                            SimdLevel::Avx2Fma, SimdLevel::Avx512};
  if (simd::available_levels().size() == 1) {
    std::cout << "note: only the scalar arm is available on this build/CPU; "
                 "vector-tier cells will record their clamped level\n";
  }
  return requested;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/2, /*iters=*/7);
  if (args.json_path.empty()) args.json_path = "BENCH_kernels.json";

  // Single-thread on purpose: the SIMD speedup must not hide behind the
  // thread count (the acceptance number is per-core).
  ExecPolicy policy = ExecPolicy::serial();

  const Index L = args.smoke ? 256 : 2048;
  const Index L_dense = args.smoke ? 128 : 1024;  // flash / gemm / softmax scale
  const double sf = 0.05;

  std::cout << "=== SIMD kernel throughput (single thread, per dispatch arm) ===\n"
            << "protocol: warmup " << args.run.warmup << ", timed " << args.run.iterations
            << (args.smoke ? " (smoke scale)" : "") << "; parallel backend "
            << parallel_backend() << ", auto simd level " << simd::simd_backend() << "\n";

  Table table({"kernel", "requested", "simd", "L", "d", "median_s", "GB/s", "Gflop/s"});
  std::vector<benchutil::KernelBenchRecord> records;
  // csr d=64 medians keyed by the REQUESTED arm, for the speedup summary.
  std::map<std::string, double> csr64_median;

  auto report = [&](const std::string& kernel, SimdLevel requested, Index seq, Index d,
                    double flops, double bytes, const benchutil::Stats& st) {
    benchutil::KernelBenchRecord r;
    r.kernel = kernel;
    r.simd = std::string(simd::level_name(simd::resolve(requested)));
    r.simd_requested = std::string(simd::level_name(requested));
    r.seq_len = seq;
    r.head_dim = d;
    r.median_s = st.median;
    r.gbytes_per_s = bytes / st.median / 1e9;
    r.gflops_per_s = flops / st.median / 1e9;
    records.push_back(r);
    table.add_row({kernel, r.simd_requested, r.simd, std::to_string(seq), std::to_string(d),
                   Table::fmt_seconds(st.median), Table::fmt_double(r.gbytes_per_s, 3),
                   Table::fmt_double(r.gflops_per_s, 3)});
    std::cout << "  " << kernel << " [" << r.simd_requested
              << (r.simd != r.simd_requested ? " -> " + r.simd : "") << "] L=" << seq
              << " d=" << d << ": " << Table::fmt_seconds(st.median) << " s, "
              << Table::fmt_double(r.gflops_per_s, 3) << " Gflop/s\n";
  };

  for (const SimdLevel level : levels_under_test()) {
    policy.simd = level;
    AttentionOptions opts;
    opts.policy = policy;

    // CSR online-softmax kernel — the acceptance cell is d=64.
    for (const Index d : {Index{64}, Index{128}}) {
      const auto in = make_inputs(L, d, 21);
      const auto mask = build_csr_random(L, RandomParams{sf, 7});
      Matrix<float> out(L, d);
      const double edges = static_cast<double>(mask.nnz());
      const auto st = benchutil::run_benchmark(
          [&] { csr_attention(in.q, in.k, in.v, mask, out, opts); }, args.run);
      report("csr_online_softmax", level, L, d, 4.0 * static_cast<double>(d) * edges,
             8.0 * static_cast<double>(d) * edges, st);
      if (d == 64) csr64_median[std::string(simd::level_name(level))] = st.median;
    }

    // Local window (the contiguous-neighbor fold).
    {
      const Index d = 64;
      const auto in = make_inputs(L, d, 22);
      const LocalParams p{16};
      Matrix<float> out(L, d);
      const double edges = static_cast<double>(local_nnz(L, p));
      const auto st = benchutil::run_benchmark(
          [&] { local_attention(in.q, in.k, in.v, p, out, opts); }, args.run);
      report("local_window", level, L, d, 4.0 * static_cast<double>(d) * edges,
             8.0 * static_cast<double>(d) * edges, st);
    }

    // Dilated 1D (strided neighbor pulls).
    {
      const Index d = 64;
      const auto in = make_inputs(L, d, 23);
      const Dilated1DParams p{17, 1};
      Matrix<float> out(L, d);
      const double edges = static_cast<double>(dilated1d_nnz(L, p));
      const auto st = benchutil::run_benchmark(
          [&] { dilated1d_attention(in.q, in.k, in.v, p, out, opts); }, args.run);
      report("dilated1d", level, L, d, 4.0 * static_cast<double>(d) * edges,
             8.0 * static_cast<double>(d) * edges, st);
    }

    // Flash baseline (tiled dense online softmax).
    {
      const Index d = 64;
      const auto in = make_inputs(L_dense, d, 24);
      Matrix<float> out(L_dense, d);
      const double edges = static_cast<double>(L_dense) * static_cast<double>(L_dense);
      const auto st = benchutil::run_benchmark(
          [&] { baselines::flash_attention(in.q, in.k, in.v, out, opts); }, args.run);
      report("flash_attention", level, L_dense, d, 4.0 * static_cast<double>(d) * edges,
             8.0 * static_cast<double>(d) * edges, st);
    }

    // GEMMs (the masked-SDP building blocks): QKᵀ shape then PV shape.
    {
      const Index m = L_dense, k = 64, n = L_dense;
      Matrix<float> a(m, k), b(n, k), c(m, n);
      Rng rng(25);
      fill_uniform(a, rng);
      fill_uniform(b, rng);
      const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                           static_cast<double>(k);
      const double bytes = 4.0 * (static_cast<double>(m) * k + static_cast<double>(n) * k +
                                  static_cast<double>(m) * n);
      const auto st =
          benchutil::run_benchmark([&] { gemm_nt(a, b, c, policy); }, args.run);
      report("gemm_nt", level, m, k, flops, bytes, st);
    }
    {
      const Index m = L_dense, k = L_dense, n = 64;
      Matrix<float> a(m, k), b(k, n), c(m, n);
      Rng rng(26);
      fill_uniform(a, rng);
      fill_uniform(b, rng);
      const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                           static_cast<double>(k);
      const double bytes = 4.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
                                  static_cast<double>(m) * n);
      const auto st =
          benchutil::run_benchmark([&] { gemm_nn(a, b, c, policy); }, args.run);
      report("gemm_nn", level, m, n, flops, bytes, st);
    }

    // Two-pass row softmax (max/exp/sum/scale). Timed in place on the
    // same matrix: re-softmaxing normalised rows performs the identical
    // pass structure and element count, so no per-iteration copy
    // contaminates the measurement.
    {
      Matrix<float> s(L_dense, L_dense);
      Rng rng(27);
      fill_uniform(s, rng);
      const double elems = static_cast<double>(L_dense) * static_cast<double>(L_dense);
      const auto st =
          benchutil::run_benchmark([&] { softmax_rows(s, level); }, args.run);
      report("softmax_rows", level, L_dense, L_dense, 4.0 * elems, 16.0 * elems, st);
    }

    // fp16 decode fold (the half-width KV page hot loop): one query row
    // folded over L cached half K/V rows through the decode path's tile
    // fold (dot_fh, axpy_h/axpby_h) — widen-on-load arithmetic, half the
    // page traffic of the fp32 fold.
    {
      const Index d = 64;
      const auto in = make_inputs(L, d, 28);
      std::vector<half_t> kh(static_cast<std::size_t>(L) * static_cast<std::size_t>(d));
      std::vector<half_t> vh(kh.size());
      const auto& cvt = simd::ops(SimdLevel::Scalar);
      for (Index j = 0; j < L; ++j) {
        cvt.f2h(kh.data() + static_cast<std::size_t>(j) * static_cast<std::size_t>(d),
                in.k.row(j), d);
        cvt.f2h(vh.data() + static_cast<std::size_t>(j) * static_cast<std::size_t>(d),
                in.v.row(j), d);
      }
      const auto& vo = simd::ops(level);
      std::vector<float> acc(static_cast<std::size_t>(d));
      const double edges = static_cast<double>(L);
      const auto st = benchutil::run_benchmark(
          [&] {
            std::fill(acc.begin(), acc.end(), 0.0f);
            detail::EdgeTile<float, half_t> tile(in.q.row(0), acc.data(), {}, d, 0.125f, false,
                                                 vo);
            for (Index j = 0; j < L; ++j) {
              const std::size_t off = static_cast<std::size_t>(j) * static_cast<std::size_t>(d);
              tile.add(kh.data() + off, vh.data() + off, 1.0f);
            }
            tile.flush();
          },
          args.run);
      report("fp16_decode_fold", level, L, d, 4.0 * static_cast<double>(d) * edges,
             4.0 * static_cast<double>(d) * edges, st);
    }
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);
  benchutil::write_kernel_bench_json(args.json_path, records, std::string(parallel_backend()),
                                     static_cast<int>(std::thread::hardware_concurrency()));
  std::cout << "\njson written: " << args.json_path << "\n";

  const auto scalar_it = csr64_median.find("scalar");
  if (scalar_it != csr64_median.end()) {
    for (const auto& [arm, median] : csr64_median) {
      if (arm == "scalar" || median <= 0.0) continue;
      std::cout << "csr_online_softmax d=64 single-thread speedup (" << arm
                << " vs scalar): " << Table::fmt_double(scalar_it->second / median, 2) << "x\n";
    }
  }
  return 0;
}
