// Regenerates Figure 3: microbenchmark of all six graph-processing
// algorithms plus masked SDP across context length (L), embedded
// dimension (dk), and sparsity factor (Sf).
//
// Paper protocol (§V-C): L ∈ {8192, 16384, 24576}, dk ∈ {64, 128, 256},
// Sf ∈ (0, 1], dilation 1, window/block solved from Sf, COO restricted
// to the smallest L and Sf ≤ 0.4, 10 warmup + 15 timed runs.
//
// CPU defaults shrink L and the Sf grid so the run finishes in minutes
// on one core; --paper-scale restores the full protocol. The shape to
// look for (§V-C analysis): SDP flat in Sf; graph kernels decreasing;
// crossover near Sf ≈ 0.01; COO far slower (linear row search); global
// decreasing more slowly (row imbalance).

#include <iostream>
#include <vector>

#include "baselines/sdp_masked.hpp"
#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "sparse/build.hpp"
#include "sparse/nnz.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;
using benchutil::Table;

struct Inputs {
  Matrix<float> q, k, v;
};

Inputs make_inputs(Index L, Index d, Rng& rng) {
  Inputs in{Matrix<float>(L, d), Matrix<float>(L, d), Matrix<float>(L, d)};
  fill_uniform(in.q, rng);
  fill_uniform(in.k, rng);
  fill_uniform(in.v, rng);
  return in;
}

}  // namespace

int main(int argc, char** argv) try {
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  const std::vector<Index> lengths =
      args.paper_scale ? std::vector<Index>{8'192, 16'384, 24'576}
                       : std::vector<Index>{512, 1'024, 2'048};
  const std::vector<Index> dims = args.paper_scale ? std::vector<Index>{64, 128, 256}
                                                   : std::vector<Index>{64, 128};
  const std::vector<double> sfs = args.paper_scale
                                      ? std::vector<double>{0.0001, 0.001, 0.01, 0.1, 0.5, 1.0}
                                      : std::vector<double>{0.001, 0.01, 0.1, 0.5};
  const double coo_sf_cap = 0.4;  // §V-C: COO only ran with Sf in (0, 0.4]
  const Index dilation = 1;       // "a dilation factor of 1 was used"

  std::cout << "=== Figure 3: runtime vs sparsity factor (per-algorithm microbenchmark) ===\n"
            << "protocol: warmup " << args.run.warmup << ", timed " << args.run.iterations
            << (args.paper_scale ? " (paper scale)" : " (CPU scale; --paper-scale for full)")
            << "\n";

  Table table({"L", "dk", "sf_target", "algorithm", "sf_actual", "mean_s", "stddev_s"});
  Rng rng(42);

  for (const Index L : lengths) {
    for (const Index dk : dims) {
      const auto in = make_inputs(L, dk, rng);
      Matrix<float> out(L, dk);

      for (const double sf : sfs) {
        auto report = [&](const char* algo, double sf_actual, const benchutil::Stats& st) {
          table.add_row({std::to_string(L), std::to_string(dk), Table::fmt_double(sf),
                         algo, Table::fmt_double(sf_actual, 4), Table::fmt_seconds(st.mean),
                         Table::fmt_seconds(st.stddev)});
          std::cout << "  L=" << L << " dk=" << dk << " sf=" << sf << " " << algo << ": "
                    << Table::fmt_seconds(st.mean) << " s\n";
        };

        // Masked SDP baseline (dense compute; flat in Sf).
        const auto sdp_mask = build_csr_random(L, RandomParams{sf, 7});
        const auto sdp_dense = csr_to_dense(sdp_mask);
        report("sdp_masked", sf, benchutil::run_benchmark(
                                     [&] {
                                       baselines::sdp_masked_attention(in.q, in.k, in.v,
                                                                       sdp_dense, out);
                                     },
                                     args.run));

        // CSR on an arbitrary (random) mask of the target sparsity.
        report("csr", sparsity_factor(sdp_mask.nnz(), L),
               benchutil::run_benchmark([&] { csr_attention(in.q, in.k, in.v, sdp_mask, out); },
                                        args.run));

        // COO: smallest L only, Sf <= 0.4 (the paper's restriction).
        if (L == lengths.front() && sf <= coo_sf_cap) {
          const auto coo = csr_to_coo(sdp_mask);
          report("coo", sparsity_factor(coo.nnz(), L),
                 benchutil::run_benchmark(
                     [&] { coo_attention(in.q, in.k, in.v, coo, out); }, args.run));
        }

        // Local: window solved to fit Sf.
        const LocalParams local{local_window_for_sparsity(L, sf)};
        report("local", sparsity_factor(local_nnz(L, local), L),
               benchutil::run_benchmark(
                   [&] { local_attention(in.q, in.k, in.v, local, out); }, args.run));

        // 1D dilation (r = 1), window solved to fit Sf.
        const Dilated1DParams d1{dilated1d_window_for_sparsity(L, dilation, sf), dilation};
        report("dilated1d", sparsity_factor(dilated1d_nnz(L, d1), L),
               benchutil::run_benchmark(
                   [&] { dilated1d_attention(in.q, in.k, in.v, d1, out); }, args.run));

        // 2D dilation (r = 1), block solved to fit Sf.
        const auto d2 =
            make_dilated2d(L, dilated2d_block_for_sparsity(L, dilation, sf), dilation);
        report("dilated2d", sparsity_factor(dilated2d_nnz(d2), L),
               benchutil::run_benchmark(
                   [&] { dilated2d_attention(in.q, in.k, in.v, d2, out); }, args.run));

        // Global: token count solved so the global rows/cols match Sf
        // (g ≈ Sf·L/2), window 1 subtracted (the smallest local size,
        // as benchmarked in the paper).
        const Index g = std::max<Index>(1, static_cast<Index>(sf * static_cast<double>(L) / 2));
        GlobalMinusLocalParams gp;
        std::vector<Index> tokens;
        for (Index t = 0; t < g; ++t) tokens.push_back(t * (L / g));
        gp.global = make_global(tokens, L);
        gp.local = make_local(1);
        report("global",
               sparsity_factor(global_minus_local_nnz(L, gp), L),
               benchutil::run_benchmark(
                   [&] { global_attention(in.q, in.k, in.v, gp, out); }, args.run));
      }
    }
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
