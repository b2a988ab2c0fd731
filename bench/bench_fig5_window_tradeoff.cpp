// Regenerates Figure 5: FlashAttention vs local graph attention as the
// context length doubles, under two protocols —
//   left plot:  constant window size {5, 50, 500} (sparsity rises with L)
//   right plot: constant sparsity factor {1e-2, 1e-3, 1e-4} (window
//               solved per L)
// FP16 storage, like the paper. CPU defaults run L from 1k to 16k
// (paper: 65k to 2M); the dense baseline gets fewer iterations at the
// top sizes so the sweep finishes. Shapes to check: constant window ->
// local linear vs flash quadratic (gap grows); constant Sf -> local
// still wins beyond the crossover, by a growing factor (paper: 1.41x at
// 65k -> 4.46x at 2M for Sf = 1e-4).

#include <iostream>
#include <vector>

#include "baselines/flash_attention.hpp"
#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "sparse/nnz.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;
using benchutil::Table;

}  // namespace

int main(int argc, char** argv) try {
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  std::vector<Index> lengths;
  for (Index L = args.paper_scale ? 65'536 : 1'024;
       L <= (args.paper_scale ? 2'097'152 : 8'192); L *= 2) {
    lengths.push_back(L);
  }
  const Index dk = 64;
  const std::vector<Index> windows = {5, 50, 500};
  const std::vector<double> sparsities = {1e-2, 1e-3, 1e-4};

  std::cout << "=== Figure 5: FlashAttention vs local attention (fp16) ===\n";
  Table table({"protocol", "setting", "L", "algorithm", "mean_s"});
  Rng rng(777);

  for (const Index L : lengths) {
    Matrix<half_t> q(L, dk), k(L, dk), v(L, dk), out(L, dk);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);

    // Dense baseline measured once per L (it has no window/Sf knob).
    benchutil::RunConfig flash_cfg = args.run;
    if (!args.paper_scale && L >= 4'096) {
      flash_cfg.warmup = 0;
      flash_cfg.iterations = 1;  // the paper's long-run exemption
    }
    const auto flash_st = benchutil::run_benchmark(
        [&] { baselines::flash_attention(q, k, v, out); }, flash_cfg);
    table.add_row({"both", "-", std::to_string(L), "flash_dense",
                   Table::fmt_seconds(flash_st.mean)});
    std::cout << "  L=" << L << " flash: " << Table::fmt_seconds(flash_st.mean) << " s\n";

    // Left plot: constant window.
    for (const Index w : windows) {
      const LocalParams p{w + 1};  // window = reach+1 ("length a token can see behind or ahead")
      const auto st = benchutil::run_benchmark(
          [&] { local_attention(q, k, v, p, out); }, args.run);
      table.add_row({"const_window", std::to_string(w), std::to_string(L), "local",
                     Table::fmt_seconds(st.mean)});
    }

    // Right plot: constant sparsity, window solved per L.
    for (const double sf : sparsities) {
      const LocalParams p{local_window_for_sparsity(L, sf)};
      const auto st = benchutil::run_benchmark(
          [&] { local_attention(q, k, v, p, out); }, args.run);
      table.add_row({"const_sparsity", Table::fmt_double(sf), std::to_string(L), "local",
                     Table::fmt_seconds(st.mean)});
      std::cout << "  L=" << L << " local(sf=" << sf << "): " << Table::fmt_seconds(st.mean)
                << " s (" << Table::fmt_double(flash_st.mean / st.mean, 3) << "x)\n";
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
