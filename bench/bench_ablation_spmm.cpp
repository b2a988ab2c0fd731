// Ablation: fused online-softmax kernel vs the GraphBLAS-style two-phase
// pipeline (SDDMM -> CSR softmax -> SpMM) that §VI-A names as a future
// direction. Same O(Sf·L²·d) work; the two-phase path pays an extra
// O(Sf·L²) materialisation and a second pass over V.

#include <iostream>
#include <vector>

#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "core/spmm_attention.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

int main(int argc, char** argv) try {
  using namespace gpa;
  using benchutil::Table;
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  const Index L = args.paper_scale ? 16'384 : 4'096;
  const Index dk = 64;
  const std::vector<double> sfs = {0.001, 0.01, 0.05, 0.1};

  std::cout << "=== Ablation: fused kernel vs two-phase SpMM pipeline (L=" << L << ") ===\n";
  Table table({"sf", "fused_s", "two_phase_s", "two_phase_overhead"});
  Rng rng(654);
  Matrix<float> q(L, dk), k(L, dk), v(L, dk), out(L, dk);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  for (const double sf : sfs) {
    const auto mask = build_csr_random(L, RandomParams{sf, 31});
    const auto fused_st = benchutil::run_benchmark(
        [&] { csr_attention(q, k, v, mask, out); }, args.run);
    const auto two_st = benchutil::run_benchmark(
        [&] { spmm_attention(q, k, v, mask, out); }, args.run);
    table.add_row({Table::fmt_double(sf), Table::fmt_seconds(fused_st.mean),
                   Table::fmt_seconds(two_st.mean),
                   Table::fmt_double(two_st.mean / fused_st.mean, 3)});
    std::cout << "  sf=" << sf << ": fused " << Table::fmt_seconds(fused_st.mean)
              << "  two-phase " << Table::fmt_seconds(two_st.mean) << "\n";
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
