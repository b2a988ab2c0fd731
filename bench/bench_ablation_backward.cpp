// Ablation: training step cost. The work-optimality argument extends to
// gradients — forward and backward each touch O(Sf·L²·d) edges. This
// bench measures forward vs forward+backward across sparsity levels and
// the symmetry shortcut (local backward without a transposed mask)
// against the generic CSR path.

#include <iostream>
#include <vector>

#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/backward.hpp"
#include "sparse/build.hpp"
#include "sparse/nnz.hpp"
#include "tensor/tensor_ops.hpp"

int main(int argc, char** argv) try {
  using namespace gpa;
  using benchutil::Table;
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  const Index L = args.paper_scale ? 16'384 : 4'096;
  const Index dk = 64;

  std::cout << "=== Ablation: sparse training step (forward vs forward+backward, L=" << L
            << ") ===\n";
  Table table({"mask", "sf", "forward_s", "fwd_bwd_s", "bwd_over_fwd"});
  Rng rng(135);
  Matrix<float> q(L, dk), k(L, dk), v(L, dk), dout(L, dk);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  fill_uniform(dout, rng);

  for (const double sf : {0.001, 0.01, 0.05}) {
    const auto mask = build_csr_random(L, RandomParams{sf, 57});
    AttentionCache cache;
    AttentionGrads grads;
    const auto fwd_st = benchutil::run_benchmark(
        [&] { csr_attention_forward(q, k, v, mask, cache); }, args.run);
    const auto full_st = benchutil::run_benchmark(
        [&] {
          csr_attention_forward(q, k, v, mask, cache);
          csr_attention_backward(q, k, v, mask, cache, dout, grads);
        },
        args.run);
    table.add_row({"random_csr", Table::fmt_double(sf), Table::fmt_seconds(fwd_st.mean),
                   Table::fmt_seconds(full_st.mean),
                   Table::fmt_double(full_st.mean / fwd_st.mean, 3)});
    std::cout << "  csr sf=" << sf << ": fwd " << Table::fmt_seconds(fwd_st.mean)
              << "  fwd+bwd " << Table::fmt_seconds(full_st.mean) << "\n";
  }

  // Symmetry shortcut: local backward (no transpose) vs CSR backward on
  // the materialised window.
  const LocalParams p{local_window_for_sparsity(L, 0.01)};
  const auto win_mask = build_csr_local(L, p);
  AttentionCache cache;
  AttentionGrads grads;
  local_attention_forward(q, k, v, p, cache);
  const auto local_bwd = benchutil::run_benchmark(
      [&] { local_attention_backward(q, k, v, p, cache, dout, grads); }, args.run);
  const auto csr_bwd = benchutil::run_benchmark(
      [&] { csr_attention_backward(q, k, v, win_mask, cache, dout, grads); }, args.run);
  table.add_row({"local_symmetric_bwd", "0.01", "-", Table::fmt_seconds(local_bwd.mean), "-"});
  table.add_row({"csr_transpose_bwd", "0.01", "-", Table::fmt_seconds(csr_bwd.mean), "-"});
  std::cout << "  symmetric local bwd " << Table::fmt_seconds(local_bwd.mean)
            << " vs transpose csr bwd " << Table::fmt_seconds(csr_bwd.mean) << "\n\n";

  table.print();
  table.write_csv(args.csv_path);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
