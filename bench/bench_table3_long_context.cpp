// Regenerates Table III: long-context runtimes of FlashAttention (dense)
// vs the local and CSR graph kernels, with sparsity set by the LongNet
// rule Sf = C/L (§II-D).
//
// Paper protocol: L ∈ {1.6M, 8M, 16M, 160M}, FP16, A100; FlashAttention
// at 160M ran once with no warmup because a single iteration took over
// ten hours. CPU defaults scale L down (keeping the same Sf-vs-L rule
// shape, with the rule constant shrunk proportionally) and give the
// dense baseline the same single-run exemption at the largest sizes.
// The shape to check: flash grows quadratically; local/CSR grow
// linearly once Sf follows C/L, so the sparse kernels overtake flash as
// L grows — the paper's 0.28x -> 1.49x -> 2.99x -> 51x progression.

#include <algorithm>
#include <iostream>
#include <vector>

#include "baselines/flash_attention.hpp"
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

}  // namespace

int main(int argc, char** argv) try {
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  // CPU scale: same geometry as the paper with L shrunk ~500x; the
  // LongNet constant shrinks with it so Sf(L) stays on the same curve
  // relative to the crossover.
  const std::vector<Index> lengths = args.paper_scale
                                         ? std::vector<Index>{1'600'000, 8'000'000, 16'000'000,
                                                              160'000'000}
                                         : std::vector<Index>{2'048, 4'096, 8'192};
  const double rule_c = args.paper_scale ? 2730.0 : 2730.0 / 500.0;
  const Index dk = 64;

  std::cout << "=== Table III: FlashAttention vs local vs CSR at long context (fp16) ===\n";
  Table table({"L", "algorithm", "sf", "mean_s", "speedup_vs_flash"});

  Rng rng(2024);
  for (const Index L : lengths) {
    Matrix<half_t> q(L, dk), k(L, dk), v(L, dk), out(L, dk);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);

    const double sf = std::min(1.0, rule_c / static_cast<double>(L));

    // Dense baseline: single unwarmed run at the largest sizes, like the
    // paper's 160M exception.
    benchutil::RunConfig flash_cfg = args.run;
    if (L >= (args.paper_scale ? lengths.back() : Index{8'192})) {
      flash_cfg.warmup = 0;
      flash_cfg.iterations = 1;
    }
    const auto flash_st = benchutil::run_benchmark(
        [&] { baselines::flash_attention(q, k, v, out); }, flash_cfg);
    table.add_row({std::to_string(L), "flash_dense", "-", Table::fmt_seconds(flash_st.mean),
                   "1.00"});
    std::cout << "  L=" << L << " flash: " << Table::fmt_seconds(flash_st.mean) << " s\n";

    // Local kernel at the rule's sparsity.
    const LocalParams local{local_window_for_sparsity(L, sf)};
    const double local_sf = sparsity_factor(local_nnz(L, local), L);
    const auto local_st = benchutil::run_benchmark(
        [&] { local_attention(q, k, v, local, out); }, args.run);
    table.add_row({std::to_string(L), "local", Table::fmt_double(local_sf, 3),
                   Table::fmt_seconds(local_st.mean),
                   Table::fmt_double(flash_st.mean / local_st.mean, 3)});
    std::cout << "  L=" << L << " local: " << Table::fmt_seconds(local_st.mean) << " s ("
              << Table::fmt_double(flash_st.mean / local_st.mean, 3) << "x)\n";

    // CSR on the equivalent explicit local mask ("CSR did not use the
    // same sparsity ... due to memory restrictions" at paper scale; at
    // CPU scale the same mask fits).
    const auto mask = build_csr_local(L, local);
    const auto csr_st = benchutil::run_benchmark(
        [&] { csr_attention(q, k, v, mask, out); }, args.run);
    table.add_row({std::to_string(L), "csr", Table::fmt_double(local_sf, 3),
                   Table::fmt_seconds(csr_st.mean),
                   Table::fmt_double(flash_st.mean / csr_st.mean, 3)});
    std::cout << "  L=" << L << " csr: " << Table::fmt_seconds(csr_st.mean) << " s ("
              << Table::fmt_double(flash_st.mean / csr_st.mean, 3) << "x)\n";
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
