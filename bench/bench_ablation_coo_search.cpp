// Ablation: the COO kernel's row-bound search. §V-C attributes COO's
// poor Fig. 3 performance to each row scanning the coordinate array from
// index zero ("the search cost grows as the algorithm strays farther
// from row zero"). This bench isolates that choice: the paper's linear
// scan vs a binary search vs CSR's O(1) row offsets, on identical masks.

#include <iostream>
#include <vector>

#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

int main(int argc, char** argv) try {
  using namespace gpa;
  using benchutil::Table;
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  const std::vector<Index> lengths = args.paper_scale
                                         ? std::vector<Index>{8'192, 16'384, 24'576}
                                         : std::vector<Index>{512, 1'024, 2'048, 4'096};
  const Index dk = 64;
  const double sf = 0.02;

  std::cout << "=== Ablation: COO row search (linear = paper, binary = repaired) ===\n";
  Table table({"L", "variant", "mean_s", "vs_csr"});
  Rng rng(321);

  for (const Index L : lengths) {
    Matrix<float> q(L, dk), k(L, dk), v(L, dk), out(L, dk);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);
    const auto csr = build_csr_random(L, RandomParams{sf, 77});
    const auto coo = csr_to_coo(csr);

    const auto csr_st = benchutil::run_benchmark(
        [&] { csr_attention(q, k, v, csr, out); }, args.run);

    AttentionOptions lin;
    lin.coo_search = CooSearch::Linear;
    const auto lin_st = benchutil::run_benchmark(
        [&] { coo_attention(q, k, v, coo, out, lin); }, args.run);

    AttentionOptions bin;
    bin.coo_search = CooSearch::Binary;
    const auto bin_st = benchutil::run_benchmark(
        [&] { coo_attention(q, k, v, coo, out, bin); }, args.run);

    table.add_row({std::to_string(L), "csr", Table::fmt_seconds(csr_st.mean), "1.00"});
    table.add_row({std::to_string(L), "coo_linear_search", Table::fmt_seconds(lin_st.mean),
                   Table::fmt_double(lin_st.mean / csr_st.mean, 3)});
    table.add_row({std::to_string(L), "coo_binary_search", Table::fmt_seconds(bin_st.mean),
                   Table::fmt_double(bin_st.mean / csr_st.mean, 3)});
    std::cout << "  L=" << L << ": csr " << Table::fmt_seconds(csr_st.mean) << "  coo-linear "
              << Table::fmt_seconds(lin_st.mean) << "  coo-binary "
              << Table::fmt_seconds(bin_st.mean) << "\n";
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
