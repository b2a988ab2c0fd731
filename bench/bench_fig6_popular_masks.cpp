// Regenerates Figure 6: runtime on the popular composed masks of
// Figure 2 as context length grows —
//   Longformer (local + global):        SDP vs (local ; global) vs CSR
//   Longformer (dilated + global):      SDP vs CSR
//   BigBird (local + global + random):  SDP vs (local ; global ; CSR) vs CSR
//
// Paper parameters (§V-F): local reach 50 each direction, 3 global
// tokens, dilation factor 2 (effective reach 100), random Sf = 0.001,
// L ∈ {30k, 35k, 40k, 45k}. CPU defaults shrink L (the dense SDP
// baseline is O(L²·d) on one core); --paper-scale restores. Shapes to
// check: SDP identical across masks at a given L; graph kernels improve
// relative to SDP as L grows; single fused CSR >= sequential chains.

#include <iostream>
#include <vector>

#include "baselines/sdp_masked.hpp"
#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/composed.hpp"
#include "sparse/build.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;
using benchutil::Table;

}  // namespace

int main(int argc, char** argv) try {
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/2);

  const std::vector<Index> lengths = args.paper_scale
                                         ? std::vector<Index>{30'000, 35'000, 40'000, 45'000}
                                         : std::vector<Index>{3'000, 4'000, 5'000, 6'000};
  const Index dk = 64;
  const Index reach = 50;       // "local size was set to 50 in each direction"
  const Index num_global = 3;   // "three global tokens were used"
  const Index dilation = 2;     // "dilation factor of two"
  const double random_sf = 0.001;

  std::cout << "=== Figure 6: popular attention masks (Longformer / BigBird) ===\n";
  Table table({"mask", "L", "approach", "sf", "mean_s"});
  Rng rng(555);

  for (const Index L : lengths) {
    Matrix<float> q(L, dk), k(L, dk), v(L, dk), out(L, dk);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);

    const auto longformer = make_longformer(L, reach, num_global);
    const auto longformer_dil = make_longformer_dilated(L, reach, dilation, num_global);
    const auto bigbird = make_bigbird(L, reach, num_global, random_sf);

    // SDP is measured once per L and reported for each mask — the paper
    // observes "for all attention mask implementations the SDP function
    // has identical average runtimes for set context lengths".
    const auto sdp_dense = csr_to_dense(longformer.fused);
    const auto sdp_st = benchutil::run_benchmark(
        [&] { baselines::sdp_masked_attention(q, k, v, sdp_dense, out); }, args.run);
    std::cout << "  L=" << L << " sdp: " << Table::fmt_seconds(sdp_st.mean) << " s\n";

    auto bench_mask = [&](const ComposedMask& m, bool with_chain) {
      table.add_row({m.name, std::to_string(L), "sdp_masked", Table::fmt_double(m.sparsity(), 4),
                     Table::fmt_seconds(sdp_st.mean)});
      if (with_chain) {
        const auto chain_st = benchutil::run_benchmark(
            [&] { composed_attention(q, k, v, m, out); }, args.run);
        table.add_row({m.name, std::to_string(L), "sequential_kernels",
                       Table::fmt_double(m.sparsity(), 4), Table::fmt_seconds(chain_st.mean)});
        std::cout << "  L=" << L << " " << m.name
                  << " chain: " << Table::fmt_seconds(chain_st.mean) << " s\n";
      }
      const auto csr_st = benchutil::run_benchmark(
          [&] { fused_csr_attention(q, k, v, m, out); }, args.run);
      table.add_row({m.name, std::to_string(L), "csr", Table::fmt_double(m.sparsity(), 4),
                     Table::fmt_seconds(csr_st.mean)});
      std::cout << "  L=" << L << " " << m.name << " csr: " << Table::fmt_seconds(csr_st.mean)
                << " s\n";
    };

    bench_mask(longformer, /*with_chain=*/true);        // left plot
    bench_mask(longformer_dil, /*with_chain=*/false);   // middle plot (SDP vs CSR)
    bench_mask(bigbird, /*with_chain=*/true);           // right plot
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
