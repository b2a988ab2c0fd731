// Ablation: row scheduling under work imbalance. §V-C explains the
// global kernel's slower scaling by per-row work skew: global rows are
// (nearly) dense while ordinary rows touch only the global columns, and
// "the algorithm can only be as fast as its slowest block". With static
// scheduling one worker inherits all the heavy rows; dynamic scheduling
// redistributes them. The csr cells are the control: a random mask has
// near-uniform row degrees, so dynamic scheduling buys nothing there
// and its chunk-handout overhead is visible instead. (On a single-core
// host the schedules coincide — the imbalance statistics still
// quantify the skew.)

#include <iostream>
#include <thread>
#include <vector>

#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "graph/degree.hpp"
#include "parallel/parallel_for.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

int main(int argc, char** argv) try {
  using namespace gpa;
  using benchutil::Table;
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  const Index L = args.paper_scale ? 16'384 : (args.smoke ? 1'024 : 4'096);
  const Index dk = 64;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  // Global mask: a few fully-dense rows + sparse columns elsewhere (the
  // skewed workload). CSR random mask: near-uniform degrees (the control).
  GlobalMinusLocalParams gp;
  std::vector<Index> tokens;
  for (Index t = 0; t < 8; ++t) tokens.push_back(t * (L / 8));
  gp.global = make_global(tokens, L);
  gp.local = make_local(1);
  const auto csr_mask = build_csr_random(L, RandomParams{0.01, 11});

  const auto stats = degree_stats(global_minus_local_degrees(L, gp));
  std::cout << "=== Ablation: static vs dynamic row scheduling (L=" << L
            << ", threads=" << hw << ", backend=" << parallel_backend() << ") ===\n"
            << "global-mask row-degree skew: max " << stats.max_degree << ", mean "
            << Table::fmt_double(stats.mean, 4) << ", imbalance "
            << Table::fmt_double(stats.imbalance, 4) << "\n";

  Rng rng(987);
  Matrix<float> q(L, dk), k(L, dk), v(L, dk), out(L, dk);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  Table table({"kernel", "schedule", "grain", "mean_s", "stddev_s"});
  auto run_cell = [&](const char* kernel, const Schedule sched, const Index grain,
                      const std::function<void(const AttentionOptions&)>& call) {
    AttentionOptions opts;
    opts.policy = ExecPolicy{0, grain, sched};
    const auto st = benchutil::run_benchmark([&] { call(opts); }, args.run);
    const char* sched_name = sched == Schedule::Static   ? "static"
                             : sched == Schedule::Dynamic ? "dynamic"
                                                          : "auto";
    table.add_row({kernel, sched_name, std::to_string(grain), Table::fmt_seconds(st.mean),
                   Table::fmt_seconds(st.stddev)});
  };

  for (const Schedule sched : {Schedule::Static, Schedule::Dynamic}) {
    for (const Index grain : {16, 64, 256}) {
      run_cell("global_attention", sched, grain,
               [&](const AttentionOptions& o) { global_attention(q, k, v, gp, out, o); });
      run_cell("csr_attention", sched, grain,
               [&](const AttentionOptions& o) { csr_attention(q, k, v, csr_mask, out, o); });
    }
  }
  // The auto-tuned cells (grain 0 = derived): the point of the ablation
  // grid is that auto should land near the best hand-picked cell of each
  // kernel — dynamic for the skewed global mask, static for the uniform
  // csr control.
  run_cell("global_attention", Schedule::Auto, 0,
           [&](const AttentionOptions& o) { global_attention(q, k, v, gp, out, o); });
  run_cell("csr_attention", Schedule::Auto, 0,
           [&](const AttentionOptions& o) { csr_attention(q, k, v, csr_mask, out, o); });

  table.print();
  table.write_csv(args.csv_path);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
