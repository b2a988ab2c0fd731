// Ablation: sequence partitioning for the distributed extension
// (§VI-A): uniform-rows vs NNZ-balanced contiguous partitions on a
// skewed (Longformer-style) mask, measured as simulated-cluster makespan
// and work imbalance.

#include <iostream>
#include <vector>

#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/ring_attention.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "sparse/compose.hpp"
#include "tensor/tensor_ops.hpp"

int main(int argc, char** argv) try {
  using namespace gpa;
  using namespace gpa::seqpar;
  using benchutil::Table;
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/0, /*iters=*/3);

  const Index L = args.paper_scale ? 32'768 : 4'096;
  const Index dk = 64;

  // Longformer-style skew: narrow local window + a handful of global
  // tokens concentrated at the front.
  const auto mask = mask_union(build_csr_local(L, LocalParams{8}),
                               build_csr_global(L, make_global({0, 1, 2, 3}, L)));
  const auto deg = degrees_of(mask);

  Rng rng(246);
  Matrix<float> q(L, dk), k(L, dk), v(L, dk), out(L, dk);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  std::cout << "=== Ablation: uniform vs NNZ-balanced sequence partitioning (L=" << L
            << ") ===\n";
  Table table({"nodes", "partitioner", "work_imbalance", "makespan_s", "time_imbalance"});

  for (const Index nodes : {2, 4, 8}) {
    struct Entry {
      const char* name;
      Partition part;
    };
    Entry entries[] = {{"uniform_rows", partition_uniform_rows(L, nodes, deg)},
                       {"balanced_nnz", partition_balanced_nnz(L, nodes, deg)}};
    for (auto& e : entries) {
      double makespan = 0.0, imb = 0.0;
      const auto st = benchutil::run_benchmark(
          [&] {
            const auto report = distributed_csr_attention(q, k, v, mask, e.part, out);
            makespan = report.makespan_seconds;
            imb = report.imbalance;
          },
          args.run);
      (void)st;
      table.add_row({std::to_string(nodes), e.name, Table::fmt_double(e.part.imbalance(), 4),
                     Table::fmt_seconds(makespan), Table::fmt_double(imb, 4)});
      std::cout << "  nodes=" << nodes << " " << e.name << ": work imb "
                << Table::fmt_double(e.part.imbalance(), 3) << ", makespan "
                << Table::fmt_seconds(makespan) << "\n";
    }
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);

  // Ring execution: all-gather (full K/V per node) vs ring rotation
  // (one shard per node) — same arithmetic, very different memory and
  // communication profiles.
  std::cout << "\n--- ring rotation vs all-gather (memory / communication model) ---\n";
  Table ring_table({"nodes", "allgather_kv_bytes_per_node", "ring_peak_kv_bytes",
                    "ring_total_comm_bytes", "ring_s"});
  for (const Index nodes : {2, 4, 8}) {
    const auto part = partition_uniform_rows(L, nodes, deg);
    RingReport rr;
    const auto st = benchutil::run_benchmark(
        [&] { rr = ring_csr_attention(q, k, v, mask, part, out); }, args.run);
    const Size allgather = 2 * static_cast<Size>(L) * static_cast<Size>(dk) * sizeof(float);
    ring_table.add_row({std::to_string(nodes), std::to_string(allgather),
                        std::to_string(rr.peak_node_kv_bytes),
                        std::to_string(rr.total_comm_bytes), Table::fmt_seconds(st.mean)});
  }
  ring_table.print();
  ring_table.write_csv(args.csv_path);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
