#include "seqpar/sim_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/kernel_common.hpp"
#include "core/state.hpp"
#include "core/traversal.hpp"

namespace gpa::seqpar {

ClusterReport distributed_csr_attention(const Matrix<float>& q, const Matrix<float>& k,
                                        const Matrix<float>& v, const Csr<float>& mask,
                                        const Partition& partition, Matrix<float>& out,
                                        const AttentionOptions& opts) {
  const Index L = q.rows();
  const Index d = q.cols();
  GPA_CHECK(mask.rows == L && mask.cols == L, "distributed: mask shape mismatch");
  GPA_CHECK(out.rows() == L && out.cols() == d, "distributed: output shape mismatch");
  GPA_CHECK(!partition.boundaries.empty() && partition.boundaries.front() == 0 &&
                partition.boundaries.back() == L,
            "partition must cover [0, L)");
  const float scale = gpa::detail::resolve_scale(opts.scale, d);
  const simd::VecOps& vo = simd::ops(opts.policy.simd);
  // THE iteration order: each node's row loop drives the same traversal
  // the one-shot kernels do, so the simulated cluster is bit-identical
  // to the single-node kernel by construction (and the wire path can
  // batch-key on tr.fingerprint()). Causal masks now intersect the
  // triangle exactly as the kernels' causal branches do.
  const MaskTraversal tr = MaskTraversal::over(mask);

  ClusterReport report;
  report.nodes.resize(static_cast<std::size_t>(partition.parts()));

  // One thread per node; each node folds its own rows. K/V are shared
  // read-only here — the gathered_bytes field records what a real
  // all-gather would ship (full K and V per node, as LongNet does).
  std::vector<std::thread> nodes;
  nodes.reserve(report.nodes.size());
  for (Index p = 0; p < partition.parts(); ++p) {
    nodes.emplace_back([&, p] {
      const auto t0 = std::chrono::steady_clock::now();
      const Index lo = partition.boundaries[static_cast<std::size_t>(p)];
      const Index hi = partition.boundaries[static_cast<std::size_t>(p) + 1];
      Size edges = 0;
      std::vector<float> acc(static_cast<std::size_t>(d));
      for (Index i = lo; i < hi; ++i) {
        for (Index x = 0; x < d; ++x) acc[static_cast<std::size_t>(x)] = 0.0f;
        gpa::detail::EdgeTile<float> tile(q.row(i), acc.data(), {}, d, scale,
                                          opts.use_mask_values, vo);
        tr.for_each_edge(i, L, opts.causal, [&](Index j, float gate) {
          tile.add(k.row(j), v.row(j), gate);
          ++edges;
        });
        tile.flush();
        const float inv = tile.osr.inv_l();
        float* oi = out.row(i);
        for (Index x = 0; x < d; ++x) oi[x] = acc[static_cast<std::size_t>(x)] * inv;
      }
      const auto t1 = std::chrono::steady_clock::now();
      auto& nr = report.nodes[static_cast<std::size_t>(p)];
      nr.node = p;
      nr.row_begin = lo;
      nr.row_end = hi;
      nr.edges = edges;
      nr.seconds = std::chrono::duration<double>(t1 - t0).count();
      nr.gathered_bytes = 2 * static_cast<Size>(L) * static_cast<Size>(d) * sizeof(float);
    });
  }
  for (auto& t : nodes) t.join();

  double total = 0.0;
  for (const auto& nr : report.nodes) {
    report.makespan_seconds = std::max(report.makespan_seconds, nr.seconds);
    total += nr.seconds;
  }
  const double mean = total / static_cast<double>(report.nodes.size());
  report.imbalance = mean > 0.0 ? report.makespan_seconds / mean : 0.0;
  return report;
}

}  // namespace gpa::seqpar
