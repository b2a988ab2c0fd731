#pragma once
// Simulated distributed attention: each "node" owns a contiguous row
// range of Q (sequence parallelism à la DeepSpeed-Ulysses/LongNet,
// §III) and receives the full K/V via a simulated all-gather. Nodes run
// concurrently, one std::thread each; per-node wall time and gathered bytes
// are recorded so the load-balancing claim of the partitioner is
// measurable without real MPI.

#include <vector>

#include "core/attention_options.hpp"
#include "seqpar/partition.hpp"
#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"

namespace gpa::seqpar {

struct NodeReport {
  Index node = 0;
  Index row_begin = 0;
  Index row_end = 0;
  Size edges = 0;
  double seconds = 0.0;       ///< kernel time on this node
  Size gathered_bytes = 0;    ///< K + V bytes shipped to this node
};

struct ClusterReport {
  std::vector<NodeReport> nodes;
  double makespan_seconds = 0.0;  ///< slowest node (the cluster's step time)
  double imbalance = 0.0;         ///< max node time / mean node time
};

/// Runs CSR graph attention with rows partitioned across `partition`,
/// one OS thread per node, writing into `out`. The result equals the
/// single-node kernel exactly (same arithmetic per row).
ClusterReport distributed_csr_attention(const Matrix<float>& q, const Matrix<float>& k,
                                        const Matrix<float>& v, const Csr<float>& mask,
                                        const Partition& partition, Matrix<float>& out,
                                        const AttentionOptions& opts = {});

}  // namespace gpa::seqpar
