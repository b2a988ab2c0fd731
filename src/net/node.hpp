#pragma once
// Node service: the server half of a cluster process. Owns a
// SessionManager (each node holds only the sessions the hash ring
// assigns it) and the per-ring prefill state for wire-rotated
// ring attention.
//
// Ring prefill bit-identity (the differential gate vs
// seqpar/sim_cluster): sim_cluster folds each row's full neighborhood
// in ascending column order. Ring rotation delivers shards in rotated
// order — node p sees shards p, p+1, ..., P-1, 0, ..., p-1 — so a node
// folding on arrival would fold columns out of order and drift in the
// last float bits (the online-softmax fold is order-dependent). Nodes
// therefore do *deferred in-order folding*: an arriving shard is
// stashed, and shard s is folded only once shards 0..s-1 have been
// folded (then freed). The per-row fold order is ascending columns —
// exactly sim_cluster's, and exactly the one-shot kernel's — so the
// finalized outputs are bit-identical by construction. Peak extra
// memory is the stash: at most the shards between the fold cursor and
// the rotation position.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/state.hpp"
#include "kvcache/session_manager.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "seqpar/partition.hpp"
#include "sparse/patterns.hpp"

namespace gpa::net {

// ---------------------------------------------------------------------
// Metrics snapshot over the wire (Op::Stats). Typed, not stringly: the
// scraper (gpa_cli stats / cluster-bench) reads individual fields, so
// the snapshot ships as [counters][gauges][histograms] with
// length-prefixed name strings and LE-encoded values. get_* applies the
// usual hostile-input bounds before any allocation.

void put_metrics_snapshot(Writer& w, const obs::MetricsSnapshot& s);
bool get_metrics_snapshot(Reader& r, obs::MetricsSnapshot& s);

// ---------------------------------------------------------------------
// Session mask over the wire: the restricted MaskSpec vocabulary the
// cluster serves (one component; the families with a closed-form or
// explicit spelling).

enum class WireMaskKind : std::uint8_t {
  Local = 1,     ///< a = window
  Dilated1d = 2, ///< a = window, b = dilation
  Global = 3,    ///< tokens = global tokens, a = local window to subtract
  Csr = 4,
};

struct WireMask {
  WireMaskKind kind = WireMaskKind::Local;
  Index a = 0;
  Index b = 0;
  std::vector<Index> tokens;        ///< Global kind only
  std::shared_ptr<Csr<float>> csr;  ///< Csr kind only

  kvcache::MaskSpec to_spec() const;
};

void put_mask(Writer& w, const WireMask& m);
bool get_mask(Reader& r, WireMask& m);

// ---------------------------------------------------------------------

struct NodeConfig {
  kvcache::SessionManager::Config sessions{};
};

class NodeService {
 public:
  explicit NodeService(NodeConfig cfg) : sessions_(cfg.sessions) {}

  /// Serve one connection: request/response until EOF, a corrupt
  /// frame, or a Shutdown op. Returns true iff shutdown was requested
  /// (the process-level accept loop exits on true).
  bool serve(Transport& t);

  /// One request → one response (exposed for loopback tests).
  void handle(const RpcRequest& req, RpcResponse& rsp);

  const kvcache::SessionManager& sessions() const noexcept { return sessions_; }

 private:
  /// In-flight ring-prefill state.
  struct Ring {
    std::uint64_t id = 0;  ///< the router's ring id
    Index parts = 0;
    Index part = 0;  ///< this node's index p
    Index seq_len = 0;
    Index head_dim = 0;
    Index row_lo = 0;
    Index row_hi = 0;
    bool causal = false;
    float scale = 1.0f;
    seqpar::Partition partition;
    Csr<float> mask;
    Matrix<float> q;          ///< this node's row slice (local indexing)
    Matrix<float> k_own, v_own;  ///< the shard this node owns (RingFetch)
    SoftmaxState state;       ///< row_hi - row_lo local rows
    std::map<Index, std::pair<Matrix<float>, Matrix<float>>> stash;
    Index next_fold = 0;      ///< shards 0..next_fold-1 are folded
    Size edges = 0;
  };

  /// The live ring with id `rid`, or null. Caller holds ring_mu_.
  Ring* find_ring(std::uint64_t rid);

  RpcStatus ring_start(Reader& r);
  RpcStatus ring_fetch(Reader& r, Writer& out);
  RpcStatus ring_shard(Reader& r);
  RpcStatus ring_finish(Reader& r, Writer& out);

  /// Stash shard `idx`, then fold every consecutive shard starting at
  /// the cursor (ascending order — see file comment).
  void stash_and_fold(Ring& g, Index idx, Matrix<float>&& ks, Matrix<float>&& vs);
  void fold_shard(Ring& g, Index idx, const Matrix<float>& ks, const Matrix<float>& vs);

  kvcache::SessionManager sessions_;
  std::mutex ring_mu_;
  /// At most one live ring. gpa_serve serves one connection at a time
  /// and ClusterClient::ring_prefill is synchronous, so a RingStart
  /// replaces whatever ring a failed prefill abandoned: a node holds at
  /// most one prefill's Q rows, K/V shards and mask, however many
  /// prefills it has seen.
  std::optional<Ring> ring_;
};

}  // namespace gpa::net
