#pragma once
// Cluster layer: the front-end router.
//
//   * HashRing — consistent hashing of session ids to node ids with
//     virtual nodes, so adding a node to an N-node ring re-owns ~1/(N+1)
//     of the keys instead of rehashing everything.
//   * ClusterClient — one RPC connection per peer; session ops route to
//     the ring owner, and ring_prefill drives the wire-rotated
//     ring-attention protocol across all peers.
//
// Ring prefill topology: the router *relays* the rotation (star
// topology) rather than wiring peers to each other — at step s it
// fetches every shard from its owner and delivers shard (p+s) mod P to
// node p. Each delivered shard crosses the wire twice
// (owner→router→node), so the relay ships 2·(P-1)·shard_bytes per node
// versus (P-1)·shard_bytes for a true peer-to-peer ring; in exchange
// the protocol needs only the client→node connections that session
// serving already requires, and works unchanged over the loopback arm.
// RingStart gives each node only its own rows of the mask (an L×L CSR
// whose other rows are empty, so row and column ids stay global).
//
// The router keeps its buffers from one prefill to the next: each
// peer's RpcClient holds one request buffer and one receive frame for
// the life of the connection (see rpc.hpp). Requests are written
// straight from the caller's mask and Q/K/V rows into the request
// buffer; a fetched shard is copied once, from its owner's receive
// frame into its consumer's request; finished rows are read straight
// into `out`. So a prefill allocates nothing large once the first one
// has sized the buffers, and its latency does not depend on whether the
// allocator hands freed pages back to the kernel.
//
// Every phase fans out: start, each step's fetches, each step's
// deliveries and finish send one request to each node before reading
// any response, so the nodes fold at the same time, all on the calling
// thread. This cannot deadlock. Each connection has one request in
// flight and its node is idle until that request arrives, and a node
// reads its whole request before it replies, so every send completes
// without waiting for a response. The router then reads the responses
// in peer order; a node it waits on depends on nothing but that read.
// If a node fails, the phase still reads every other outstanding
// response before it rethrows, so the other connections stay usable.
// The fold order on each node is independent of delivery order
// (deferred in-order folding, see node.hpp), which is what makes the
// result bit-identical to seqpar/sim_cluster.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "net/node.hpp"
#include "net/rpc.hpp"
#include "seqpar/partition.hpp"

namespace gpa::net {

class HashRing {
 public:
  explicit HashRing(Index virtual_nodes = 64);

  void add_node(std::uint64_t node_id);
  void remove_node(std::uint64_t node_id);

  bool contains(std::uint64_t node_id) const { return nodes_.count(node_id) != 0; }
  Size nodes() const noexcept { return nodes_.size(); }

  /// Owning node for a key: clockwise successor of the key's hash
  /// point. Throws InvalidArgument on an empty ring.
  std::uint64_t owner(std::uint64_t key) const;

 private:
  Index vnodes_;
  std::map<std::uint64_t, std::uint64_t> points_;  ///< hash point → node id
  std::set<std::uint64_t> nodes_;
};

/// Per-node throughput sample from a cluster ring prefill.
struct ClusterNodeReport {
  std::uint64_t node_id = 0;
  Index row_begin = 0;
  Index row_end = 0;
  Size edges = 0;
};

struct ClusterRingReport {
  std::vector<ClusterNodeReport> nodes;
  Size shard_deliveries = 0;  ///< rotated shards shipped (fetch+push each)
  double seconds = 0.0;       ///< wall time of the whole exchange
};

struct PingInfo {
  Size sessions = 0;
  Index pages_in_use = 0;
  Index pages_free = 0;
};

class ClusterClient {
 public:
  explicit ClusterClient(Index virtual_nodes = 64) : ring_(virtual_nodes) {}

  /// Register a connected peer. Node ids must be unique; insertion
  /// order defines the ring-prefill part index p.
  void add_peer(std::uint64_t node_id, std::unique_ptr<Transport> transport);

  Size peers() const noexcept { return peers_.size(); }
  std::uint64_t owner_of(std::uint64_t session_id) const { return ring_.owner(session_id); }

  // Session ops, routed to the ring owner. Remote typed errors
  // (SessionNotFound / SessionEvicted / CacheFull / InvalidArgument)
  // rethrow client-side as the local exceptions.
  void create_session(std::uint64_t session_id, const WireMask& mask);
  void prefill(std::uint64_t session_id, const Matrix<float>& q, const Matrix<float>& k,
               const Matrix<float>& v, Matrix<float>& out);
  Index decode_step(std::uint64_t session_id, const float* q, const float* k, const float* v,
                    Index head_dim, float* out_row);
  void release_session(std::uint64_t session_id);

  PingInfo ping(std::uint64_t node_id);

  /// Scrape a node's full metrics registry snapshot (Op::Stats).
  obs::MetricsSnapshot node_stats(std::uint64_t node_id);

  /// Wire-rotated ring-attention prefill across ALL peers (peer i is
  /// part i; partition.parts() must equal peers()). Bit-identical to
  /// seqpar::distributed_csr_attention on the same partition. `out` is
  /// reused when it is already L×d, and reallocated otherwise.
  ClusterRingReport ring_prefill(const Matrix<float>& q, const Matrix<float>& k,
                                 const Matrix<float>& v, const Csr<float>& mask,
                                 const seqpar::Partition& partition, bool causal, float scale,
                                 Matrix<float>& out);

  /// Orderly shutdown of every peer (each node's serve loop exits).
  void shutdown_all();

 private:
  struct Peer {
    std::uint64_t id = 0;
    std::unique_ptr<Transport> transport;
    std::unique_ptr<RpcClient> rpc;
  };

  Peer& by_session(std::uint64_t session_id);
  Peer& by_id(std::uint64_t node_id);

  /// One ring-prefill phase: sends each peer's written body() as `op`,
  /// then reads every response (see the file comment). The views are
  /// each peer's receive frame, valid until that peer's next receive. If
  /// any send or receive fails, the rest of the responses are still
  /// read, then the first failure is rethrown.
  std::vector<std::span<const std::uint8_t>> fan_out(Op op);

  HashRing ring_;
  std::vector<Peer> peers_;
  std::uint64_t next_ring_id_ = 1;
};

}  // namespace gpa::net
